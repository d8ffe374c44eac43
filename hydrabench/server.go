package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// serverProc is one `hydra serve` child process. The benchmark passes only
// the summary file and a loopback address; every other flag keeps its
// default, so the served path measured is the one a user gets.
type serverProc struct {
	cmd  *exec.Cmd
	hc   *http.Client
	base string
	done chan struct{} // closed once the process has exited
	log  *os.File
}

// startServer launches hydra serve on a free loopback port and waits until
// /healthz answers.
func startServer(bin, summaryPath, logPath string, hc *http.Client) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStartServer(bin, summaryPath, logPath, hc)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartServer(bin, summaryPath, logPath string, hc *http.Client) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-summary", summaryPath, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies before stopping it, the server dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hydra serve: %w", err)
	}
	s := &serverProc{cmd: cmd, hc: hc, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is read through done; a stop is expected
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			logf.Close()
			return nil, fmt.Errorf("hydra serve exited during start-up (see %s)", logPath)
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("hydra serve did not become healthy within 30s")
}

// stop drains the server with SIGTERM, kills it if it outlives the grace,
// and waits until the process has exited. The client's idle keep-alive
// connections are closed first: the server's graceful shutdown otherwise
// waits for them.
func (s *serverProc) stop() {
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// vmHWM parses the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// scrape is one /metricsz exposition, keyed by series (name plus labels).
type scrape map[string]float64

func getScrape(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: status %d", resp.StatusCode)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// requestsTotal sums hydra_requests_total over every outcome.
func (s scrape) requestsTotal() float64 {
	var t float64
	for k, v := range s {
		if strings.HasPrefix(k, "hydra_requests_total{") {
			t += v
		}
	}
	return t
}

func outcomeKey(o string) string { return `hydra_requests_total{outcome="` + o + `"}` }

// settledScrape scrapes /metricsz once the server has counted want query
// requests: the server records a request's outcome just after writing its
// response, so a scrape straight after the last reply can run ahead of it.
func settledScrape(hc *http.Client, base string, want int64) (scrape, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := getScrape(hc, base)
		if err != nil {
			return nil, err
		}
		got := int64(s.requestsTotal())
		if got == want {
			return s, nil
		}
		if got > want || time.Now().After(deadline) {
			return s, fmt.Errorf("server counted %d query requests, client sent %d", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getStats(hc *http.Client, base string) (serve.CacheStats, error) {
	resp, err := hc.Get(base + "/statsz")
	if err != nil {
		return serve.CacheStats{}, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.CacheStats{}, fmt.Errorf("/statsz: %w", err)
	}
	return st.Cache, nil
}

// newHTTPClient returns a keep-alive client with an idle pool large enough
// that no closed-loop client ever reconnects. It uses no proxy.
func newHTTPClient(clients int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: 2 * clients,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}
}

// requestBody encodes the POST /query body the benchmark sends for sql.
func requestBody(sql string) []byte {
	b, _ := json.Marshal(serve.QueryRequest{SQL: sql}) // a string field always encodes
	return b
}

// reply is the part of serve.QueryResponse the oracle and the layer
// accounting read.
type reply struct {
	Count     int64     `json:"count"`
	Rows      int64     `json:"rows"`
	Sample    [][]int64 `json:"sample"`
	Cache     string    `json:"cache"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Path      string    `json:"path"`
}

func decodeReply(b []byte) (reply, error) {
	var r reply
	err := json.Unmarshal(b, &r)
	return r, err
}
