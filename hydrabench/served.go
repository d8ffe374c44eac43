package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/tpcds"
)

// serveSampleLimit is `hydra serve`'s default -sample: how many result rows
// a response carries. The oracle's reference samples use the same cap.
const serveSampleLimit = 10

// answer is what a served response must match: the COUNT value, the output
// cardinality and the bounded row sample.
type answer struct {
	count, rows int64
	sample      [][]int64
}

func (a answer) matches(r reply) bool {
	if a.count != r.Count || a.rows != r.Rows || len(a.sample) != len(r.Sample) {
		return false
	}
	for i, row := range a.sample {
		if len(row) != len(r.Sample[i]) {
			return false
		}
		for j, v := range row {
			if v != r.Sample[i][j] {
				return false
			}
		}
	}
	return true
}

type servedQuery struct {
	sql  string
	body []byte
	ref  answer
}

// queryList builds the workload's fixed query list in seed-shuffled order.
//
// serve_hot: the first hotCaptured captured queries plus the group and sort
// suites, few enough to fit the default plan cache, so after the warm-up
// pass every request hits. serve_cold: the captured queries plus unseen
// instances of the same templates, several times the cache, cycled in fixed
// order, so every request misses.
func queryList(cfg config, in *instance) ([]string, error) {
	var sqls []string
	switch cfg.workload {
	case "serve_hot":
		sqls = append(sqls, in.captured[:cfg.hotCaptured]...)
		sqls = append(sqls, tpcds.GroupWorkload()...)
		sqls = append(sqls, tpcds.SortWorkload()...)
		if len(sqls) > serve.DefaultCacheSize {
			return nil, fmt.Errorf("serve_hot mix has %d shapes, more than the %d-entry plan cache", len(sqls), serve.DefaultCacheSize)
		}
	case "serve_cold":
		sqls = tpcds.Workload(cfg.coldQueries, in.workSeed)
		if len(sqls) <= serve.DefaultCacheSize {
			return nil, fmt.Errorf("serve_cold mix has %d queries, not more than the %d-entry plan cache", len(sqls), serve.DefaultCacheSize)
		}
	}
	r := rand.New(rand.NewSource(in.orderSeed))
	r.Shuffle(len(sqls), func(i, j int) { sqls[i], sqls[j] = sqls[j], sqls[i] })
	return sqls, nil
}

// references answers every query on core.MaterializedDatabase: stored rows
// expanded from the summary and executed by the row-store path, with no
// regeneration, pruning or summary-direct shortcut.
func references(sum *summary.Database, sqls []string) ([]servedQuery, error) {
	db, err := core.MaterializedDatabase(sum)
	if err != nil {
		return nil, fmt.Errorf("materializing the oracle database: %w", err)
	}
	out := make([]servedQuery, len(sqls))
	for i, sql := range sqls {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", sql, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", sql, err)
		}
		res, err := engine.Execute(db, plan, engine.ExecOptions{SampleLimit: serveSampleLimit})
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", sql, err)
		}
		out[i] = servedQuery{sql: sql, body: requestBody(sql), ref: answer{count: res.Count, rows: res.Rows, sample: res.Sample}}
	}
	return out, nil
}

type outcome uint8

const (
	outOK outcome = iota
	outWrong
	outShed
	outErrored
	outTransport // failed before any status: never reached the server's counters
)

// record is one sent request, kept at its position in the send order.
type record struct {
	query     int
	sent      time.Duration // send time, from the phase's start
	rtt       time.Duration // send to decoded reply
	elapsedNS int64         // the server's own elapsed_ns
	cache     string        // hit / miss, as the server reported
	path      string        // summary / regen
	outcome   outcome
}

// executed reports whether the server ran the query (right or wrong).
func (r record) executed() bool { return r.outcome == outOK || r.outcome == outWrong }

// dispenser hands out positions in the send order: position t is query
// t mod n. It closes at a pass boundary, once the pass limit or the
// deadline is reached, so every run sends whole passes.
type dispenser struct {
	mu        sync.Mutex
	next, n   int
	maxPasses int       // 0 = no pass limit
	deadline  time.Time // zero = no deadline
	closed    bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, false
	}
	if d.next > 0 && d.next%d.n == 0 {
		passes := d.next / d.n
		if (d.maxPasses > 0 && passes >= d.maxPasses) || (!d.deadline.IsZero() && time.Now().After(d.deadline)) {
			d.closed = true
			return 0, false
		}
	}
	t := d.next
	d.next++
	return t, true
}

// loadRun is one closed-loop phase: every request in send order, the
// phase's wall time and the client process's CPU time.
type loadRun struct {
	recs []record
	wall time.Duration
	cpu  time.Duration
}

func (l *loadRun) count(o outcome) int {
	n := 0
	for _, r := range l.recs {
		if r.outcome == o {
			n++
		}
	}
	return n
}

// drive runs cfg.clients closed-loop clients, each sending its next request
// only after the previous reply, over whole passes of qs.
func drive(hc *http.Client, base string, qs []servedQuery, clients, maxPasses int, minDur time.Duration) *loadRun {
	d := &dispenser{n: len(qs), maxPasses: maxPasses}
	cpu0 := processCPU()
	start := time.Now()
	if minDur > 0 {
		d.deadline = start.Add(minDur)
	}
	type sentReq struct {
		pos int
		rec record
	}
	per := make([][]sentReq, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				pos, ok := d.take()
				if !ok {
					return
				}
				qi := pos % len(qs)
				per[c] = append(per[c], sentReq{pos, doRequest(hc, base, qs[qi], qi, start)})
			}
		}(c)
	}
	wg.Wait()
	l := &loadRun{wall: time.Since(start), cpu: processCPU() - cpu0, recs: make([]record, d.next)}
	for _, list := range per {
		for _, is := range list {
			l.recs[is.pos] = is.rec
		}
	}
	return l
}

func doRequest(hc *http.Client, base string, q servedQuery, qi int, phaseStart time.Time) record {
	rec := record{query: qi, outcome: outTransport}
	req, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(q.body))
	if err != nil {
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	rec.sent = start.Sub(phaseStart)
	resp, err := hc.Do(req)
	if err != nil {
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rec
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		rec.outcome = outShed
		return rec
	default:
		rec.outcome = outErrored
		return rec
	}
	r, err := decodeReply(body)
	rec.rtt = time.Since(start)
	if err != nil {
		rec.outcome = outErrored
		return rec
	}
	rec.elapsedNS, rec.cache, rec.path = r.ElapsedNS, r.Cache, r.Path
	if q.ref.matches(r) {
		rec.outcome = outOK
	} else {
		rec.outcome = outWrong
	}
	return rec
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// account adds a phase's operations to the run's totals and records every
// wrong answer as a problem.
func account(res *result, l *loadRun, qs []servedQuery, phase string) {
	res.attempted += int64(len(l.recs))
	n := len(l.recs) - l.count(outOK)
	if n == 0 {
		return
	}
	res.failed += int64(n)
	res.fail("%s: %d of %d requests failed (wrong %d, shed %d, errored %d, transport %d)", phase, n, len(l.recs),
		l.count(outWrong), l.count(outShed), l.count(outErrored), l.count(outTransport))
	seen := map[int]bool{}
	for _, r := range l.recs {
		if r.outcome == outWrong && !seen[r.query] {
			seen[r.query] = true
			res.fail("%s: wrong answer for %q", phase, qs[r.query].sql)
		}
	}
}

// warmRequests is how many requests the warm-up sends, in whole passes: one
// pass fills the plan cache, the rest let the server's heap and connection
// state settle before timing.
const warmRequests = 1000

// servedSetup is what one set-up leaves for its timed phase.
type servedSetup struct {
	srv      *serverProc
	pipeline time.Duration
	sum      *summary.Database
	qs       []servedQuery
	warm     *loadRun
	sent     int64 // query requests sent to srv so far
}

// setUpServed runs one complete served set-up: client instance, vendor
// pipeline, fidelity check, summary file, server start, oracle answers and a
// warm-up pass.
func setUpServed(cfg config, in *instance, dir string, idx int, hc *http.Client, res *result, fid *fidelity, vl *vendorLayers) (*servedSetup, error) {
	if err := in.generate(cfg); err != nil {
		return nil, err
	}
	p, err := runPipeline(in, cfg.trace)
	if err != nil {
		return nil, err
	}
	vl.add(p)
	if err := fid.check(p, res); err != nil {
		return nil, err
	}
	sumPath := filepath.Join(dir, fmt.Sprintf("summary-%d.json", idx))
	if err := os.WriteFile(sumPath, p.sumJSON, 0o644); err != nil {
		return nil, err
	}
	sqls, err := queryList(cfg, in)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg.hydraBin, sumPath, filepath.Join(dir, fmt.Sprintf("serve-%d.log", idx)), hc)
	if err != nil {
		return nil, err
	}
	st := &servedSetup{srv: srv, pipeline: p.total, sum: p.sum}
	if st.qs, err = references(p.sum, sqls); err != nil {
		srv.stop()
		return nil, err
	}
	st.warm = drive(hc, srv.base, st.qs, cfg.clients, (warmRequests+len(st.qs)-1)/len(st.qs), 0)
	st.sent = int64(len(st.warm.recs))
	account(res, st.warm, st.qs, "warm-up")
	return st, nil
}

// timedPhase is one instance's timed closed-loop phase and the server's
// view of it: counter deltas over the phase and the server's peak RSS.
type timedPhase struct {
	load         *loadRun
	windows      []window
	counters     scrape // /metricsz deltas
	hits, misses int64  // /statsz plan-cache deltas
	rssMB        float64
}

// timeServed drives st's server for dur in whole passes.
func timeServed(cfg config, hc *http.Client, st *servedSetup, dur time.Duration, res *result) (*timedPhase, error) {
	before, err := settledScrape(hc, st.srv.base, st.sent)
	if err != nil {
		return nil, err
	}
	cacheBefore, err := getStats(hc, st.srv.base)
	if err != nil {
		return nil, err
	}
	if cfg.corruptRef >= 0 {
		st.qs[cfg.corruptRef%len(st.qs)].ref.count++
	}
	tp := &timedPhase{load: drive(hc, st.srv.base, st.qs, cfg.clients, 0, dur), counters: make(scrape)}
	st.sent += int64(len(tp.load.recs))
	tp.windows = windows(tp.load, len(st.qs))
	after, err := settledScrape(hc, st.srv.base, st.sent)
	if err != nil {
		res.fail("%v", err)
	}
	cacheAfter, err := getStats(hc, st.srv.base)
	if err != nil {
		return nil, err
	}
	if tp.rssMB, err = st.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	for k, v := range after {
		tp.counters[k] = v - before[k]
	}
	tp.hits, tp.misses = cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	return tp, nil
}

// add pools o into p. Pooled records keep their own instance's query
// indexes, so only the outcome and timing fields mean anything across them.
func (p *timedPhase) add(o *timedPhase) {
	p.load.recs = append(p.load.recs, o.load.recs...)
	p.load.wall += o.load.wall
	p.load.cpu += o.load.cpu
	p.windows = append(p.windows, o.windows...)
	for k, v := range o.counters {
		p.counters[k] += v
	}
	p.hits += o.hits
	p.misses += o.misses
}

// runServed measures serve_hot or serve_cold. Each instance is set up and
// then timed for an equal share of the run's seconds on its own server, so
// the end-to-end figures pool every instance's data and query mix.
func runServed(cfg config, dir string, w io.Writer) (*result, error) {
	res := newResult(cfg.trace)
	hc := newHTTPClient(cfg.clients)
	defer hc.CloseIdleConnections()
	var (
		fid                   fidelity
		vl                    vendorLayers
		setup, setupPipelines []float64
		rss                   []float64
		pooled                = &timedPhase{load: &loadRun{}, counters: make(scrape)}
		last                  *servedSetup
		lastTimed             *loadRun
	)
	share := time.Duration(cfg.seconds*float64(time.Second)) / time.Duration(cfg.instances)
	for i, in := range instanceSeeds(cfg.seed, cfg.instances) {
		t0 := time.Now()
		st, err := setUpServed(cfg, &in, dir, i, hc, res, &fid, &vl)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		setupPipelines = append(setupPipelines, st.pipeline.Seconds())
		tp, err := timeServed(cfg, hc, st, share, res)
		st.srv.stop()
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		account(res, tp.load, st.qs, fmt.Sprintf("instance %d timed", i))
		pooled.add(tp)
		rss = append(rss, tp.rssMB)
		last, lastTimed = st, tp.load
	}
	fmt.Fprintf(w, "set-ups (s): %.3f; their vendor pipelines (s): %.3f\n", setup, setupPipelines)
	fmt.Fprintf(w, "served: %d instances timed %.2f s each, %d queries per pass, %d clients, server flags: defaults (only -summary and -addr given)\n",
		cfg.instances, share.Seconds(), len(last.qs), cfg.clients)

	res.set("setup_s", median(setup), len(setup))
	windowMetrics(res, pooled.windows, len(pooled.load.recs))
	res.set("peak_rss_mb", median(rss), len(rss))
	res.set("vendor.pipeline_ms", 1e3*median(setupPipelines), len(setupPipelines))
	fid.report(res, w)
	vl.report(res)
	servedCounters(res, pooled)

	if cfg.trace {
		if err := replayServed(cfg, res, last.sum, last.qs, last.warm, lastTimed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// servedCounters derives the client-side accounting and the server-counter
// per-layer metrics of the pooled timed phases, and cross-checks the two
// sides' failure counts.
func servedCounters(res *result, p *timedPhase) {
	timed := p.load
	delta := func(k string) float64 { return p.counters[k] }
	n := len(timed.recs)
	ok, wrong, shed := timed.count(outOK), timed.count(outWrong), timed.count(outShed)
	errored := timed.count(outErrored) + timed.count(outTransport)
	res.set("ops.attempted", float64(n), n)
	res.set("ops.ok", float64(ok), n)
	res.set("ops.wrong", float64(wrong), n)
	res.set("ops.shed", float64(shed), n)
	res.set("ops.errored", float64(errored), n)

	srvOK := delta(outcomeKey("ok"))
	srvShed := delta(outcomeKey("shed"))
	var srvErr float64
	for _, o := range []string{"bad_request", "error", "timeout", "canceled", "draining"} {
		srvErr += delta(outcomeKey(o))
	}
	res.set("serve.shed", srvShed, n)
	res.set("serve.errors", srvErr, n)
	if int(srvOK) != ok+wrong || int(srvShed) != shed || int(srvErr) != timed.count(outErrored) {
		res.fail("client and server disagree on outcomes: client ok+wrong=%d shed=%d errored=%d, server ok=%g shed=%g errors=%g",
			ok+wrong, shed, timed.count(outErrored), srvOK, srvShed, srvErr)
	}

	hits, misses := float64(p.hits), float64(p.misses)
	if hits+misses > 0 {
		res.set("serve.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	} else {
		res.set("serve.cache_hit_ratio", 0, 0)
	}
	buildS := delta("hydra_plan_cache_build_seconds_total")
	if misses > 0 {
		res.set("serve.cache_build_us_per_miss", buildS*1e6/misses, int(misses))
	} else {
		res.set("serve.cache_build_us_per_miss", 0, 0)
	}
	exec := srvOK
	per := func(name string, v float64) {
		if exec > 0 {
			res.set(name, v/exec, int(exec))
		} else {
			res.set(name, 0, 0)
		}
	}
	rowsGen := delta("hydra_engine_rows_generated_total")
	per("engine.rows_generated_per_req", rowsGen)
	per("engine.rows_pruned_per_req", delta("hydra_rows_pruned_total"))
	per("engine.summary_rows_skipped_per_req", delta("hydra_summary_rows_skipped_total"))
	per("engine.summary_direct_share", delta("hydra_summaryagg_queries_total"))
	for _, op := range []struct{ metric, label string }{
		{"SCAN", "SCAN"}, {"HASH_JOIN", "HASH JOIN"}, {"GROUP_AGG", "GROUP AGG"}, {"SORT", "SORT"}, {"SUMMARY_AGG", "SUMMARY AGG"},
	} {
		per("engine.op_self_us."+op.metric, delta(`hydra_operator_self_seconds_sum{op="`+op.label+`"}`)*1e6)
	}
	scanNS := delta(`hydra_operator_self_seconds_sum{op="SCAN"}`) * 1e9
	if rowsGen > 0 {
		res.set("generator.ns_per_row", scanNS/rowsGen, int(rowsGen))
	} else {
		res.set("generator.ns_per_row", 0, 0)
	}
	if n > 0 {
		res.set("client.cpu_us_per_req", durUS(timed.cpu)/float64(n), n)
	}
	var transport []float64
	for _, r := range timed.recs {
		if r.executed() {
			transport = append(transport, durUS(r.rtt)-float64(r.elapsedNS)/1e3)
		}
	}
	res.set("serve.transport_us", mean(transport), len(transport))
}
