// Command hydrabench is the repository's benchmark: it measures Hydra's
// served query path end to end, times the vendor build that produces the
// served summary, and attributes both to the program's layers.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	serve_hot     48 distinct query shapes against `hydra serve`; all fit the
//	              plan cache, so every timed request is a cache hit
//	serve_cold    512 distinct queries cycled in fixed order, 8x the plan
//	              cache, so every timed request misses
//
// Every run sets up several independent client instances derived from the
// seed (data, captured workload and request order all come from it). Each
// set-up runs the paper's offline flow in-process (capture, transfer-package
// round trip, summary build, summary round trip) with a span around each
// public call, verifies the summary's volumetric fidelity, starts the
// server on it, warms it, and then times it for an equal share of the run's
// seconds; the end-to-end figures pool every instance's timed phase. Every
// answer is checked against an independent stored-row oracle.
// The run prints a human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// additionally replays the last instance's served request sequence
// in-process with a span around each public call the handler makes, and
// prints the per-layer ones.
//
// Usage (from the repository root, which run.sh builds from):
//
//	bash hydrabench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// config is one run's fixed shape. Scale fields default to `hydra client`
// defaults (sf 1, 131 queries); the self-test shrinks them with shorten.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	hydraBin string
	workDir  string

	sf          float64
	captured    int // queries in each instance's captured workload
	hotCaptured int // captured queries that join the serve_hot mix
	coldQueries int // size of the serve_cold mix
	instances   int // client instances set up per run
	clients     int // closed-loop clients

	// corruptRef, when >= 0, alters the reference answer of that query-list
	// index before the timed run: the self-test's proof that the oracle
	// catches a wrong answer.
	corruptRef int
}

func defaultConfig() config {
	return config{
		sf:          1,
		captured:    131,
		hotCaptured: 32,
		coldQueries: 512,
		instances:   4,
		clients:     runtime.NumCPU(),
		corruptRef:  -1,
	}
}

// shorten shrinks a config to a seconds-fast smoke run that still exercises
// every layer: the cold mix stays larger than the plan cache.
func (c *config) shorten() {
	c.sf = 0.05
	c.captured = 40
	c.hotCaptured = 8
	c.coldQueries = 96
	c.instances = 2
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("hydrabench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve_hot or serve_cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for data, workload and request order")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds the timed phase runs (whole passes)")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.hydraBin, "hydra", "", "path to the hydra binary (served workloads)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for run files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydrabench: %v\n", err)
		os.Exit(1)
	}
	if err := res.writeJSON(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hydrabench: %v\n", err)
		os.Exit(1)
	}
}
