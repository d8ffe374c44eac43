package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's whole output vocabulary; BENCHMARK.json lists the same
// names (the self-test holds the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. The vendor build's own time is part of setup_s; its summary's size
// and fidelity are end-to-end metrics of their own.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"summary_bytes", "bytes"},
	{"fidelity_exact", "fraction"},
}

// perLayer are the single-layer metrics, printed by traced runs. A layer
// that does no work on a workload reports 0 there (parse, plan and Prepare
// on serve_hot).
var perLayer = []metricDef{
	// Served path, from /metricsz and /statsz deltas over the timed run.
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_build_us_per_miss", "us"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"engine.rows_generated_per_req", "rows"},
	{"engine.rows_pruned_per_req", "rows"},
	{"engine.summary_rows_skipped_per_req", "rows"},
	{"engine.summary_direct_share", "ratio"},
	{"engine.op_self_us.SCAN", "us"},
	{"engine.op_self_us.HASH_JOIN", "us"},
	{"engine.op_self_us.GROUP_AGG", "us"},
	{"engine.op_self_us.SORT", "us"},
	{"engine.op_self_us.SUMMARY_AGG", "us"},
	{"generator.ns_per_row", "ns"},
	// Served path, from the client and the traced in-process replay.
	{"serve.decode_us", "us"},
	{"sqlkit.parse_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.prepare_us", "us"},
	{"engine.execute_us", "us"},
	{"engine.execute_us.regen", "us"},
	{"engine.execute_us.summary", "us"},
	{"engine.execute_allocs", "allocs"},
	{"serve.encode_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.unexplained_us", "us"},
	{"serve.unexplained_share", "ratio"},
	{"serve.sum_rule_ok", "flag"},
	{"client.cpu_us_per_req", "us"},
	// Vendor path, from spans around each public call of the set-ups'
	// pipelines.
	{"vendor.pipeline_ms", "ms"},
	{"core.capture_ms", "ms"},
	{"core.package_codec_ms", "ms"},
	{"preprocess.extract_ms", "ms"},
	{"summary.partition_ms", "ms"},
	{"summary.solve_ms", "ms"},
	{"summary.solve_ms.item", "ms"},
	{"summary.solve_ms.store_sales", "ms"},
	{"summary.align_ms", "ms"},
	{"summary.other_ms", "ms"},
	{"summary.codec_ms", "ms"},
	{"verify.verify_ms", "ms"},
	{"verify.mean_rel_err", "ratio"},
	{"verify.gate_misses", "count"},
	{"lp.vars", "count"},
	{"lp.pivots", "count"},
	{"region.regions", "count"},
	{"summary.rows", "count"},
	{"lp.sum_abs_residual", "count"},
	// Failure accounting and the cost of tracing itself.
	{"ops.attempted", "count"},
	{"ops.ok", "count"},
	{"ops.shed", "count"},
	{"ops.errored", "count"},
	{"ops.wrong", "count"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_pct", "%"},
}

// sumRuleTolerance is the share of the median request latency the traced
// layers may leave unexplained before a traced run is flagged.
const sumRuleTolerance = 0.2

var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

type measure struct {
	value   float64
	samples int
	note    string
}

// result is one run's outcome: the correctness verdict, operation counts,
// and every metric the run measured.
type result struct {
	trace     bool
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	m         map[string]measure
}

func newResult(trace bool) *result {
	return &result{trace: trace, correct: true, m: make(map[string]measure)}
}

func (r *result) set(name string, v float64, samples int) { r.setNote(name, v, samples, "") }

func (r *result) setNote(name string, v float64, samples int, note string) {
	if _, ok := metricUnits[name]; !ok {
		panic("hydrabench: undeclared metric " + name)
	}
	r.m[name] = measure{value: v, samples: samples, note: note}
}

// fail records a correctness problem: the run still reports its metrics,
// but correct is false.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// printReport writes the human-readable report: every measured metric with
// unit and sample count, then any correctness problems.
func (r *result) printReport(w io.Writer) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			mv, ok := r.m[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-38s %14.6g %-8s n=%d", d.name, mv.value, d.unit, mv.samples)
			if mv.note != "" {
				line += "  (" + mv.note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the final result line. The metric set is the mode's
// whole list; a metric the run failed to measure is a benchmark bug and an
// error, never a silent gap.
func (r *result) writeJSON(w io.Writer) error {
	list := endToEnd
	if r.trace {
		list = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jsonMetric, len(list))}
	for _, d := range list {
		mv, ok := r.m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(mv.value) || math.IsInf(mv.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, mv.value)
		}
		out.Metrics[d.name] = jsonMetric{Value: mv.value, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one workload in a private directory under cfg.workDir and
// prints its report.
func run(cfg config, w io.Writer) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(w, "hydrabench: workload=%s seed=%d seconds=%g trace=%v clients=%d sf=%g captured=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.clients, cfg.sf, cfg.captured)
	if cfg.workload != "serve_hot" && cfg.workload != "serve_cold" {
		return nil, fmt.Errorf("unknown workload %q (want serve_hot or serve_cold)", cfg.workload)
	}
	if cfg.hydraBin == "" {
		return nil, fmt.Errorf("-hydra is required")
	}
	if cfg.hydraBin, err = filepath.Abs(cfg.hydraBin); err != nil {
		return nil, err
	}
	res, err := runServed(cfg, dir, w)
	if err != nil {
		return nil, err
	}
	res.printReport(w)
	return res, nil
}

// Statistics helpers.

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// minWindow is the fewest requests a measurement window holds, so that a
// window's p99 has at least 10 samples beyond it.
const minWindow = 1000

// window is one measurement window's figures: correct answers per second
// and latency percentiles in ms, where a failed operation counts as
// infinitely slow, so it misses every limit.
type window struct{ qps, p50, p99 float64 }

// windows cuts a timed phase, in send order, into windows of whole passes
// over the query list holding at least minWindow requests. A trailing part
// shorter than that is left out unless it is the phase's only window.
func windows(l *loadRun, passLen int) []window {
	size := passLen * ((minWindow + passLen - 1) / passLen)
	var out []window
	for lo := 0; lo < len(l.recs); lo += size {
		hi := min(lo+size, len(l.recs))
		if hi-lo < size && len(out) > 0 {
			break
		}
		out = append(out, windowOf(l.recs[lo:hi]))
	}
	return out
}

func windowOf(recs []record) window {
	ms := make([]float64, 0, len(recs))
	first, last, ok := recs[0].sent, recs[0].sent, 0
	for _, r := range recs {
		first = min(first, r.sent)
		if r.outcome == outOK {
			ok++
			ms = append(ms, durMS(r.rtt))
			last = max(last, r.sent+r.rtt)
		} else {
			ms = append(ms, math.Inf(1))
		}
	}
	var w window
	if ok > 0 && last > first {
		w.qps = float64(ok) / (last - first).Seconds()
	}
	sort.Float64s(ms)
	w.p50 = percentile(ms, 0.50)
	w.p99 = percentile(ms, 0.99)
	return w
}

// windowMetrics sets qps, p50_ms and p99_ms to their medians over the
// measurement windows: a burst of interference from elsewhere on the host
// moves a few windows, not the figures.
func windowMetrics(res *result, ws []window, requests int) {
	var qps, p50, p99 []float64
	for _, w := range ws {
		qps = append(qps, w.qps)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
	}
	note := fmt.Sprintf("median of %d windows", len(ws))
	res.setNote("qps", median(qps), requests, note)
	// JSON has no infinity: a percentile that lands on a failed operation
	// reads as the largest finite number.
	res.setNote("p50_ms", math.Min(median(p50), math.MaxFloat64), requests, note)
	res.setNote("p99_ms", math.Min(median(p99), math.MaxFloat64), requests, note)
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
func durUS(d time.Duration) float64 { return float64(d) / 1e3 }
