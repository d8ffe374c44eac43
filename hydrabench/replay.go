package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// The traced replay: the served request sequence is run again in-process
// through the public calls the POST /query handler makes, in the handler's
// order, with a span around each. Each request reuses the cache disposition
// the server reported for it, so parse, plan and Prepare run exactly where
// the server missed. The replay runs with as many goroutines as the load had
// clients, over the same send order, so the engine sees the same
// concurrency it saw behind HTTP.

// layerTimes are one replayed request's spans.
type layerTimes struct {
	decode, parse, plan, prepare, execute, encode time.Duration
	path                                          string
}

func (l layerTimes) inServer() time.Duration {
	return l.decode + l.parse + l.plan + l.prepare + l.execute
}

type replayer struct {
	db   *engine.Database
	opts engine.ExecOptions
	qs   []servedQuery
	// keep names the queries some request hits: only their Prepared values
	// are kept, so a miss-only mix never holds hundreds of build arenas.
	keep  map[int]bool
	mu    sync.Mutex
	cache map[int]*engine.Prepared
}

func newReplayer(sum *summary.Database, qs []servedQuery, keep map[int]bool) (*replayer, error) {
	// The handler's options under `hydra serve` defaults: sample cap,
	// parallelism GOMAXPROCS, every query traced.
	opts, err := engine.ExecOptions{SampleLimit: serveSampleLimit, Parallelism: runtime.GOMAXPROCS(0), Trace: true}.Normalize()
	if err != nil {
		return nil, err
	}
	return &replayer{db: core.RegenDatabase(sum, 0), opts: opts, qs: qs, keep: keep, cache: make(map[int]*engine.Prepared)}, nil
}

// build parses, plans and prepares sql, charging each step to lt through
// sw: the miss path of one, and (with a switched-off stopwatch) lookup.
func (rp *replayer) build(sql string, sw *stopwatch, lt *layerTimes) (*engine.Prepared, error) {
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return nil, err
	}
	lt.parse = sw.lap()
	plan, err := engine.BuildPlan(rp.db.Schema, q)
	if err != nil {
		return nil, err
	}
	lt.plan = sw.lap()
	prep, err := engine.Prepare(rp.db, plan, rp.opts)
	if err != nil {
		return nil, err
	}
	lt.prepare = sw.lap()
	return prep, nil
}

// lookup returns the kept Prepared for a hit; a hit whose miss the replay
// has not reached yet (the server coalesced it onto a concurrent build)
// prepares outside the spans.
func (rp *replayer) lookup(qi int) (*engine.Prepared, error) {
	rp.mu.Lock()
	prep := rp.cache[qi]
	rp.mu.Unlock()
	if prep != nil {
		return prep, nil
	}
	prep, err := rp.build(rp.qs[qi].sql, &stopwatch{}, &layerTimes{})
	if err != nil {
		return nil, err
	}
	rp.store(qi, prep)
	return prep, nil
}

func (rp *replayer) store(qi int, prep *engine.Prepared) {
	if !rp.keep[qi] {
		return
	}
	rp.mu.Lock()
	rp.cache[qi] = prep
	rp.mu.Unlock()
}

// stopwatch times consecutive spans; switched off, it reads no clock, which
// is how the untraced replay makes the same calls without the spans.
type stopwatch struct {
	on   bool
	last time.Time
}

func (s *stopwatch) lap() time.Duration {
	if !s.on {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

// one replays a request: decode the body into serve.QueryRequest, parse +
// plan + Prepare on a miss, Prepared.ExecuteContext, then encode the
// serve.QueryResponse the handler would write.
func (rp *replayer) one(rec record, traced bool) (layerTimes, error) {
	var lt layerTimes
	sw := stopwatch{on: traced}
	if traced {
		sw.last = time.Now()
	}
	var req serve.QueryRequest
	if err := json.NewDecoder(bytes.NewReader(rp.qs[rec.query].body)).Decode(&req); err != nil {
		return lt, err
	}
	lt.decode = sw.lap()
	var (
		prep *engine.Prepared
		err  error
	)
	if rec.cache == "miss" {
		if prep, err = rp.build(req.SQL, &sw, &lt); err != nil {
			return lt, err
		}
		rp.store(rec.query, prep)
	} else {
		if prep, err = rp.lookup(rec.query); err != nil {
			return lt, err
		}
		sw.lap() // the cache lookup is left to serve.unexplained_us
	}
	res, err := prep.ExecuteContext(context.Background(), rp.opts)
	if err != nil {
		return lt, err
	}
	lt.execute = sw.lap()
	lt.path = res.Path
	if lt.path == "" {
		lt.path = "regen"
	}
	resp := serve.QueryResponse{
		SQL: req.SQL, RequestID: "q-1", Count: res.Count, Rows: res.Rows, Sample: res.Sample, Plan: res.Root,
		Parallelism: rp.opts.Parallelism, BatchSize: rp.opts.BatchSize, Cache: rec.cache, ElapsedNS: rec.elapsedNS, Path: lt.path,
	}
	if _, err := json.Marshal(resp); err != nil {
		return lt, err
	}
	lt.encode = sw.lap()
	return lt, nil
}

// phase replays recs over clients goroutines in send order and returns
// each executed request's spans (by position) and the phase's wall time.
func (rp *replayer) phase(recs []record, clients int, traced bool) ([]layerTimes, time.Duration, error) {
	out := make([]layerTimes, len(recs))
	if len(recs) == 0 {
		return out, 0, nil
	}
	d := &dispenser{n: len(recs), maxPasses: 1}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos, ok := d.take()
				if !ok {
					return
				}
				if !recs[pos].executed() {
					continue
				}
				lt, err := rp.one(recs[pos], traced)
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("replaying %q: %w", rp.qs[recs[pos].query].sql, err) })
					return
				}
				out[pos] = lt
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start), firstErr
}

// executeAllocs executes each query of the mix once, alone, and returns the
// median heap allocation count of Prepared.ExecuteContext.
func (rp *replayer) executeAllocs() (float64, error) {
	var allocs []float64
	var before, after runtime.MemStats
	for qi := range rp.qs {
		prep, err := rp.lookup(qi)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&before)
		if _, err := prep.ExecuteContext(context.Background(), rp.opts); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return median(allocs), nil
}

// replayServed replays the warm-up and timed sequences, untraced and traced,
// and sets the replay's per-layer metrics, the sum rule and the tracing
// overhead.
func replayServed(cfg config, res *result, sum *summary.Database, qs []servedQuery, warm, timed *loadRun) error {
	keep := make(map[int]bool)
	for _, l := range []*loadRun{warm, timed} {
		for _, r := range l.recs {
			if r.executed() && r.cache != "miss" {
				keep[r.query] = true
			}
		}
	}
	// One replayer runs the warm-up, then the timed sequence four times in
	// ABBA order (untraced, traced, traced, untraced), so drift in heap, GC
	// or CPU-frequency state across the passes favours neither side. The
	// untraced passes make the same calls with no clocks between them; the
	// difference of the two sides' mean walls is the spans' cost. The layer
	// times are the second traced pass's.
	rp, err := newReplayer(sum, qs, keep)
	if err != nil {
		return err
	}
	if _, _, err := rp.phase(warm.recs, cfg.clients, false); err != nil {
		return err
	}
	var (
		lts                      []layerTimes
		tracedWall, untracedWall time.Duration
	)
	for _, traced := range []bool{false, true, true, false} {
		l, wall, err := rp.phase(timed.recs, cfg.clients, traced)
		if err != nil {
			return err
		}
		if traced {
			lts, tracedWall = l, tracedWall+wall
		} else {
			untracedWall += wall
		}
	}
	allocs, err := rp.executeAllocs()
	if err != nil {
		return err
	}

	var (
		n                                             int
		decode, parse, plan, prepare, execute, encode float64
		regen, summ                                   []float64
		residual, rtt                                 []float64
	)
	for i, r := range timed.recs {
		if !r.executed() {
			continue
		}
		lt := lts[i]
		n++
		decode += durUS(lt.decode)
		parse += durUS(lt.parse)
		plan += durUS(lt.plan)
		prepare += durUS(lt.prepare)
		execute += durUS(lt.execute)
		encode += durUS(lt.encode)
		if lt.path == "summary" {
			summ = append(summ, durUS(lt.execute))
		} else {
			regen = append(regen, durUS(lt.execute))
		}
		// The client's round trip is the server's elapsed_ns plus transport
		// (serve.transport_us, which holds the response encode); what
		// elapsed_ns holds beyond the replayed layers is unexplained.
		residual = append(residual, float64(r.elapsedNS)/1e3-durUS(lt.inServer()))
		rtt = append(rtt, durUS(r.rtt))
	}
	if n == 0 {
		return fmt.Errorf("no executed request to replay")
	}
	k := float64(n)
	res.set("serve.decode_us", decode/k, n)
	res.set("sqlkit.parse_us", parse/k, n)
	res.set("engine.plan_us", plan/k, n)
	res.set("engine.prepare_us", prepare/k, n)
	res.set("engine.execute_us", execute/k, n)
	res.set("engine.execute_us.regen", mean(regen), len(regen))
	res.set("engine.execute_us.summary", mean(summ), len(summ))
	res.set("engine.execute_allocs", allocs, len(qs))
	res.set("serve.encode_us", encode/k, n)
	unexplained, p50 := median(residual), median(rtt)
	share := unexplained / p50
	res.setNote("serve.unexplained_us", unexplained, n, fmt.Sprintf("median per request; median latency %.1f us", p50))
	res.set("serve.unexplained_share", share, n)
	if math.Abs(share) > sumRuleTolerance {
		res.setNote("serve.sum_rule_ok", 0, n, fmt.Sprintf("FLAG: %.1f%% of the median latency unexplained, tolerance %.0f%%", 100*share, 100*sumRuleTolerance))
	} else {
		res.set("serve.sum_rule_ok", 1, n)
	}
	res.set("trace.wall_s", tracedWall.Seconds()/2, n)
	res.set("trace.untraced_wall_s", untracedWall.Seconds()/2, n)
	res.set("trace.overhead_pct", 100*(tracedWall.Seconds()-untracedWall.Seconds())/untracedWall.Seconds(), n)
	return nil
}
