package hydra

// Benchmarks regenerating the paper's exhibits (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark wraps the corresponding experiment
// harness in internal/experiments and prints the same rows/series the paper
// reports; run with
//
//	go test -bench=. -benchmem
//
// or use "go run ./cmd/hydra bench" for the full-size tables.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/parallel"
	"repro/internal/sqlkit"
)

// benchConfig keeps the benchmark workload moderate so -bench=. completes
// quickly; cmd/hydra bench runs the paper-sized configuration.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 7, ScaleFactor: 0.5, Queries: 60}
}

// out returns the experiment output sink: stdout on -v runs of a single
// benchmark, discarded otherwise to keep -bench=. output readable.
func out() io.Writer {
	if os.Getenv("HYDRA_BENCH_VERBOSE") != "" {
		return os.Stdout
	}
	return io.Discard
}

// BenchmarkE1Example regenerates Figure 1: the toy schema's annotated query
// plan.
func BenchmarkE1Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.E1Example(out(), 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2RegionVsGrid regenerates the LP-complexity comparison (region
// vs grid partitioning variable counts).
func BenchmarkE2RegionVsGrid(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E2RegionVsGrid(out(), cfg, []int{10, 30, 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SummaryConstruction regenerates the data-scale-free
// construction table (build time and size vs client scale).
func BenchmarkE3SummaryConstruction(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E3DataScaleFree(out(), cfg, []float64{0.25, 0.5, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Accuracy regenerates the volumetric-accuracy CDF (Figure 4
// bottom-left).
func BenchmarkE4Accuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4Accuracy(out(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ErrorVsScale regenerates the shrinking-relative-error series.
func BenchmarkE5ErrorVsScale(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E5ErrorVsScale(out(), cfg, []float64{1, 10, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Velocity regenerates the velocity-control table (requested vs
// achieved rows/sec).
func BenchmarkE6Velocity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E6Velocity(out(), cfg, []float64{0, 10000}, 200000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7DatagenScan regenerates the dataless-execution demonstration
// (Table 1 sample plus dataless == materialized answers).
func BenchmarkE7DatagenScan(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E7Datagen(out(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Scenario regenerates the what-if scenario table (feasibility
// and constant-time construction across scale factors).
func BenchmarkE8Scenario(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E8Scenario(out(), cfg, []float64{10, 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Referential regenerates the referential post-processing table
// (clamped tuples under dimension shrink).
func BenchmarkE9Referential(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E9Referential(out(), cfg, []float64{1, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateRows measures raw tuple-generation throughput (the
// velocity ceiling of dynamic regeneration).
func BenchmarkGenerateRows(b *testing.B) {
	cfg := benchConfig()
	pkg, sum := mustBuild(b, cfg)
	_ = pkg
	b.ResetTimer()
	stream := Stream(sum, "store_sales")
	n := 0
	for i := 0; i < b.N; i++ {
		if _, ok := stream.Next(); !ok {
			stream = Stream(sum, "store_sales")
			continue
		}
		n++
	}
	_ = n
}

// BenchmarkGenerateBatches measures tuple-generation throughput of the
// columnar kernel at full width (Stream.NextColBatch projecting every
// column); ns/op is amortized per generated row.
func BenchmarkGenerateBatches(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	stream := Stream(sum, "store_sales")
	all := fullProjection(stream.Cols())
	dst := batch.NewCol(stream.Cols(), 0, all)
	b.ResetTimer()
	var n int64
	for n < int64(b.N) {
		if !stream.NextColBatch(dst, all) {
			stream = Stream(sum, "store_sales")
			continue
		}
		n += int64(dst.Len())
	}
}

// fullProjection is the column set [0, n).
func fullProjection(n int) []int {
	all := make([]int, n)
	for c := range all {
		all[c] = c
	}
	return all
}

// BenchmarkDatalessQuery measures steady-state dataless query execution:
// the workload's first query, prepared once, then executed repeatedly with
// full state reuse — the serve front end's cache-hit regime. Post-warmup
// the scan→filter→count path allocates nothing per query (pinned by
// TestSteadyStateZeroAlloc and enforced again by the bench smoke via
// "hydra bench -json").
func BenchmarkDatalessQuery(b *testing.B) {
	cfg := benchConfig()
	pkg, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	prep, err := Prepare(db, pkg.Workload[0].SQL, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var st ExecState
	if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
		b.Fatal(err) // warmup: builds the reusable state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalessQueryFull measures the same query end to end — parse,
// plan, open, execute — through the Verify harness (the pre-PR-3 body of
// BenchmarkDatalessQuery, kept for trajectory continuity).
func BenchmarkDatalessQueryFull(b *testing.B) {
	cfg := benchConfig()
	pkg, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Verify(db, pkg.Workload[:1])
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}

// BenchmarkDatalessQueryRowAtATime runs the same query through the
// row-at-a-time reference executor, quantifying what batching buys.
func BenchmarkDatalessQueryRowAtATime(b *testing.B) {
	cfg := benchConfig()
	pkg, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	q, err := sqlkit.Parse(pkg.Workload[0].SQL)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ExecuteRows(db, plan, engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalessJoinQuery measures a dataless fact-dimension hash join
// through the batched executor (arena build, per-batch accounting).
func BenchmarkDatalessJoinQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Music'"
	q, err := sqlkit.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(db, plan, engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedJoinQuery measures the same fact-dimension join served
// from a Prepared's shared build arenas — the engine-level cache-hit cost:
// probe only, no hash-table build. Compare with BenchmarkDatalessJoinQuery
// for the latency the serve cache removes per request.
func BenchmarkPreparedJoinQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Music'"
	prep, err := Prepare(db, sql, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Execute(ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByQuery measures vectorized grouped aggregation — the full
// COUNT/SUM/MIN/MAX/AVG suite grouped by store — regenerated datalessly:
// fresh columnar execution and the steady-state ExecuteIn path whose
// recycled hash-agg state runs allocation-free ("hydra bench -json" pins
// allocs to 0 as groupby_steady).
func BenchmarkGroupByQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT ss_store_sk, COUNT(*), SUM(ss_quantity), MIN(ss_quantity), MAX(ss_quantity), AVG(ss_sales_price) FROM store_sales GROUP BY ss_store_sk"
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var st ExecState
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelQuery measures morsel-driven dataless execution of the
// reference join query across worker counts; compare against the
// sequential BenchmarkDatalessJoinQuery for the scaling curve (on a
// single-core host the curve is flat — the interesting number is the
// absence of a parallelization penalty).
func BenchmarkParallelQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Music'"
	q, err := sqlkit.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer parallel.AtLeastProcs(workers)()
			opts := engine.ExecOptions{Parallelism: workers}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Execute(db, plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGenerate measures raw tuple generation fanned out over
// partitioned streams; ns/op is amortized per generated row.
func BenchmarkParallelGenerate(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	total := Stream(sum, "store_sales").Total()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var n int64
			for n < int64(b.N) {
				parts := Stream(sum, "store_sales").Partition(workers)
				var wg sync.WaitGroup
				for _, p := range parts {
					wg.Add(1)
					go func(p *generator.Stream) {
						defer wg.Done()
						all := fullProjection(p.Cols())
						dst := batch.NewCol(p.Cols(), 0, all)
						for p.NextColBatch(dst, all) {
						}
					}(p)
				}
				wg.Wait()
				n += total
			}
		})
	}
}

// BenchmarkE10Ablation regenerates the design-choice ablation (inhabitation
// propagation on/off).
func BenchmarkE10Ablation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.E10Ablation(out(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderByQuery measures the sort sink regenerated datalessly over
// store_sales: the full sort, the same sort bounded by LIMIT 100 (top-K:
// the planner pushes the bound into the sort, which keeps a 100-row
// max-heap instead of sorting every collected row — EXPERIMENTS.md E14
// sweeps the bound), and the steady-state ExecuteIn path whose recycled
// sort state runs allocation-free ("hydra bench -json" pins allocs to 0 as
// orderby_steady).
func BenchmarkOrderByQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT * FROM store_sales ORDER BY ss_sales_price DESC, ss_quantity"
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql+" LIMIT 100", ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		prep, err := Prepare(db, sql+" LIMIT 100", ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var st ExecState
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistinctQuery measures DISTINCT — the grouped-aggregation state
// with no aggregates — fresh and steady (distinct_steady in the bench JSON
// pins the steady path to zero allocations).
func BenchmarkDistinctQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT DISTINCT ss_store_sk, ss_promo_sk FROM store_sales"
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var st ExecState
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrunedQuery measures predicate pushdown into generation: a
// low-selectivity filtered join whose filter is compiled into the scan's
// qualifying row-space, so non-matching tuples are never materialized.
// "baseline" runs the identical plan with NoScanPrune — the spread is what
// skip-and-seek generation saves. The steady sub-benchmark reuses prepared
// state over rewinding SectionSet iterators (pruned_steady in the bench
// JSON pins it to zero allocations).
func BenchmarkPrunedQuery(b *testing.B) {
	cfg := benchConfig()
	_, sum := mustBuild(b, cfg)
	db := Regen(sum, 0)
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity >= 20 AND ss_quantity < 22"
	opts := ExecOptions{NoSummaryAgg: true}
	b.Run("baseline", func(b *testing.B) {
		ref := opts
		ref.NoScanPrune = true
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql, ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, sql, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		prep, err := Prepare(db, sql, opts)
		if err != nil {
			b.Fatal(err)
		}
		var st ExecState
		res, err := prep.ExecuteIn(&st, opts)
		if err != nil {
			b.Fatal(err)
		}
		if prunedRows(res.Root) == 0 {
			b.Fatal("benchmark query did not prune")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.ExecuteIn(&st, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
