package hydra

// End-to-end parity of morsel-driven parallel execution: over the toy and
// TPC-DS-like workloads, dataless parallel execution must return results
// byte-identical to the sequential batched executor — same rows, counts,
// samples, and per-operator cardinalities — at every worker count. This is
// the acceptance contract that lets Execute fan out behind
// ExecOptions.Parallelism without perturbing a single annotated plan.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// checkParallelParity builds a summary from the package, then runs every
// workload query datalessly with the sequential executor and with the
// parallel executor at 1, 2, 4, and 8 workers, requiring identical
// results. Small batch sizes force many small morsels through every
// operator.
func checkParallelParity(t *testing.T, pkg *TransferPackage, queries []string) {
	t.Helper()
	defer parallel.AtLeastProcs(8)()
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := Regen(sum, 0)
	for _, size := range []int{0, 3} {
		opts := engine.ExecOptions{SampleLimit: 5, BatchSize: size}
		for _, sql := range queries {
			want := execWith(t, regen, sql, opts, engine.Execute)
			for _, workers := range []int{1, 2, 4, 8} {
				popts := opts
				popts.Parallelism = workers
				got := execWith(t, regen, sql, popts, engine.Execute)
				sameResult(t, fmt.Sprintf("%s [batch=%d workers=%d]", sql, size, workers), got, want)
			}
		}
	}
}

func TestParallelParityToyWorkload(t *testing.T) {
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	// Grouped aggregation, ORDER BY, LIMIT, and DISTINCT all run per-worker
	// partial states merged deterministically; parity at every worker count
	// pins that.
	queries := append(toy.Workload(), toy.GroupWorkload()...)
	checkParallelParity(t, pkg, append(queries, toy.SortWorkload()...))
}

func TestParallelParityTPCDSWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload parity")
	}
	s := tpcds.Schema(0.25)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.Workload(40, 11)
	pkg, err := core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	extra := append(tpcds.GroupWorkload(), tpcds.SortWorkload()...)
	checkParallelParity(t, pkg, append(queries, extra...))
}

// TestParallelParityVelocityFallback pins the paced-stream fallback: a
// velocity-regulated database cannot be partitioned, so parallel execution
// must transparently produce the sequential result.
func TestParallelParityVelocityFallback(t *testing.T) {
	defer parallel.AtLeastProcs(4)()
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	slow := Regen(sum, 1e9) // paced, effectively unthrottled
	fast := Regen(sum, 0)
	sql := toy.Workload()[0]
	// A paced stream cannot prune (it lacks the row-space capability), so the
	// full-speed reference must scan unpruned too for the trees to match.
	opts := engine.ExecOptions{SampleLimit: 5, NoScanPrune: true}
	want := execWith(t, fast, sql, opts, engine.Execute)
	popts := opts
	popts.Parallelism = 4
	got := execWith(t, slow, sql, popts, engine.Execute)
	sameResult(t, sql+" [paced fallback]", got, want)
}
