package hydra

// Query-level tracing contracts: the span tree a traced execution returns
// must mirror the plan's shape with identical per-operator cardinalities on
// every execution front — sequential columnar, row-pivot, morsel-parallel
// at 1..8 workers, and prepared execution fresh and state-reusing — and
// tracing must not change any answer. The traced steady state shares the
// zero-allocation contract: spans are preallocated at Prepare time and
// recycled by Reset, so ExecuteIn with Trace on allocates nothing after
// warmup.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/sqlkit"
	"repro/internal/toy"
	"repro/internal/trace"
)

// spanShape flattens a span tree into a preorder signature of per-operator
// identity and cardinality — the part of a trace that must be invariant
// across execution fronts (timings are not).
func spanShape(sp *TraceSpan) []string {
	var out []string
	var walk func(sp *TraceSpan, depth int)
	walk = func(sp *TraceSpan, depth int) {
		out = append(out, fmt.Sprintf("%d:%s:%s:rows=%d:detached=%v:children=%d",
			depth, sp.Op, sp.Detail, sp.Rows, sp.Detached, len(sp.Children)))
		for _, ch := range sp.Children {
			walk(ch, depth+1)
		}
	}
	walk(sp, 0)
	return out
}

// checkSpanMirrorsPlan walks span and plan trees in lockstep: same shape,
// same ops, and span rows equal to the ExecNode's observed cardinality.
func checkSpanMirrorsPlan(t *testing.T, label string, sp *TraceSpan, node *ExecNode) {
	t.Helper()
	if sp == nil || node == nil {
		t.Fatalf("%s: trace/plan missing: span=%v node=%v", label, sp, node)
	}
	if sp.Op != node.Op {
		t.Fatalf("%s: span op %q, plan op %q", label, sp.Op, node.Op)
	}
	if sp.Rows != node.OutRows {
		t.Fatalf("%s: %s span rows %d, plan out_rows %d", label, sp.Op, sp.Rows, node.OutRows)
	}
	if len(sp.Children) != len(node.Children) {
		t.Fatalf("%s: %s span has %d children, plan %d", label, sp.Op, len(sp.Children), len(node.Children))
	}
	for i := range sp.Children {
		checkSpanMirrorsPlan(t, label, sp.Children[i], node.Children[i])
	}
}

// TestTraceSpanParityAcrossFronts executes every toy workload query traced
// on all five fronts and holds each front's span tree to the sequential
// reference: identical preorder shape, ops, details, cardinalities, and
// detached markers, with the answer itself unchanged by tracing.
func TestTraceSpanParityAcrossFronts(t *testing.T) {
	defer parallel.AtLeastProcs(8)()
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	for _, sql := range queries {
		untraced, err := Query(db, sql, ExecOptions{SampleLimit: 4})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if untraced.Trace != nil {
			t.Fatalf("%s: untraced execution grew a span tree", sql)
		}

		ref, err := Query(db, sql, ExecOptions{SampleLimit: 4, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if ref.Trace == nil {
			t.Fatalf("%s: traced execution returned no span tree", sql)
		}
		if ref.Rows != untraced.Rows || ref.Count != untraced.Count {
			t.Fatalf("%s: tracing changed the answer: %d/%d vs %d/%d",
				sql, ref.Rows, ref.Count, untraced.Rows, untraced.Count)
		}
		checkSpanMirrorsPlan(t, sql+" [seq]", ref.Trace, ref.Root)
		if ref.Trace.DurNS < 0 || ref.Trace.StopNS < ref.Trace.StartNS {
			t.Fatalf("%s: root span window corrupt: %+v", sql, ref.Trace)
		}
		refShape := spanShape(ref.Trace)

		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatal(err)
		}

		fronts := []struct {
			name string
			run  func() (*ExecResult, error)
		}{
			{"rows", func() (*ExecResult, error) {
				return engine.ExecuteRows(db, plan, ExecOptions{SampleLimit: 4, Trace: true})
			}},
			{"parallel_w1", func() (*ExecResult, error) {
				return engine.Execute(db, plan, ExecOptions{SampleLimit: 4, Trace: true, Parallelism: 1})
			}},
			{"parallel_w4", func() (*ExecResult, error) {
				return engine.Execute(db, plan, ExecOptions{SampleLimit: 4, Trace: true, Parallelism: 4})
			}},
			{"parallel_w8", func() (*ExecResult, error) {
				return engine.Execute(db, plan, ExecOptions{SampleLimit: 4, Trace: true, Parallelism: 8})
			}},
			{"prepared", func() (*ExecResult, error) {
				prep, err := engine.Prepare(db, plan, ExecOptions{})
				if err != nil {
					return nil, err
				}
				return prep.ExecuteContext(t.Context(), ExecOptions{SampleLimit: 4, Trace: true})
			}},
			{"prepared_in", func() (*ExecResult, error) {
				prep, err := engine.Prepare(db, plan, ExecOptions{})
				if err != nil {
					return nil, err
				}
				var st ExecState
				// Three rounds on one state: the recycled span arena must
				// report single-execution counters each time, not accumulate.
				var res *ExecResult
				for i := 0; i < 3; i++ {
					if res, err = prep.ExecuteIn(&st, ExecOptions{SampleLimit: 4, Trace: true}); err != nil {
						return nil, err
					}
				}
				return res, nil
			}},
		}
		for _, fr := range fronts {
			res, err := fr.run()
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, fr.name, err)
			}
			if res.Rows != ref.Rows || res.Count != ref.Count {
				t.Fatalf("%s [%s]: answer drifted: %d/%d, want %d/%d",
					sql, fr.name, res.Rows, res.Count, ref.Rows, ref.Count)
			}
			if res.Trace == nil {
				t.Fatalf("%s [%s]: no span tree", sql, fr.name)
			}
			got := spanShape(res.Trace)
			if len(got) != len(refShape) {
				t.Fatalf("%s [%s]: span tree has %d nodes, reference %d:\n%v\nvs\n%v",
					sql, fr.name, len(got), len(refShape), got, refShape)
			}
			for i := range got {
				if got[i] != refShape[i] {
					t.Fatalf("%s [%s]: span[%d] = %s, reference %s", sql, fr.name, i, got[i], refShape[i])
				}
			}
		}
	}
}

// TestSteadyStateZeroAllocTraced extends the zero-allocation audit to
// tracing: ExecuteIn with Trace on recycles the span arena (Reset, not
// reallocation), so the steady state allocates nothing on the count,
// grouped, and sorted shapes alike — the structural half of the E16 <3%
// overhead claim.
func TestSteadyStateZeroAllocTraced(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
		"SELECT * FROM s WHERE s.a < 60 ORDER BY s.b DESC LIMIT 10 OFFSET 2",
	} {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: traced ExecuteIn returned no span tree", sql)
		}
		wantRows, wantSpanRows := res.Rows, res.Trace.Rows
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, ExecOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != wantRows || res.Trace.Rows != wantSpanRows {
				t.Fatalf("traced steady state drifted: rows %d span %d, want %d/%d",
					res.Rows, res.Trace.Rows, wantRows, wantSpanRows)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: traced steady state allocates %.2f objects per query, want 0", sql, allocs)
		}
	}
}

// scrubTimings replaces the run-dependent fields of a rendered trace —
// every time=, self=, and build= value — with X, leaving structure, ops,
// cardinalities, and selectivities for the golden comparison.
func scrubTimings(s string) string {
	re := regexp.MustCompile(`(time|self|build)=[^ )]+`)
	return re.ReplaceAllString(s, "$1=X")
}

// TestExplainAnalyzeGolden pins the rendered EXPLAIN ANALYZE output for a
// join query on the toy database: tree drawing, operator details, observed
// cardinalities, selectivities, and the detached build-side marker, with
// only the timing values scrubbed.
func TestExplainAnalyzeGolden(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	res, err := Query(db, "EXPLAIN ANALYZE "+toy.Query, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no span tree")
	}
	got := scrubTimings(RenderTrace(res.Trace))
	want := strings.TrimPrefix(explainGolden, "\n")
	if got != want {
		t.Fatalf("EXPLAIN ANALYZE render drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeSummaryAggGolden pins the rendered EXPLAIN ANALYZE
// output when the summary-direct fast path answers: a single SUMMARY AGG
// span naming the table and how many summary rows the evaluator walked,
// with the one output row it produced.
func TestExplainAnalyzeSummaryAggGolden(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	res, err := Query(db, "EXPLAIN ANALYZE SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != engine.PathSummary {
		t.Fatalf("explain query took path %q, want the summary-direct path", res.Path)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}
	got := scrubTimings(RenderTrace(res.Trace))
	want := "SUMMARY AGG s [5 summary rows]  (time=X self=X rows=1 batches=1 bytes=8)\n"
	if got != want {
		t.Fatalf("summary-direct EXPLAIN ANALYZE render drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderTraceParallelShape pins that the parallel front renders the
// same tree shape (ops and cardinalities) as sequential execution — the
// mode-invariance the span merge exists for.
func TestRenderTraceParallelShape(t *testing.T) {
	defer parallel.AtLeastProcs(4)()
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	q, err := sqlkit.Parse(toy.Query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := engine.Execute(db, plan, ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.Execute(db, plan, ExecOptions{Trace: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Batch counts are mode-dependent (morsel boundaries chunk the same rows
	// differently), so the cross-front comparison scrubs them alongside the
	// timings; rows, bytes, and selectivity must agree exactly.
	batchRE := regexp.MustCompile(`batches=\d+`)
	scrub := func(sp *trace.Span) string {
		return batchRE.ReplaceAllString(scrubTimings(trace.Render(sp)), "batches=N")
	}
	if scrub(seq.Trace) != scrub(par.Trace) {
		t.Fatalf("parallel render diverged from sequential:\n%s\nvs\n%s",
			scrub(par.Trace), scrub(seq.Trace))
	}
}

// explainGolden is the scrubbed EXPLAIN ANALYZE rendering of toy.Query on
// the seed-42 toy summary. Regenerate by running this test with -v after an
// intentional render change and copying the "got" block. Both single-table
// filters are fully absorbed by scan pruning: the scans iterate only the
// qualifying row-space and report what generation never materialized.
const explainGolden = `
HASH JOIN r.t_fk = t.t_pk  (time=X self=X rows=531 batches=1 build=X sel=13.5%)
├── HASH JOIN r.s_fk = s.s_pk  (time=X self=X rows=3924 batches=4 bytes=31392 build=X sel=38.5%)
│   ├── SCAN r  (time=X self=X rows=10000 batches=10 bytes=160000)
│   └── SCAN s [pruned 305 rows, skipped 3 summary rows]  (time=X self=X rows=195 batches=1 bytes=1560 detached)
└── SCAN t [pruned 86 rows, skipped 2 summary rows]  (time=X self=X rows=14 batches=1 bytes=112 detached)
`
