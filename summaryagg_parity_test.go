package hydra

// Cross-front parity for the summary-direct aggregate fast path: every
// execution front — batched, row-at-a-time, morsel-parallel, prepared
// one-shot, prepared state-reusing, and the public Query facade — must
// return results byte-identical to the regenerating pipeline on the same
// query, whether the summary or the pipeline answered. The suite runs the
// toy and TPC-DS-like workloads plus targeted probes for the arithmetic
// edge cases (boundary-straddling predicates, empty matches, GROUP BY keys
// drawn from cycling sets), and asserts that the fast path actually claims
// a healthy share of eligible queries — guarding against a regression that
// silently falls back everywhere while parity keeps passing.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/sqlkit"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// saggProbes stresses the evaluator's interval arithmetic on the toy
// schema: summary rows built from real captures have boundary values near
// 20/40/60, so the off-by-one windows below straddle set boundaries.
var saggProbes = []string{
	"SELECT COUNT(*) FROM s",
	"SELECT COUNT(*) FROM s WHERE s.a >= 19 AND s.a < 61",
	"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
	"SELECT COUNT(*) FROM s WHERE s.a >= 21 AND s.a < 59",
	"SELECT COUNT(*) FROM s WHERE s.a >= 1000",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.b >= 35 AND s.b < 65",
	"SELECT s.a, COUNT(*) FROM s GROUP BY s.a",
	"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
	"SELECT s.b, COUNT(*), SUM(s.a) FROM s WHERE s.b >= 30 GROUP BY s.b",
	"SELECT DISTINCT s.a FROM s",
	"SELECT DISTINCT s.a FROM s WHERE s.a >= 19 AND s.a < 41",
	"SELECT r.s_fk, COUNT(*) FROM r WHERE r.s_fk < 40 GROUP BY r.s_fk",
	"SELECT COUNT(*), SUM(t.c) FROM t WHERE t.c < 5",
}

// summaryAggFronts runs sql through all six execution fronts with the fast
// path enabled and compares each against the NoSummaryAgg reference.
// Returns whether the fast path answered (it must answer uniformly: all
// fronts or none).
func summaryAggFronts(t *testing.T, db *Database, sql string) bool {
	t.Helper()
	defer parallel.AtLeastProcs(4)()
	opts := ExecOptions{SampleLimit: 8}
	refOpts := opts
	refOpts.NoSummaryAgg = true
	want, err := Query(db, sql, refOpts)
	if err != nil {
		t.Fatalf("%s [reference]: %v", sql, err)
	}

	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	results := map[string]*ExecResult{}
	exec := func(front string, res *ExecResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s [%s]: %v", sql, front, err)
		}
		results[front] = res
	}

	res, err := engine.Execute(db, plan, opts)
	exec("Execute", res, err)
	res, err = engine.ExecuteRows(db, plan, opts)
	exec("ExecuteRows", res, err)
	par := opts
	par.Parallelism = 4
	res, err = engine.Execute(db, plan, par)
	exec("Execute/w4", res, err)
	prep, err := Prepare(db, sql, opts)
	if err != nil {
		t.Fatalf("%s [Prepare]: %v", sql, err)
	}
	res, err = prep.Execute(opts)
	exec("Prepared.Execute", res, err)
	var st ExecState
	for round := 0; round < 3; round++ {
		res, err = prep.ExecuteIn(&st, opts)
		exec("Prepared.ExecuteIn", res, err)
		checkSummaryParity(t, sql, "Prepared.ExecuteIn", res, want)
	}
	res, err = Query(db, sql, opts)
	exec("Query", res, err)

	fast := results["Execute"].Path == engine.PathSummary
	for front, res := range results {
		checkSummaryParity(t, sql, front, res, want)
		if got := res.Path == engine.PathSummary; got != fast {
			t.Errorf("%s: front %s path %q disagrees with Execute (fast=%v)", sql, front, res.Path, fast)
		}
	}
	return fast
}

func checkSummaryParity(t *testing.T, sql, front string, got, want *ExecResult) {
	t.Helper()
	if got.Rows != want.Rows || got.Count != want.Count {
		t.Fatalf("%s [%s]: rows/count = %d/%d, want %d/%d",
			sql, front, got.Rows, got.Count, want.Rows, want.Count)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("%s [%s]: samples differ:\n got %v\nwant %v", sql, front, got.Sample, want.Sample)
	}
	if got.Approx != nil {
		t.Fatalf("%s [%s]: exact execution carries approx info %+v", sql, front, got.Approx)
	}
}

func TestSummaryAggParityToy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	fast := 0
	for _, sql := range append(queries, saggProbes...) {
		if summaryAggFronts(t, db, sql) {
			fast++
		}
	}
	// Eligibility is a property of the workload, so pin a floor rather than
	// an exact count: the probes alone contribute 14 eligible queries.
	if fast < 14 {
		t.Fatalf("summary-direct path answered only %d queries; the fast path has regressed", fast)
	}
}

func TestSummaryAggParityTPCDS(t *testing.T) {
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
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := core.RegenDatabase(sum, 0)
	fast := 0
	all := append(append(queries, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range all {
		if summaryAggFronts(t, regen, sql) {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("summary-direct path answered no TPC-DS queries; the fast path has regressed")
	}
}
