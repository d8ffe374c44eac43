package hydra

// Cross-front parity for predicate pushdown into generation (scan pruning):
// every execution front — batched, row-at-a-time, morsel-parallel at several
// worker counts, prepared one-shot, prepared state-reusing, and the public
// Query facade — must return results byte-identical to the NoScanPrune
// reference, which generates every tuple and filters afterward. The suite
// sweeps selectivities from 0% to 100% (including boundary-straddling and
// mid-cycle windows, primary-key position restrictions, and a residual
// two-column conjunction), on the toy and TPC-DS-like workloads, and asserts
// that pruning actually fires where it must — guarding against a regression
// that silently scans unpruned while parity keeps passing.

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

// pruneProbe is one sweep point: a query plus whether its predicate must
// provably remove tuples on the seed-42 toy summary.
type pruneProbe struct {
	sql       string
	wantPrune bool
}

// toyPruneProbes sweeps selectivity on the toy schema: s has 500 rows with
// a ∈ [0,100) and b ∈ [0,1000), r has 10000 rows keyed 0..9999, t has 100
// rows with c ∈ [0,10).
var toyPruneProbes = []pruneProbe{
	// 0%: the whole table is provably dead; every summary row is skipped.
	{"SELECT * FROM s WHERE s.a >= 1000", true},
	{"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 1000", true},
	// ~0.1%: a primary-key window restricts positions directly — ten of
	// r's ten thousand tuples survive, everything else is never generated.
	{"SELECT * FROM r WHERE r.r_pk >= 5000 AND r.r_pk < 5010", true},
	{"SELECT * FROM s WHERE s.s_pk >= 100 AND s.s_pk < 101", true},
	// ~1%: a single-point window mid-cycle on a cycling column.
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 21", true},
	{"SELECT s.b FROM s WHERE s.b >= 495 AND s.b < 500 ORDER BY s.b", true},
	// Low-selectivity filtered join and sort — the tentpole's target shape.
	{"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 22", true},
	{"SELECT * FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 22 ORDER BY s.b DESC LIMIT 5", true},
	// ~50%: boundary-straddling windows (capture boundaries sit at 20/40/60).
	{"SELECT * FROM s WHERE s.a >= 19 AND s.a < 61", true},
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 60", true},
	// Mid-cycle two-point window.
	{"SELECT * FROM s WHERE s.a >= 40 AND s.a < 42", true},
	// Residual conjunction: two independently restricted cycling columns —
	// the first drives position generation, the filter re-checks the second.
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 60 AND s.b >= 100 AND s.b < 900", true},
	// 100%: nothing is pruned, but the filter is still provably absorbable.
	{"SELECT * FROM s WHERE s.a >= 0", false},
	{"SELECT * FROM s WHERE s.b >= 0 AND s.b < 1000000", false},
}

// prunedRows sums the scan nodes' prune accounting across an executed tree.
func prunedRows(n *engine.ExecNode) int64 {
	total := n.RowsPruned
	for _, c := range n.Children {
		total += prunedRows(c)
	}
	return total
}

// pruneFronts runs sql through all execution fronts with pruning enabled
// and compares each against the NoScanPrune reference (which must also skip
// the summary-direct path — the regenerating pipeline is the thing under
// test on both sides). Returns the pruned-row count Execute observed.
func pruneFronts(t *testing.T, db *Database, sql string) int64 {
	t.Helper()
	defer parallel.AtLeastProcs(8)()
	opts := ExecOptions{SampleLimit: 8, NoSummaryAgg: true}
	refOpts := opts
	refOpts.NoScanPrune = true
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
	for _, w := range []int{1, 4, 8} {
		par := opts
		par.Parallelism = w
		res, err = engine.Execute(db, plan, par)
		switch w {
		case 1:
			exec("Execute/w1", res, err)
		case 4:
			exec("Execute/w4", res, err)
		default:
			exec("Execute/w8", res, err)
		}
	}
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
		checkPruneParity(t, sql, "Prepared.ExecuteIn", res, want)
	}
	res, err = Query(db, sql, opts)
	exec("Query", res, err)

	pruned := prunedRows(results["Execute"].Root)
	for front, res := range results {
		checkPruneParity(t, sql, front, res, want)
		// Pruning is a pure function of summary and predicate, so every
		// front must observe the identical pruned-row count.
		if got := prunedRows(res.Root); got != pruned {
			t.Errorf("%s: front %s pruned %d rows, Execute pruned %d", sql, front, got, pruned)
		}
	}
	if got := prunedRows(want.Root); got != 0 {
		t.Errorf("%s: NoScanPrune reference reports %d pruned rows", sql, got)
	}
	return pruned
}

func checkPruneParity(t *testing.T, sql, front string, got, want *ExecResult) {
	t.Helper()
	if got.Rows != want.Rows || got.Count != want.Count {
		t.Fatalf("%s [%s]: rows/count = %d/%d, want %d/%d",
			sql, front, got.Rows, got.Count, want.Rows, want.Count)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("%s [%s]: samples differ:\n got %v\nwant %v", sql, front, got.Sample, want.Sample)
	}
}

func TestScanPruneParityToy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, probe := range toyPruneProbes {
		pruned := pruneFronts(t, db, probe.sql)
		if probe.wantPrune && pruned == 0 {
			t.Errorf("%s: expected pruning to fire, scanned unpruned", probe.sql)
		}
	}
	// The captured workloads ride along: parity must hold on every query the
	// summary was built for, whether or not its filters prune.
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	firing := int64(0)
	for _, sql := range queries {
		firing += pruneFronts(t, db, sql)
	}
	if firing == 0 {
		t.Fatal("scan pruning fired on no workload query; the pruned path has regressed")
	}
}

func TestScanPruneParityTPCDS(t *testing.T) {
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
	firing := int64(0)
	all := append(append(queries, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range all {
		firing += pruneFronts(t, regen, sql)
	}
	if firing == 0 {
		t.Fatal("scan pruning fired on no TPC-DS query; the pruned path has regressed")
	}
}
