package engine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/schema"
	"repro/internal/sqlkit"
)

// execGrouped runs sql through the default (columnar) executor with a
// sample large enough to materialize every group row.
func execGrouped(t *testing.T, db *Database, sql string) *ExecResult {
	t.Helper()
	res, err := Execute(db, mustPlan(t, db, sql), ExecOptions{SampleLimit: 100})
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// TestGroupAggHandComputed pins grouped results against hand-computed
// answers on the fully understood star database (fact q values by d_fk:
// 0→{1,2}, 1→{3}, 2→{4}, 3→{5,6}).
func TestGroupAggHandComputed(t *testing.T) {
	db := starDatabase(t)

	res := execGrouped(t, db, "SELECT d_fk, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact GROUP BY d_fk")
	want := [][]int64{
		{0, 2, 3, 1, 2, 1},
		{1, 1, 3, 3, 3, 3},
		{2, 1, 4, 4, 4, 4},
		{3, 2, 11, 5, 6, 5},
	}
	if res.Rows != int64(len(want)) || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("grouped rows = %d %v, want %v", res.Rows, res.Sample, want)
	}
	if res.Root.Op != "GROUP AGG" || res.Root.OutRows != int64(len(want)) {
		t.Fatalf("root node = %+v", res.Root)
	}

	// Global aggregate: one row, even though COUNT(*) appears alongside
	// other aggregates. AVG truncates the exact quotient (21/6 = 3).
	res = execGrouped(t, db, "SELECT COUNT(*), SUM(q), AVG(q) FROM fact")
	if res.Rows != 1 || !reflect.DeepEqual(res.Sample, [][]int64{{6, 21, 3}}) {
		t.Fatalf("global aggregate = %d %v", res.Rows, res.Sample)
	}

	// Aggregates and keys interleaved in select-list order.
	res = execGrouped(t, db, "SELECT AVG(q), d_fk FROM fact GROUP BY d_fk")
	if !reflect.DeepEqual(res.Sample, [][]int64{{1, 0}, {3, 1}, {4, 2}, {5, 3}}) {
		t.Fatalf("interleaved output = %v", res.Sample)
	}

	// Multi-key grouping sorts by the full key tuple.
	res = execGrouped(t, db, "SELECT d_fk, q, COUNT(*) FROM fact GROUP BY d_fk, q")
	if res.Rows != 6 || res.Sample[0][0] != 0 || res.Sample[0][1] != 1 {
		t.Fatalf("multi-key output = %v", res.Sample)
	}
}

// TestGroupAggEmptyInput pins the empty-input contracts: a grouped query
// over zero rows produces zero groups; a global aggregate still produces
// its one row with COUNT 0 and zero-valued aggregates.
func TestGroupAggEmptyInput(t *testing.T) {
	db := starDatabase(t)

	res := execGrouped(t, db, "SELECT d_fk, SUM(q) FROM fact WHERE q >= 100 GROUP BY d_fk")
	if res.Rows != 0 || len(res.Sample) != 0 {
		t.Fatalf("grouped over empty input: rows=%d sample=%v", res.Rows, res.Sample)
	}

	res = execGrouped(t, db, "SELECT COUNT(q), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact WHERE q >= 100")
	if res.Rows != 1 || !reflect.DeepEqual(res.Sample, [][]int64{{0, 0, 0, 0, 0}}) {
		t.Fatalf("global over empty input: rows=%d sample=%v", res.Rows, res.Sample)
	}
}

// TestGroupAggAvgTruncation pins AVG's finalization: the exact int64 sum
// divided by the count with Go's truncation toward zero, including for
// negative sums.
func TestGroupAggAvgTruncation(t *testing.T) {
	db := valueDatabase(t, [][]int64{{0, 3}, {0, 4}, {1, -1}, {1, -2}})
	res := execGrouped(t, db, "SELECT k, AVG(v) FROM vals GROUP BY k")
	// 7/2 truncates to 3; -3/2 truncates toward zero to -1.
	if !reflect.DeepEqual(res.Sample, [][]int64{{0, 3}, {1, -1}}) {
		t.Fatalf("AVG truncation = %v", res.Sample)
	}
}

// TestGroupAggOverflow: SUM (and AVG's sum) must detect int64 overflow and
// fail the query on every execution path, never wrap.
func TestGroupAggOverflow(t *testing.T) {
	defer parallel.AtLeastProcs(2)()
	db := valueDatabase(t, [][]int64{{0, math.MaxInt64}, {0, 1}})
	const sql = "SELECT k, SUM(v) FROM vals GROUP BY k"
	plan := mustPlan(t, db, sql)

	for name, f := range map[string]func() (*ExecResult, error){
		"columnar": func() (*ExecResult, error) { return Execute(db, plan, ExecOptions{}) },
		"rows":     func() (*ExecResult, error) { return ExecuteRows(db, plan, ExecOptions{}) },
		"parallel": func() (*ExecResult, error) {
			return Execute(db, plan, ExecOptions{Parallelism: 2})
		},
	} {
		if _, err := f(); !errors.Is(err, ErrAggOverflow) {
			t.Errorf("%s: err = %v, want ErrAggOverflow", name, err)
		}
	}

	prep, err := Prepare(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	if _, err := prep.ExecuteIn(&st, ExecOptions{}); !errors.Is(err, ErrAggOverflow) {
		t.Errorf("ExecuteIn: err = %v, want ErrAggOverflow", err)
	}

	// Negative direction wraps the other way.
	db2 := valueDatabase(t, [][]int64{{0, math.MinInt64}, {0, -1}})
	if _, err := Execute(db2, mustPlan(t, db2, sql), ExecOptions{}); !errors.Is(err, ErrAggOverflow) {
		t.Errorf("negative overflow: err = %v, want ErrAggOverflow", err)
	}

	// AVG shares the sum and therefore the detection.
	if _, err := Execute(db, mustPlan(t, db, "SELECT k, AVG(v) FROM vals GROUP BY k"), ExecOptions{}); !errors.Is(err, ErrAggOverflow) {
		t.Errorf("AVG overflow: err = %v, want ErrAggOverflow", err)
	}
}

// TestGroupAggSumExactCancellation: sums are carried in 128 bits and
// judged on the final total, so a sum whose intermediate prefix (or any
// per-worker partial) exceeds int64 but whose total fits must succeed —
// identically on every path and at every worker count. Running-sum
// detection would fail this sequentially (MaxInt64 + MaxInt64 overflows
// before the negatives arrive) and divergently under partitioning.
func TestGroupAggSumExactCancellation(t *testing.T) {
	defer parallel.AtLeastProcs(8)()
	db := valueDatabase(t, [][]int64{
		{0, math.MaxInt64}, {0, math.MaxInt64}, {0, -math.MaxInt64}, {0, -math.MaxInt64}, {0, 42},
	})
	const sql = "SELECT k, SUM(v), AVG(v) FROM vals GROUP BY k"
	plan := mustPlan(t, db, sql)
	want, err := ExecuteRows(db, plan, ExecOptions{SampleLimit: 10})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !reflect.DeepEqual(want.Sample, [][]int64{{0, 42, 8}}) {
		t.Fatalf("reference sample = %v", want.Sample)
	}
	if got, err := Execute(db, plan, ExecOptions{SampleLimit: 10}); err != nil || !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("columnar = %v, %v", got, err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		got, err := Execute(db, plan, ExecOptions{SampleLimit: 10, Parallelism: w, BatchSize: 1})
		if err != nil || !reflect.DeepEqual(got.Sample, want.Sample) {
			t.Fatalf("parallel w=%d = %v, %v", w, got, err)
		}
	}
}

// TestGroupAggPlanErrors: ungrouped bare columns and unknown references are
// planning errors.
func TestGroupAggPlanErrors(t *testing.T) {
	db := starDatabase(t)
	for _, sql := range []string{
		"SELECT q, COUNT(*) FROM fact GROUP BY d_fk", // q not a grouping key
		"SELECT nope, COUNT(*) FROM fact GROUP BY nope",
		"SELECT d_fk, SUM(nope) FROM fact GROUP BY d_fk",
		"SELECT d_fk, COUNT(*) FROM fact GROUP BY dim.a", // table not in FROM
	} {
		if _, err := buildPlanErr(db, sql); err == nil {
			t.Errorf("plan %q succeeded, want error", sql)
		}
	}
}

// TestGroupAggStateRecycling: a recycled state (ExecuteIn's steady path)
// reproduces the first execution's groups exactly after reset.
func TestGroupAggStateRecycling(t *testing.T) {
	db := starDatabase(t)
	const sql = "SELECT d_fk, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact GROUP BY d_fk"
	prep, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := execGrouped(t, db, sql)
	var st ExecState
	for round := 0; round < 4; round++ {
		got, err := prep.ExecuteIn(&st, ExecOptions{SampleLimit: 100})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Rows != want.Rows || !reflect.DeepEqual(got.Sample, want.Sample) {
			t.Fatalf("round %d: %d %v, want %d %v", round, got.Rows, got.Sample, want.Rows, want.Sample)
		}
	}
}

// buildPlanErr parses sql (which must parse) and returns BuildPlan's error.
func buildPlanErr(db *Database, sql string) (*Plan, error) {
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return nil, err
	}
	return BuildPlan(db.Schema, q)
}

// valueDatabase builds a one-table database vals(k, v) with the given rows
// (arbitrary int64 v values, outside any declared domain — stored execution
// never consults domains).
func valueDatabase(t *testing.T, rows [][]int64) *Database {
	t.Helper()
	s := &schema.Schema{Tables: []*schema.Table{{
		Name:     "vals",
		RowCount: int64(len(rows)),
		Columns: []*schema.Column{
			{Name: "k", Type: schema.Int, DomainLo: 0, DomainHi: 10},
			{Name: "v", Type: schema.Int, DomainLo: math.MinInt64, DomainHi: math.MaxInt64},
		},
	}}}
	db := NewDatabase(s)
	rel := &Relation{Table: s.Table("vals")}
	for _, row := range rows {
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	return db
}
