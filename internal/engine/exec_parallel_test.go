package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sqlkit"
)

// bigStarDatabase stores enough fact rows that small batch sizes split the
// scan into many morsels across workers.
func bigStarDatabase(t *testing.T, factRows int) *Database {
	t.Helper()
	s := starSchema()
	s.Table("fact").RowCount = int64(factRows)
	s.Table("fact").Columns[0].DomainHi = int64(factRows)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	dim := &Relation{Table: s.Table("dim")}
	for _, row := range [][]int64{{0, 10}, {1, 20}, {2, 30}, {3, 40}} {
		if err := dim.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	fact := &Relation{Table: s.Table("fact")}
	for i := 0; i < factRows; i++ {
		if err := fact.Append([]int64{int64(i), int64(i % 4), int64(i % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddRelation(dim); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(fact); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPlan(t *testing.T, db *Database, sql string) *Plan {
	t.Helper()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return plan
}

func requireIdentical(t *testing.T, label string, got, want *ExecResult) {
	t.Helper()
	if got.Rows != want.Rows || got.Count != want.Count {
		t.Fatalf("%s: rows/count = %d/%d, want %d/%d", label, got.Rows, got.Count, want.Rows, want.Count)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("%s: samples differ:\n got %v\nwant %v", label, got.Sample, want.Sample)
	}
	if !reflect.DeepEqual(got.Root, want.Root) {
		t.Fatalf("%s: exec trees differ:\n got %+v\nwant %+v", label, got.Root, want.Root)
	}
}

// parallelQueries covers every spine shape: bare scan, filtered scan,
// join, filtered join, and COUNT(*) variants of each.
var parallelQueries = []string{
	"SELECT * FROM fact",
	"SELECT COUNT(*) FROM fact",
	"SELECT * FROM fact WHERE q >= 3",
	"SELECT COUNT(*) FROM fact WHERE q >= 3",
	"SELECT * FROM fact, dim WHERE d_fk = d_pk",
	"SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND a >= 20 AND q < 7",
	"SELECT COUNT(*) FROM fact WHERE q >= 100", // empty result
	// Grouped spines: partial aggregation per worker, deterministic merge.
	"SELECT d_fk, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact GROUP BY d_fk",
	"SELECT a, COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND q < 7 GROUP BY a",
	"SELECT COUNT(q), SUM(q) FROM fact",
	"SELECT d_fk, SUM(q) FROM fact WHERE q >= 100 GROUP BY d_fk", // empty input
	// Sink stacks over the spine: per-worker sort partials (full and
	// top-K), morsel-ordered LIMIT runs, distinct partials, and their
	// compositions — all byte-identical to sequential at any worker count.
	"SELECT * FROM fact ORDER BY q DESC",
	"SELECT * FROM fact, dim WHERE d_fk = d_pk ORDER BY a DESC, q",
	"SELECT * FROM fact ORDER BY q DESC LIMIT 7 OFFSET 2",
	"SELECT * FROM fact LIMIT 9",
	"SELECT * FROM fact WHERE q >= 3 LIMIT 11 OFFSET 5",
	"SELECT * FROM fact LIMIT 5 OFFSET 100000", // offset past end
	"SELECT * FROM fact LIMIT 0",
	"SELECT COUNT(*) FROM fact LIMIT 1",
	"SELECT DISTINCT q FROM fact",
	"SELECT DISTINCT d_fk, q FROM fact WHERE q >= 3",
	"SELECT DISTINCT q FROM fact ORDER BY q DESC LIMIT 3",
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC LIMIT 2 OFFSET 1",
}

// TestExecuteParallelStoredParity holds morsel-parallel execution over
// stored relations to byte-identical results vs the sequential batched
// executor, across worker counts (including oversubscription) and batch
// sizes that force many small morsels.
func TestExecuteParallelStoredParity(t *testing.T) {
	defer parallel.AtLeastProcs(8)()
	db := bigStarDatabase(t, 5000)
	for _, sql := range parallelQueries {
		plan := mustPlan(t, db, sql)
		for _, size := range []int{0, 3, 64} {
			seqOpts := ExecOptions{SampleLimit: 7, BatchSize: size}
			want, err := Execute(db, plan, seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				opts := seqOpts
				opts.Parallelism = w
				got, err := Execute(db, plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("%s [batch=%d workers=%d]", sql, size, w), got, want)
			}
		}
	}
}

// TestExecuteParallelFallback routes plans whose scan source cannot be
// partitioned (a caller-supplied datagen closure) through the sequential
// path with identical results — and without invoking the DatagenFunc a
// second time (its contract is one invocation per scan).
func TestExecuteParallelFallback(t *testing.T) {
	defer parallel.AtLeastProcs(4)()
	db := bigStarDatabase(t, 200)
	rows := db.Relation("fact").Rows
	var opened int
	db.SetDatagen("fact", func() (RowSource, error) {
		opened++
		return &sliceOpaque{rows: rows}, nil
	})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM fact WHERE q >= 3",
		"SELECT * FROM fact",
		// Sink plans fall back the same way: the already-open tree, sink
		// stack included, runs sequentially.
		"SELECT * FROM fact ORDER BY q DESC LIMIT 3",
		"SELECT DISTINCT q FROM fact",
	} {
		plan := mustPlan(t, db, sql)
		want, err := Execute(db, plan, ExecOptions{SampleLimit: 5})
		if err != nil {
			t.Fatal(err)
		}
		opened = 0
		got, err := Execute(db, plan, ExecOptions{SampleLimit: 5, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, sql+" [fallback]", got, want)
		if opened != 1 {
			t.Fatalf("%s: fallback invoked the datagen func %d times, want 1", sql, opened)
		}
	}
}

// sliceOpaque is a row source that deliberately hides any batch or
// partition capability.
type sliceOpaque struct {
	rows [][]int64
	i    int
}

func (s *sliceOpaque) Next() ([]int64, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

func TestExecOptionsValidation(t *testing.T) {
	db := starDatabase(t)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact")
	for _, exec := range []struct {
		name string
		f    func(*Database, *Plan, ExecOptions) (*ExecResult, error)
	}{
		{"Execute", Execute},
		{"ExecuteRows", ExecuteRows},
	} {
		_, err := exec.f(db, plan, ExecOptions{BatchSize: -1})
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: BatchSize -1 returned %v, want ErrInvalidOptions", exec.name, err)
		}
	}
}

func TestExecOptionsNormalizeClampsParallelism(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		in, want int
	}{
		{-5, 0},
		{0, 0},
		{max, max},
		{max + 7, max},
	}
	for _, tc := range cases {
		got, err := (ExecOptions{Parallelism: tc.in}).Normalize()
		if err != nil {
			t.Fatalf("Parallelism %d: %v", tc.in, err)
		}
		if got.Parallelism != tc.want {
			t.Fatalf("Parallelism %d normalized to %d, want %d", tc.in, got.Parallelism, tc.want)
		}
	}
	if _, err := (ExecOptions{BatchSize: -3}).Normalize(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Normalize(BatchSize -3) = %v, want ErrInvalidOptions", err)
	}
}

// TestExecuteDispatchesOnParallelism checks the wiring: Execute with
// Parallelism >= 1 must produce the same result object shape as the
// sequential default (a smoke check that the dispatch itself is sound).
func TestExecuteDispatchesOnParallelism(t *testing.T) {
	db := bigStarDatabase(t, 1000)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND q >= 2")
	want, err := Execute(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(db, plan, ExecOptions{Parallelism: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "dispatch", got, want)
}
