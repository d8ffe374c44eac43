package hydra

// One meaning for a summary row, checked end to end: a summary either
// fails the canonical boundary (summary.DecodeJSON + Validate, and
// engine.Database.SetSummary) or every execution front answers it
// identically — regeneration without pruning, pruned scans, summary-direct
// aggregation, morsel-parallel execution at 1–4 workers, paced
// regeneration, and the materialized database. The regression cases are
// the two counterexamples that once split the fronts (a non-canonical
// cycling set, and an unspecced column read from a reused batch), plus the
// other shapes the boundary now rejects; FuzzSummaryPaths generalizes them
// to random small summaries and random conjunctive/aggregate queries.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/summary"
	"repro/internal/value"
)

// pathsSchema is one table m(pk, a, b, c) with an auto-numbered key.
func pathsSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{{
		Name:     "m",
		RowCount: 1,
		Columns: []*schema.Column{
			{Name: "pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 1 << 20},
			{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 32},
			{Name: "b", Type: schema.Int, DomainLo: 0, DomainHi: 32},
			{Name: "c", Type: schema.Int, DomainLo: 0, DomainHi: 8},
		},
	}}}
}

// pathsSummary wraps rows into a summary of m whose Total is the rows' sum.
func pathsSummary(rows ...summary.Row) *Summary {
	var total int64
	for _, r := range rows {
		total += r.Count
	}
	return &Summary{
		Schema:    pathsSchema(),
		Relations: map[string]*summary.Relation{"m": {Table: "m", Total: total, Rows: rows}},
	}
}

// frontResult is the comparable part of one front's answer.
type frontResult struct {
	Rows   int64
	Count  int64
	Sample [][]int64
	Err    string
}

func (r frontResult) String() string {
	if r.Err != "" {
		return "error: " + r.Err
	}
	return fmt.Sprintf("rows=%d count=%d sample=%v", r.Rows, r.Count, r.Sample)
}

// pathFront is one execution front over a summary.
type pathFront struct {
	name string
	db   *Database
	opts ExecOptions
}

// summaryFronts opens every execution front over sum at the given batch
// size. The first front is the reference: full regeneration with pruning
// and summary-direct disabled.
func summaryFronts(t testing.TB, sum *Summary, batchSize int) []pathFront {
	t.Helper()
	regen := Regen(sum, 0)
	mat, err := Materialize(sum)
	if err != nil {
		t.Fatal(err)
	}
	// A rate fast enough not to slow the test still routes every scan
	// through the Paced wrapper (and registers no summary).
	paced := Regen(sum, 1e9)
	base := ExecOptions{SampleLimit: 64, BatchSize: batchSize}
	with := func(f func(*ExecOptions)) ExecOptions {
		o := base
		f(&o)
		return o
	}
	fronts := []pathFront{
		{"unpruned", regen, with(func(o *ExecOptions) { o.NoScanPrune, o.NoSummaryAgg = true, true })},
		{"pruned", regen, with(func(o *ExecOptions) { o.NoSummaryAgg = true })},
		{"summary-direct", regen, base},
		{"paced", paced, base},
		{"materialized", mat, base},
	}
	for w := 1; w <= 4; w++ {
		fronts = append(fronts, pathFront{fmt.Sprintf("parallel-w%d", w), regen, with(func(o *ExecOptions) { o.Parallelism = w })})
	}
	return fronts
}

// runFront executes sql on one front.
func runFront(f pathFront, sql string) frontResult {
	res, err := Query(f.db, sql, f.opts)
	if err != nil {
		return frontResult{Err: err.Error()}
	}
	return frontResult{Rows: res.Rows, Count: res.Count, Sample: res.Sample}
}

// checkFronts runs sql on every front and requires byte-identical answers;
// it returns the reference answer.
func checkFronts(t testing.TB, sum *Summary, batchSize int, sql string) frontResult {
	t.Helper()
	fronts := summaryFronts(t, sum, batchSize)
	want := runFront(fronts[0], sql)
	for _, f := range fronts[1:] {
		if got := runFront(f, sql); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d, %s: %s\n  got  %v\n  want %v (%s)", batchSize, f.name, sql, got, want, fronts[0].name)
		}
	}
	return want
}

// rejectedCase is a summary the canonical boundary refuses, with a query,
// the answer every front must give once the summary is refused (plain
// regeneration), and a fragment the validation error must contain.
type rejectedCase struct {
	name, sql, errHas string
	sum               *Summary
	count             int64
}

func rejectedCases() []rejectedCase {
	return []rejectedCase{
		{
			// The cycled order 10..19, 0..9, 5..7 puts 13 of every 23 tuples
			// below 10; the unsorted, overlapping set once made pruning and
			// summary-direct answer 0.
			name:   "non-canonical set",
			sql:    "SELECT COUNT(*) FROM m WHERE a < 10",
			errHas: "m row 0 col a",
			sum: pathsSummary(summary.Row{Count: 23, Specs: []summary.ColSpec{
				{Col: 1, Set: value.IntervalSet{value.Ival(10, 20), value.Ival(0, 10), value.Ival(5, 8)}},
			}}),
			count: 13,
		},
		{
			name:   "duplicate spec",
			sql:    "SELECT COUNT(*) FROM m WHERE a = 2",
			errHas: "m row 0 col a",
			sum: pathsSummary(summary.Row{Count: 9, Specs: []summary.ColSpec{
				summary.FixedSpec(1, 1), summary.FixedSpec(1, 2),
			}}),
			count: 0,
		},
		{
			name:   "primary-key spec",
			sql:    "SELECT COUNT(*) FROM m WHERE pk >= 3",
			errHas: "m row 0 col pk",
			sum: pathsSummary(summary.Row{Count: 9, Specs: []summary.ColSpec{
				summary.FixedSpec(0, 42), summary.FixedSpec(1, 1),
			}}),
			count: 6,
		},
		{
			// Predicates compile against c's domain [0,8), so the five
			// tuples holding 8 never match.
			name:   "out-of-domain fixed value",
			sql:    "SELECT COUNT(*) FROM m WHERE c >= 0",
			errHas: "m row 1 col c",
			sum: pathsSummary(
				summary.Row{Count: 4, Specs: []summary.ColSpec{summary.FixedSpec(3, 1)}},
				summary.Row{Count: 5, Specs: []summary.ColSpec{summary.FixedSpec(3, 8)}},
			),
			count: 4,
		},
		{
			// The counts wrap to a negative Total, which the generator reads
			// as an empty relation.
			name:   "overflowing count",
			sql:    "SELECT COUNT(*) FROM m",
			errHas: "m row 1",
			sum: func() *Summary {
				s := pathsSummary(summary.Row{Count: math.MaxInt64}, summary.Row{Count: 2})
				s.Relations["m"].Total = math.MinInt64 + 1
				return s
			}(),
			count: 0,
		},
	}
}

// TestCanonicalBoundaryRejects: each non-canonical summary is rejected on
// the serve path (JSON decode + Validate) with an error naming the table,
// row and column, is refused by SetSummary, and is then answered by plain
// regeneration on every front.
func TestCanonicalBoundaryRejects(t *testing.T) {
	for _, tc := range rejectedCases() {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.sum.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := summary.DecodeJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			err = dec.Validate()
			if err == nil {
				t.Fatal("Validate accepted a non-canonical summary")
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("error %q does not name %q", err, tc.errHas)
			}
			db := core.RegenDatabase(tc.sum, 0)
			if err := db.SetSummary("m", tc.sum.Relations["m"]); err == nil {
				t.Fatal("SetSummary registered a non-canonical summary")
			}
			if db.Summary("m") != nil {
				t.Fatal("a refused summary stayed registered")
			}
			for _, bs := range []int{1, 4, 1024} {
				if got := checkFronts(t, tc.sum, bs, tc.sql); got.Count != tc.count {
					t.Fatalf("batch %d: every front answered %d, want %d", bs, got.Count, tc.count)
				}
			}
		})
	}
}

// unspeccedCase leaves column a unspecced in the second summary row: those
// 500 tuples have a = 0, so only the first row's 1500 match a = 5 — on
// every front, however batches straddle the rows.
func unspeccedCase() *Summary {
	return pathsSummary(
		summary.Row{Count: 1500, Specs: []summary.ColSpec{
			summary.FixedSpec(1, 5),
			summary.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
		}},
		summary.Row{Count: 500, Specs: []summary.ColSpec{
			summary.SetSpec(2, value.NewIntervalSet(value.Ival(4, 7))),
		}},
	)
}

func TestUnspeccedColumnAllFronts(t *testing.T) {
	sum := unspeccedCase()
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 4, 1024} {
		if got := checkFronts(t, sum, bs, "SELECT COUNT(*) FROM m WHERE a = 5"); got.Count != 1500 {
			t.Fatalf("batch %d: every front answered %d, want 1500", bs, got.Count)
		}
		checkFronts(t, sum, bs, "SELECT a, COUNT(*), SUM(b) FROM m GROUP BY a")
	}
}

// fuzzReader hands out bytes of a fuzz input, then zeros once it runs dry.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) byte() int {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

// fuzzSummary decodes a small summary of m from fuzz bytes: up to five
// rows, each a count below 2048 and up to three specs. Specs may name the
// key, repeat a column, leave the domain, or carry unsorted, overlapping
// or empty intervals, so the boundary's every rule is exercised alongside
// valid shapes.
func fuzzSummary(r *fuzzReader) *Summary {
	rows := make([]summary.Row, r.byte()%5+1)
	for i := range rows {
		rows[i].Count = int64((r.byte()<<8 | r.byte()) % 2048)
		for k := r.byte() % 4; k > 0; k-- {
			col := r.byte() % 4
			if kind := r.byte(); kind%2 == 1 {
				rows[i].Specs = append(rows[i].Specs, summary.FixedSpec(col, int64(kind>>1)%40))
				continue
			}
			var set value.IntervalSet
			for n := r.byte()%3 + 1; n > 0; n-- {
				lo := int64(r.byte() % 40)
				set = append(set, value.Ival(lo, lo+int64(r.byte()%12)))
			}
			rows[i].Specs = append(rows[i].Specs, summary.SetSpec(col, set))
		}
	}
	return pathsSummary(rows...)
}

// fuzzSQL decodes a conjunctive query over m: a projection, a COUNT(*), a
// global aggregate, or a grouped aggregate, under up to three comparisons.
func fuzzSQL(r *fuzzReader) string {
	cols := []string{"pk", "a", "b", "c"}
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	var conj []string
	for n := r.byte() % 4; n > 0; n-- {
		conj = append(conj, fmt.Sprintf("%s %s %d", cols[r.byte()%4], ops[r.byte()%len(ops)], r.byte()%40))
	}
	where := ""
	if len(conj) > 0 {
		where = " WHERE " + strings.Join(conj, " AND ")
	}
	x, g := cols[r.byte()%4], cols[1+r.byte()%3]
	switch r.byte() % 4 {
	case 0:
		return "SELECT * FROM m" + where
	case 1:
		return "SELECT COUNT(*) FROM m" + where
	case 2:
		return fmt.Sprintf("SELECT COUNT(*), SUM(%s), MIN(%s), MAX(%s), AVG(%s) FROM m%s", x, x, x, x, where)
	default:
		return fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s), MIN(%s) FROM m%s GROUP BY %s", g, x, x, where, g)
	}
}

// fuzzCase encodes a summary and query selector in fuzzSummary/fuzzSQL's
// byte format, for seeding.
type fuzzCase struct {
	rows []fuzzRow
	sql  []byte // fuzzSQL's bytes
}

type fuzzRow struct {
	count int
	specs [][]byte // each: col, kind, then interval bytes for sets
}

func (c fuzzCase) bytes() []byte {
	out := []byte{byte(len(c.rows) - 1)}
	for _, r := range c.rows {
		out = append(out, byte(r.count>>8), byte(r.count), byte(len(r.specs)))
		for _, sp := range r.specs {
			out = append(out, sp...)
		}
	}
	return append(out, c.sql...)
}

// FuzzSummaryPaths: every generated summary either fails Validate or is
// answered byte-identically by every execution front.
func FuzzSummaryPaths(f *testing.F) {
	// The ROADMAP counterexample: a = [10,20),[0,10),[5,8) cycled over 23
	// tuples, COUNT(*) WHERE a < 10 (one comparison: a, <, 10).
	f.Add(fuzzCase{
		rows: []fuzzRow{{count: 23, specs: [][]byte{{1, 0, 2, 10, 10, 0, 10, 5, 3}}}},
		sql:  []byte{1, 1, 0, 10, 0, 0, 1},
	}.bytes(), uint8(3))
	// The unspecced-column counterexample: 1500 tuples with a = 5, then 500
	// leaving a unspecced; COUNT(*) WHERE a = 5.
	f.Add(fuzzCase{
		rows: []fuzzRow{
			{count: 1500, specs: [][]byte{{1, 11}, {2, 0, 0, 0, 3}}},
			{count: 500, specs: [][]byte{{2, 0, 0, 4, 3}}},
		},
		sql: []byte{1, 1, 4, 5, 0, 0, 1},
	}.bytes(), uint8(0))
	f.Add([]byte{2, 0, 40, 2, 1, 7, 2, 2, 0, 5, 9, 0, 17, 1, 3, 0, 1, 1, 2, 4, 2, 2, 1, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, batchSel uint8) {
		r := &fuzzReader{data: data}
		sum := fuzzSummary(r)
		sql := fuzzSQL(r)
		if sum.Validate() != nil {
			return
		}
		checkFronts(t, sum, []int{1, 3, 4, 1024}[batchSel%4], sql)
	})
}
