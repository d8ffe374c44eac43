package generator

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// oracleRows is the summary's definition written out tuple by tuple, the
// reference every generator access path is held to: within summary row j,
// the tuple at offset w has primary key = its global tuple index, a fixed
// column's value, Set.At(w mod Set.Len()) for a cycling column, and 0 for
// an unspecced column. It shares no code with the generator's kernel.
func oracleRows(tbl *schema.Table, rel *synopsis.Relation) [][]int64 {
	pk := tbl.PKIndex()
	var out [][]int64
	var g int64
	for _, row := range rel.Rows {
		for w := int64(0); w < row.Count; w++ {
			r := make([]int64, len(tbl.Columns))
			if pk >= 0 {
				r[pk] = g
			}
			for _, sp := range row.Specs {
				if sp.Fixed != nil {
					r[sp.Col] = *sp.Fixed
				} else {
					r[sp.Col] = sp.Set.At(w % sp.Set.Len())
				}
			}
			out = append(out, r)
			g++
		}
	}
	return out
}

// oracleCaps are the batch capacities every path is checked at: one row
// per batch, a capacity that straddles every summary-row boundary, and the
// default.
var oracleCaps = []int{1, 3, batch.DefaultCap}

// edgeSummary stresses the batch boundaries: a multi-interval cycling set,
// a Count far larger than small batch capacities (so one summary row spans
// several batches), zero-count rows between populated ones, and a final
// partial batch.
func edgeSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 17,
		Rows: []synopsis.Row{
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1)}},
			{Count: 11, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 42),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(2, 4), value.Point(7))),
			}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 2)}},
			{Count: 6, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(1, value.NewIntervalSet(value.Point(5))),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 10))),
			}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 3)}},
		},
	}
}

// unspeccedSummary leaves column a unspecced in its second row, after a
// first row whose fixed a=5 spans more than a default-capacity batch: the
// unspecced tuples must read 0 whatever a reused batch held before.
func unspeccedSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 2000,
		Rows: []synopsis.Row{
			{Count: 1500, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 5),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
			}},
			{Count: 500, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(4, 7))),
			}},
		},
	}
}

// collectRows drains a stream via Next.
func collectRows(s *Stream) [][]int64 {
	var out [][]int64
	for {
		row, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, append([]int64(nil), row...))
	}
}

// allCols is the full projection [0, n).
func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// drainCols drains a column source at the given capacity and projection,
// assembling full-width rows with unprojected columns left at a sentinel.
func drainCols(src batch.ColProjector, width, capRows int, cols []int) [][]int64 {
	const sentinel = -999
	var out [][]int64
	b := batch.NewCol(width, capRows, cols)
	for src.NextColBatch(b, cols) {
		for i := 0; i < b.Len(); i++ {
			row := make([]int64, width)
			for j := range row {
				row[j] = sentinel
			}
			for _, c := range cols {
				row[c] = b.Col(c)[i]
			}
			out = append(out, row)
		}
	}
	return out
}

// drainSource drains a column source at full width.
func drainSource(src batch.ColProjector, width, capRows int) [][]int64 {
	return drainCols(src, width, capRows, allCols(width))
}

func TestNextMatchesOracle(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		if int64(len(want)) != rel.Total {
			t.Fatalf("%s: oracle produced %d rows, want %d", name, len(want), rel.Total)
		}
		sameRows(t, name, collectRows(NewStream(tbl, rel)), want)
	}
}

func TestNextColBatchEmptyRelation(t *testing.T) {
	s := NewStream(genTable(), &synopsis.Relation{Table: "t"})
	all := allCols(s.Cols())
	b := batch.NewCol(s.Cols(), 8, all)
	if s.NextColBatch(b, all) {
		t.Fatal("empty relation produced a batch")
	}
	if b.Len() != 0 {
		t.Fatalf("batch holds %d rows after exhausted NextColBatch", b.Len())
	}
	// All-zero-count rows are exhausted without producing anything either.
	s = NewStream(genTable(), &synopsis.Relation{Table: "t", Rows: []synopsis.Row{
		{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1)}},
	}})
	if s.NextColBatch(b, all) {
		t.Fatal("zero-count relation produced a batch")
	}
}

func TestNextColBatchLargeRow(t *testing.T) {
	// A single summary row several batches long: the cycling cursor must
	// stay phase-aligned across every batch boundary.
	set := value.NewIntervalSet(value.Ival(10, 13), value.Point(20), value.Ival(30, 32))
	rel := &synopsis.Relation{Table: "t", Total: 5000, Rows: []synopsis.Row{
		{Count: 5000, Specs: []synopsis.ColSpec{
			synopsis.FixedSpec(1, 9),
			synopsis.SetSpec(2, set),
		}},
	}}
	tbl := genTable()
	sameRows(t, "large row", drainSource(NewStream(tbl, rel), len(tbl.Columns), 0), oracleRows(tbl, rel))
}

func TestPacedNextColBatch(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		for _, capRows := range oracleCaps {
			p := NewPaced(NewStream(tbl, rel), 0)
			sameRows(t, name, drainSource(p, len(tbl.Columns), capRows), want)
		}
	}
}

// rowOnly hides a stream's column-batch capability to exercise Paced's
// row-at-a-time fallback (batch.FromRows).
type rowOnly struct{ s *Stream }

func (r rowOnly) Next() ([]int64, bool) { return r.s.Next() }

func TestPacedNextColBatchRowFallback(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		for _, capRows := range oracleCaps {
			p := NewPaced(rowOnly{NewStream(tbl, rel)}, 0)
			sameRows(t, name, drainSource(p, len(tbl.Columns), capRows), want)
		}
	}
}
