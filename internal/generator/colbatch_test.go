package generator

import (
	"testing"

	"repro/internal/batch"
)

// TestNextColBatchMatchesOracle holds every projected column of the
// columnar kernel to the spec oracle, across projections (single column,
// subsets, full width) and capacities that force segment and batch
// boundaries.
func TestNextColBatchMatchesOracle(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		for _, cols := range [][]int{{0}, {1}, {2}, {0, 2}, {1, 2}, allCols(len(tbl.Columns))} {
			for _, capRows := range oracleCaps {
				got := drainCols(NewStream(tbl, rel), len(tbl.Columns), capRows, cols)
				if len(got) != len(want) {
					t.Fatalf("%s cols %v cap %d: %d rows, want %d", name, cols, capRows, len(got), len(want))
				}
				for i := range want {
					for _, c := range cols {
						if got[i][c] != want[i][c] {
							t.Fatalf("%s cols %v cap %d: row %d col %d = %d, want %d",
								name, cols, capRows, i, c, got[i][c], want[i][c])
						}
					}
				}
			}
		}
	}
}

// TestNextColBatchEmptyProjection: a zero-column projection still drives
// the cardinality (the COUNT(*) fast path generates no values at all).
func TestNextColBatchEmptyProjection(t *testing.T) {
	rel := edgeSummary()
	s := NewStream(genTable(), rel)
	b := batch.NewCol(s.Cols(), 4, nil)
	var n int64
	for s.NextColBatch(b, nil) {
		n += int64(b.Len())
	}
	if n != rel.Total {
		t.Fatalf("empty projection counted %d rows, want %d", n, rel.Total)
	}
}

// TestNextColBatchSections: concatenated sections of the projected
// columnar stream reproduce the oracle exactly (the contract the parallel
// columnar executor schedules over).
func TestNextColBatchSections(t *testing.T) {
	tbl := genTable()
	rel := edgeSummary()
	cols := []int{0, 2}
	want := oracleRows(tbl, rel)
	for _, parts := range []int{1, 2, 3, 5, 17, 40} {
		for _, capRows := range oracleCaps {
			var got [][]int64
			for _, p := range NewStream(tbl, rel).Partition(parts) {
				got = append(got, drainCols(p, len(tbl.Columns), capRows, cols)...)
			}
			if len(got) != len(want) {
				t.Fatalf("%d parts: %d rows, want %d", parts, len(got), len(want))
			}
			for i := range want {
				for _, c := range cols {
					if got[i][c] != want[i][c] {
						t.Fatalf("%d parts cap %d: row %d col %d = %d, want %d", parts, capRows, i, c, got[i][c], want[i][c])
					}
				}
			}
		}
	}
}
