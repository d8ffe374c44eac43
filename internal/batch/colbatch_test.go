package batch

import (
	"reflect"
	"testing"
)

func TestColBatchPopulation(t *testing.T) {
	b := NewCol(5, 8, []int{1, 3})
	if b.Width() != 5 || b.Cap() != 8 || b.Len() != 0 || b.Live() != 0 {
		t.Fatalf("fresh batch: width=%d cap=%d len=%d live=%d", b.Width(), b.Cap(), b.Len(), b.Live())
	}
	for c := 0; c < 5; c++ {
		want := c == 1 || c == 3
		if b.Populated(c) != want {
			t.Fatalf("Populated(%d) = %v, want %v", c, b.Populated(c), want)
		}
		if (b.Col(c) != nil) != want {
			t.Fatalf("Col(%d) nil-ness wrong", c)
		}
	}
	if len(b.Col(1)) != 8 {
		t.Fatalf("populated column length = %d, want cap 8", len(b.Col(1)))
	}
}

func TestColBatchSelection(t *testing.T) {
	b := NewCol(2, 8, []int{0, 1})
	b.SetLen(4)
	for i := 0; i < 4; i++ {
		b.Col(0)[i] = int64(10 + i)
		b.Col(1)[i] = int64(20 + i)
	}
	if b.Live() != 4 || b.Sel() != nil {
		t.Fatalf("dense batch: live=%d sel=%v", b.Live(), b.Sel())
	}
	sel := append(b.SelBuf(), 1, 3)
	b.SetSel(sel)
	if b.Live() != 2 || b.Len() != 4 {
		t.Fatalf("after sel: live=%d len=%d", b.Live(), b.Len())
	}
	row := make([]int64, 2)
	b.LiveRow(0, row)
	if !reflect.DeepEqual(row, []int64{11, 21}) {
		t.Fatalf("live row 0 = %v", row)
	}
	b.LiveRow(1, row)
	if !reflect.DeepEqual(row, []int64{13, 23}) {
		t.Fatalf("live row 1 = %v", row)
	}
	// SetLen re-densifies; Reset empties but keeps storage.
	b.SetLen(3)
	if b.Sel() != nil || b.Live() != 3 {
		t.Fatalf("SetLen did not clear selection")
	}
	b.Reset()
	if b.Len() != 0 || b.Live() != 0 || b.Sel() != nil {
		t.Fatalf("Reset left state behind")
	}
}

func TestColBatchDefaultCap(t *testing.T) {
	b := NewCol(1, 0, []int{0})
	if b.Cap() != DefaultCap {
		t.Fatalf("cap = %d, want DefaultCap", b.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen beyond capacity did not panic")
		}
	}()
	b.SetLen(DefaultCap + 1)
}

// rowsOnly yields n rows {i, 10i, 100i} one at a time.
type rowsOnly struct{ i, n int64 }

func (r *rowsOnly) Next() ([]int64, bool) {
	if r.i >= r.n {
		return nil, false
	}
	row := []int64{r.i, 10 * r.i, 100 * r.i}
	r.i++
	return row, true
}

// TestFromRows: the row adapter fills only the projected columns, in
// batches of the destination's capacity, and reports exhaustion.
func TestFromRows(t *testing.T) {
	src := FromRows(&rowsOnly{n: 5})
	cols := []int{0, 2}
	b := NewCol(3, 2, cols)
	var got [][2]int64
	for src.NextColBatch(b, cols) {
		if b.Len() > 2 {
			t.Fatalf("batch of %d rows exceeds capacity 2", b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, [2]int64{b.Col(0)[i], b.Col(2)[i]})
		}
	}
	if len(got) != 5 {
		t.Fatalf("%d rows, want 5", len(got))
	}
	for i, r := range got {
		if r != [2]int64{int64(i), 100 * int64(i)} {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// A source that already projects columns is used as is.
	if cp := FromRows(colAndRows{}); cp != (colAndRows{}) {
		t.Fatal("FromRows wrapped a ColProjector")
	}
}

type colAndRows struct{}

func (colAndRows) Next() ([]int64, bool)                    { return nil, false }
func (colAndRows) NextColBatch(dst *ColBatch, _ []int) bool { dst.Reset(); return false }

// TestAppendRows: the row-major pivot appends Len rows of Width values
// after whatever dst already holds.
func TestAppendRows(t *testing.T) {
	b := NewCol(2, 4, []int{0, 1})
	b.SetLen(3)
	for i := 0; i < 3; i++ {
		b.Col(0)[i], b.Col(1)[i] = int64(i), int64(10+i)
	}
	got := b.AppendRows([]int64{-1})
	if want := []int64{-1, 0, 10, 1, 11, 2, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendRows = %v, want %v", got, want)
	}
}
