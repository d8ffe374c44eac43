// Package batch provides the fixed-capacity column batch that Hydra's
// generation and execution pipelines move tuples in. Producing and
// consuming rows a batch at a time amortizes per-row interface calls and
// bounds checks across the whole pipeline: the generator expands a summary
// row's Count tuples in one tight loop per column, and every engine
// operator accounts cardinalities once per batch instead of once per row.
package batch

import "slices"

// DefaultCap is the default batch capacity in rows. 1024 rows of a
// handful of int64 columns keeps a batch comfortably inside the L2 cache
// while amortizing per-batch overhead to noise.
const DefaultCap = 1024

// ColBatch is a column-major batch: the values of column c occupy one
// contiguous []int64, and a reusable selection vector marks which rows are
// live. The layout is what makes late materialization possible — an
// operator touches only the columns it was asked to populate, a filter
// flips selection indices instead of moving row data, and every column
// fill is a unit-stride pass.
//
// A batch is constructed for a fixed set of populated columns; the other
// columns carry no storage (Col returns nil), so a scan projected to three
// of twenty-plus columns never allocates — let alone writes — the rest.
type ColBatch struct {
	width   int
	capRows int
	n       int       // physical rows
	cols    [][]int64 // len == width; nil for unpopulated columns
	sel     []int32   // live rows, ascending; nil means all n rows are live
	selBuf  []int32   // reusable selection storage handed out by SelBuf
}

// NewCol returns an empty column batch of the given logical row width.
// capRows <= 0 selects DefaultCap. Only the listed columns receive storage;
// populated indices must be in [0, width) and are deduplicated by the
// caller's contract (duplicates are harmless but waste nothing here).
func NewCol(width, capRows int, populated []int) *ColBatch {
	if capRows <= 0 {
		capRows = DefaultCap
	}
	b := &ColBatch{width: width, capRows: capRows, cols: make([][]int64, width)}
	for _, c := range populated {
		if b.cols[c] == nil {
			b.cols[c] = make([]int64, capRows)
		}
	}
	return b
}

// Width returns the logical row width.
func (b *ColBatch) Width() int { return b.width }

// Cap returns the batch capacity in rows.
func (b *ColBatch) Cap() int { return b.capRows }

// Len returns the number of physical rows in the batch (live or not).
func (b *ColBatch) Len() int { return b.n }

// SetLen sets the physical row count (the writer's contract: fill the
// populated columns' first n entries). It panics beyond capacity and leaves
// the batch dense (no selection).
func (b *ColBatch) SetLen(n int) {
	if n > b.capRows {
		panic("batch: SetLen beyond capacity")
	}
	b.n = n
	b.sel = nil
}

// Live returns the number of live rows: len(Sel()) under a selection,
// otherwise every physical row.
func (b *ColBatch) Live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Sel returns the selection vector — ascending physical row indices of the
// live rows — or nil when the batch is dense (all rows live).
func (b *ColBatch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector. The slice is retained, not copied;
// filters pass a prefix of SelBuf.
func (b *ColBatch) SetSel(sel []int32) { b.sel = sel }

// SelBuf returns the batch's reusable selection storage (capacity Cap,
// length 0). A filter appends surviving row indices to it and installs the
// result with SetSel. Refining an existing selection in place is safe: the
// write index never passes the read index.
func (b *ColBatch) SelBuf() []int32 {
	if b.selBuf == nil {
		b.selBuf = make([]int32, 0, b.capRows)
	}
	return b.selBuf[:0]
}

// Col returns column c's storage (length Cap; entries [0, Len) are
// meaningful), or nil when c is unpopulated.
func (b *ColBatch) Col(c int) []int64 { return b.cols[c] }

// Cols exposes the per-column storage slice, indexed by column position;
// unpopulated columns are nil. Hot loops (predicate vectorization) index it
// directly.
func (b *ColBatch) Cols() [][]int64 { return b.cols }

// Populated reports whether column c carries storage.
func (b *ColBatch) Populated(c int) bool { return b.cols[c] != nil }

// Reset empties the batch: zero physical rows, dense selection, storage
// retained.
func (b *ColBatch) Reset() {
	b.n = 0
	b.sel = nil
}

// LiveRow writes the i-th live row (selection order) into dst, which must
// have length Width. Every column must be populated — this is the
// materialization step for sampled output rows.
func (b *ColBatch) LiveRow(i int, dst []int64) {
	r := i
	if b.sel != nil {
		r = int(b.sel[i])
	}
	for c, col := range b.cols {
		dst[c] = col[r]
	}
}

// AppendRows appends the batch's physical rows to dst in row-major order —
// row i's Width values, then row i+1's — and returns the extended slice.
// Every column must be populated. The pivot is one pass per column, for
// callers that want rows: the generator's row view and materialization.
func (b *ColBatch) AppendRows(dst []int64) []int64 {
	w, base := b.width, len(dst)
	dst = slices.Grow(dst, b.n*w)[:base+b.n*w]
	for c, col := range b.cols {
		for i, v := range col[:b.n] {
			dst[base+i*w+c] = v
		}
	}
	return dst
}

// ColProjector yields column batches. NextColBatch resets dst, fills exactly
// the columns in cols (which must all be populated in dst), sets the
// physical length, and reports whether any rows were produced; the batch is
// left dense. Once it returns false the source is exhausted.
//
// The projection is the caller's required-column set: implementations must
// never touch columns outside it. The generator's Stream and the engine's
// stored-relation cursor implement ColProjector natively; row-at-a-time
// sources are adapted by FromRows.
type ColProjector interface {
	NextColBatch(dst *ColBatch, cols []int) bool
}

// RowSource yields coded rows one at a time; Next returns ok=false once the
// source is exhausted.
type RowSource interface {
	Next() (row []int64, ok bool)
}

// FromRows views a row-at-a-time source as a ColProjector: src itself when
// it already projects columns, otherwise an adapter that pulls up to a
// batch of rows and copies out only the requested columns. It is the one
// row-to-column adapter, for caller-supplied sources that only have Next.
func FromRows(src RowSource) ColProjector {
	if cp, ok := src.(ColProjector); ok {
		return cp
	}
	return &rowProjector{src: src}
}

type rowProjector struct{ src RowSource }

func (a *rowProjector) NextColBatch(dst *ColBatch, cols []int) bool {
	dst.Reset()
	n := 0
	for n < dst.capRows {
		row, ok := a.src.Next()
		if !ok {
			break
		}
		for _, c := range cols {
			dst.cols[c][n] = row[c]
		}
		n++
	}
	dst.n = n
	return n > 0
}
