package engine

// The per-summary-row classifier: the one place a summary row is judged
// against a conjunctive predicate. Scan pruning (prune.go) and
// summary-direct aggregation (summaryagg.go) both build on it, so they
// read a row exactly as the generator expands it (package synopsis): the
// primary key auto-numbers the row's tuples [base, base+Count), a fixed
// column holds its value, a cycling column runs through its set from phase
// zero, and an unspecced column is 0. Registered summaries are canonical
// (Database.SetSummary validates them), so every spec is well formed and
// there is at most one per column.

import (
	"repro/internal/pred"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// rowSpec is one needed column's resolved value law within one summary row:
// a cycling interval set, or (set == nil) a fixed value.
type rowSpec struct {
	set   value.IntervalSet
	fixed int64
}

// rowKind is the classifier's verdict on one summary row.
type rowKind uint8

const (
	// rowSkip: no tuple of the row can satisfy the predicate.
	rowSkip rowKind = iota
	// rowFull: every tuple satisfies it — each predicate column is fixed
	// inside its set or cycles entirely within it.
	rowFull
	// rowDriven: one cycling non-key column is partially restricted (the
	// driving column) and/or the key conjunct restricts positions.
	rowDriven
	// rowMulti: two or more cycling non-key columns are independently
	// restricted; drive names the first of them.
	rowMulti
)

// rowClass is one summary row's classification.
type rowClass struct {
	kind rowKind
	// drive is the cols position of the (first) partially restricted
	// cycling non-key column, -1 when none.
	drive int
	// pk holds the global tuple positions of the row that the key conjunct
	// admits, nil when the key is unrestricted. It aliases classifier
	// scratch and is valid until the next classify.
	pk value.IntervalSet
}

// predCol is one predicate conjunct: a cols position and its set.
type predCol struct {
	pos int
	set value.IntervalSet
}

// rowClassifier resolves and classifies summary rows for one predicate over
// a fixed list of needed columns. It is reused across rows (and, in
// prepared statements, executions) and allocates nothing once its scratch
// has grown.
type rowClassifier struct {
	cols  []int     // needed table columns
	preds []predCol // the predicate's conjuncts, in column order
	pkPos int       // position of the primary key in cols, -1 when not needed
	// specs is the current row's resolved spec per cols position; the key
	// resolves to its tuple range [base, base+Count) as a cycling set.
	specs []rowSpec

	pkBuf value.IntervalSet // the current row's key range
	pkHit value.IntervalSet // key range ∩ key conjunct
}

// newRowClassifier prepares a classifier over cols (which must include every
// predicate column) for the predicate p (nil for none); pk is the table's
// primary-key column, -1 when it has none.
func newRowClassifier(cols []int, p *pred.Region, pk int) *rowClassifier {
	rc := &rowClassifier{cols: cols, pkPos: -1, specs: make([]rowSpec, len(cols))}
	for i, c := range cols {
		if c == pk {
			rc.pkPos = i
		}
	}
	if p != nil {
		for i, c := range p.Cols {
			rc.preds = append(rc.preds, predCol{pos: rc.pos(c), set: p.Sets[i]})
		}
	}
	return rc
}

// pos returns column c's position in cols, or -1.
func (rc *rowClassifier) pos(c int) int {
	for i, nc := range rc.cols {
		if nc == c {
			return i
		}
	}
	return -1
}

// predOf returns the predicate set constraining cols position pos, or nil
// when the column is unconstrained.
func (rc *rowClassifier) predOf(pos int) value.IntervalSet {
	for _, pc := range rc.preds {
		if pc.pos == pos {
			return pc.set
		}
	}
	return nil
}

// classify resolves row's specs for the needed columns into rc.specs and
// judges the row against the predicate; base is the global index of the
// row's first tuple. A conjunct that excludes the row wins over any number
// of restricted columns: an excluded row contributes exactly nothing.
func (rc *rowClassifier) classify(row *synopsis.Row, base int64) rowClass {
	if row.Count == 0 {
		return rowClass{kind: rowSkip, drive: -1}
	}
	for i := range rc.specs {
		rc.specs[i] = rowSpec{} // unspecced: 0
	}
	for si := range row.Specs {
		sp := &row.Specs[si]
		pos := rc.pos(sp.Col)
		switch {
		case pos < 0:
		case sp.Fixed != nil:
			rc.specs[pos] = rowSpec{fixed: *sp.Fixed}
		default:
			rc.specs[pos] = rowSpec{set: sp.Set}
		}
	}
	if rc.pkPos >= 0 {
		rc.pkBuf = append(rc.pkBuf[:0], value.Ival(base, base+row.Count))
		rc.specs[rc.pkPos] = rowSpec{set: rc.pkBuf}
	}

	cls := rowClass{kind: rowFull, drive: -1}
	for _, pc := range rc.preds {
		r := &rc.specs[pc.pos]
		if r.set == nil {
			if !pc.set.Contains(r.fixed) {
				return rowClass{kind: rowSkip, drive: -1}
			}
			continue
		}
		m := r.set.IntersectLen(pc.set)
		switch {
		case m == 0:
			return rowClass{kind: rowSkip, drive: -1}
		case m == r.set.Len():
			// Every value matches: no restriction from this column.
		case pc.pos == rc.pkPos:
			// The key numbers the row's tuples in order, so its conjunct
			// restricts positions directly.
			rc.pkHit = r.set.IntersectInto(rc.pkHit, pc.set)
			cls.pk = rc.pkHit
		case cls.drive < 0:
			cls.drive = pc.pos
		default:
			cls.kind = rowMulti
		}
	}
	if cls.kind == rowFull && (cls.drive >= 0 || cls.pk != nil) {
		cls.kind = rowDriven
	}
	return cls
}
