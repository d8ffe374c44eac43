package engine

import (
	"repro/internal/batch"
	"repro/internal/trace"
)

// The sink framework: every blocking root operator — grouped aggregation,
// DISTINCT, ORDER BY, COUNT(*) — is one state object implementing sinkState,
// executed by the single colSinkIter operator that openCol opens for it.
// The same state serves every way the engine's one driver runs a tree:
//
//   - sequentially, colSinkIter drives observe over child batches and emit
//     over the finished state; ExecuteRows, the reference oracle, pivots
//     the very same operator's output into rows;
//   - morsel-parallel, worker 0 folds its morsels into the real tree's
//     bottom sink state and every other worker into its own copy of that
//     sink (partial accumulation via observe); the partials merge into the
//     real one in worker-index order, and the real colSinkIter then emits
//     the merged state — the partial-state/merge contract that replaces
//     per-executor operator reimplementations;
//   - Prepared.ExecuteIn recycles the state via reset, so grouped, distinct,
//     sorted and counting steady-state queries allocate nothing.
//
// finish freezes the deterministic output order exactly once; emit is then a
// pure, restartable read. deferredErr surfaces failures that can only be
// judged after the drain (aggregate overflow), replacing the old
// rowIterErr/colIterErr type probes with one convention shared by every
// operator.
type sinkState interface {
	// observe folds one child batch into the state (selection-aware).
	observe(b *batch.ColBatch)
	// finish freezes the deterministic output order and judges deferred
	// failures. Called exactly once per execution, after the last observe —
	// for parallel execution, after the last merge.
	finish()
	// emit writes output rows [pos, pos+k) into dst, populating only
	// outCols, and returns k (0 = exhausted).
	emit(dst *batch.ColBatch, outCols []int, pos int) int
	// merge folds another partial state of the same operator into this
	// one: a parallel worker's, merged in worker-index order before finish.
	merge(other sinkState)
	// reset recycles the state for another execution without releasing
	// storage (the zero-allocation steady-state contract).
	reset()
	// deferredErr reports a failure detected at finish, or nil.
	deferredErr() error
}

// colSinkIter is the one blocking operator of the columnar pipeline: it
// drains its child into a sinkState on the first Next, then streams the
// state's deterministic output. OpAggregate (countState), OpGroupAgg,
// OpDistinct (both groupAggState), and OpSort (sortState) are this operator
// with different states. A parallel run leaves it holding the merged
// worker partials, already drained and finished (runParallel).
type colSinkIter struct {
	child    colIterator
	buf      *batch.ColBatch // child output drain batch
	st       sinkState
	outCols  []int // output columns the caller materializes
	node     *ExecNode
	ctl      *execCtl
	sp       *trace.Span // nil when untraced
	rowBytes int64       // bytes materialized per emitted row

	drained bool
	pos     int // next output row to emit
}

func (g *colSinkIter) Next(dst *batch.ColBatch) bool {
	if g.sp == nil {
		return g.next(dst)
	}
	// The first traced Next covers the whole child drain, so the sink's
	// inclusive time is dominated by its children; emit batches account for
	// the sink's own output.
	g.sp.Begin()
	if !g.next(dst) {
		g.sp.ObserveEmpty()
		return false
	}
	g.sp.Observe(int64(dst.Live()), int64(dst.Live())*g.rowBytes)
	return true
}

func (g *colSinkIter) next(dst *batch.ColBatch) bool {
	dst.Reset()
	if !g.drained {
		for g.child.Next(g.buf) {
			g.st.observe(g.buf)
		}
		// A drain cut short by cancellation (the child's scan leaf stopped)
		// must not pay for finish — sorting or ordering a large partial
		// state would delay the unwind well past a batch boundary.
		if g.ctl.stopped() {
			return false
		}
		g.st.finish() // freezes order; may park a deferred error
		g.drained = true
	}
	if g.st.deferredErr() != nil {
		return false
	}
	k := g.st.emit(dst, g.outCols, g.pos)
	if k == 0 {
		return false
	}
	g.pos += k
	g.node.OutRows += int64(k)
	return true
}

func (g *colSinkIter) rewind(db *Database) error {
	g.st.reset()
	g.drained = false
	g.pos = 0
	g.node.OutRows = 0
	return g.child.rewind(db)
}

func (g *colSinkIter) deferredErr() error {
	if err := g.st.deferredErr(); err != nil {
		return err
	}
	return g.child.deferredErr()
}

// countState is COUNT(*) as a sinkState: a row counter emitting the single
// aggregate row. It materializes nothing but the count.
type countState struct {
	n int64
}

func (st *countState) observe(b *batch.ColBatch) { st.n += int64(b.Live()) }
func (st *countState) merge(other sinkState)     { st.n += other.(*countState).n }
func (st *countState) finish()                   {}
func (st *countState) reset()                    { st.n = 0 }
func (st *countState) deferredErr() error        { return nil }

func (st *countState) emit(dst *batch.ColBatch, outCols []int, pos int) int {
	if pos > 0 {
		return 0
	}
	dst.SetLen(1)
	for _, c := range outCols {
		dst.Col(c)[0] = st.n
	}
	return 1
}

// colLimitIter truncates its child's live-row stream to rows
// [offset, offset+limit). It is pure selection arithmetic: a batch's
// selection vector is sliced (or synthesized from the reusable selection
// buffer) and no row data moves. The child is drained to exhaustion even
// after the limit is reached, so every operator's observed cardinality is
// identical across executors and worker counts — annotated-plan fidelity is
// the engine's contract, and a short-circuiting LIMIT would make upstream
// OutRows depend on batch size and execution mode.
type colLimitIter struct {
	child         colIterator
	limit, offset int64
	node          *ExecNode
	sp            *trace.Span // nil when untraced

	seen    int64 // live child rows seen so far
	emitted int64 // rows passed downstream so far
}

func (l *colLimitIter) Next(dst *batch.ColBatch) bool {
	if l.sp == nil {
		return l.next(dst)
	}
	l.sp.Begin()
	if !l.next(dst) {
		l.sp.ObserveEmpty()
		return false
	}
	// Pure selection arithmetic: rows pass, no bytes move.
	l.sp.Observe(int64(dst.Live()), 0)
	return true
}

func (l *colLimitIter) next(dst *batch.ColBatch) bool {
	for {
		if !l.child.Next(dst) {
			return false
		}
		live := int64(dst.Live())
		start := int64(0)
		if l.seen < l.offset {
			start = l.offset - l.seen
			if start > live {
				start = live
			}
		}
		take := live - start
		if rem := l.limit - l.emitted; take > rem {
			take = rem
		}
		l.seen += live
		if take <= 0 {
			continue // keep draining for mode-invariant upstream counts
		}
		end := start + take
		if start > 0 || end < live {
			if sel := dst.Sel(); sel != nil {
				dst.SetSel(sel[start:end])
			} else {
				buf := dst.SelBuf()
				for r := start; r < end; r++ {
					buf = append(buf, int32(r))
				}
				dst.SetSel(buf)
			}
		}
		l.emitted += take
		l.node.OutRows += take
		return true
	}
}

func (l *colLimitIter) rewind(db *Database) error {
	l.seen = 0
	l.emitted = 0
	l.node.OutRows = 0
	return l.child.rewind(db)
}

func (l *colLimitIter) deferredErr() error { return l.child.deferredErr() }
