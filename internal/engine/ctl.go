package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/trace"
)

// Cooperative cancellation. Every execution front has a context-taking
// variant, and the ctx-free signatures are thin wrappers over
// context.Background(). Behind the fronts there are two drivers: the
// engine's one production driver, Prepared.execute (prepared.go), which
// Execute, Prepared.Execute and Prepared.ExecuteIn all run — sequentially
// or on parallel workers — and ExecuteRows, the row-pivot reference
// oracle. Cancellation is cooperative at batch boundaries: the engine never
// preempts a kernel mid-batch (a batch is at most a few thousand rows,
// microseconds of work), it checks between batches and unwinds.
//
// The checks live in exactly three places, chosen so every unbounded loop
// in the engine passes through at least one of them:
//
//   - colScanIter.Next — the leaf every operator ultimately pulls from.
//     One check per physical batch covers the filter's skip loop, the
//     sink drain loops, hash-join build drains, and the join probe's pull
//     loop, because all of them advance only by pulling scan batches.
//   - the root drive loop (runColumnar and the ExecuteRows pivot) — covers
//     the emit phase of blocking sinks, whose output streaming pulls no
//     scan batches, including the emission of merged parallel partials.
//   - the parallel worker's morsel loop — each worker carries its own
//     execCtl (latching is single-goroutine state), re-checked per morsel
//     and, through the worker's scan leaf, per batch.
//
// The state is an execCtl struct threaded through the operator tree as a
// field at open time — never a per-batch closure — so the steady-state
// reuse path (Prepared.ExecuteIn) keeps its zero-allocation contract: the
// ExecState owns one execCtl for its lifetime and rebinding it to the next
// call's context writes two words.

// execCtl carries one execution's cancellation state and, when the
// execution is traced (ExecOptions.Trace), its span recorder. It is single-
// goroutine by construction: the sequential tree shares one, each parallel
// worker owns one. A nil ctx never stops (the Prepare-time build drain and
// ctx-free wrappers run uncancellable); a nil rec records nothing — the
// untraced hot path pays one nil check per operator Next and allocates
// nothing, preserving the steady-state contract above.
type execCtl struct {
	ctx context.Context
	err error // first observed ctx error, latched for the execution
	rec *trace.Recorder
	// prunes maps OpFilter plan nodes to their precomputed qualifying
	// row-spaces (prune.go). A nil map (the NoScanPrune opt-out, or fronts
	// that never computed one) misses every lookup, so operators need no
	// separate gate.
	prunes pruneCache
	// morsel marks a parallel worker's control: the worker's one scan leaf
	// opens without a source and is pointed at one morsel Section of the
	// real tree's leaf source at a time — a source already restricted to
	// its qualifying row-space when the real leaf was pruned — so the
	// table's DatagenFunc runs once per scan, not once per worker.
	morsel bool
}

// openScan opens the source a scan of table reads: the table's own source,
// or none on a parallel worker, which points its scan leaf at each morsel
// before driving it.
func (c *execCtl) openScan(db *Database, table string) (batch.ColProjector, error) {
	if c.morsel {
		return nil, nil
	}
	return db.openScan(table)
}

// bind points the control at the next execution's context, clearing any
// error latched by a previous (canceled) execution on the same state.
func (c *execCtl) bind(ctx context.Context) {
	c.ctx = ctx
	c.err = nil
}

// stopped reports whether the execution should halt, latching the context
// error on first observation so every later check agrees without touching
// the context again.
func (c *execCtl) stopped() bool {
	if c.err != nil {
		return true
	}
	if c.ctx == nil {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.err = err
		return true
	}
	return false
}

// annotate mirrors a freshly built ExecNode into a trace span when the
// execution is traced, wiring the children's already-created spans into the
// tree (openCol builds children first, so they are annotated by the time
// the parent node exists). Returns nil when tracing is off; iterators store
// the nil and skip recording on it.
func (c *execCtl) annotate(node *ExecNode) *trace.Span {
	if c.rec == nil {
		return nil
	}
	sp := c.rec.NewSpan(node.Op, nodeDetail(node))
	for _, ch := range node.Children {
		if ch.sp != nil {
			sp.Children = append(sp.Children, ch.sp)
		}
	}
	node.sp = sp
	return sp
}

// annotateFrozen mirrors a cloned prepared-build ExecNode subtree into
// spans: cardinalities come from the counts frozen at Prepare time, no wall
// time is attributed (the drain ran before this execution), and the subtree
// root is detached from the join's self-time math. This keeps the span tree
// the same shape whether a join's build side was drained live or served
// from the build cache.
func (c *execCtl) annotateFrozen(node *ExecNode) *trace.Span {
	if c.rec == nil {
		return nil
	}
	for _, ch := range node.Children {
		c.annotateFrozen(ch)
	}
	sp := c.annotate(node)
	sp.Rows = node.OutRows
	// The frozen counters are written exactly once (nothing executes in this
	// subtree), so state-reusing executions must not zero them on Reset.
	sp.Freeze()
	return sp
}

// nodeDetail picks the operator's distinguishing argument for its span. A
// pruned scan reports its prune counts here, so EXPLAIN ANALYZE and the
// span tree surface what generation never materialized. (annotate runs once
// per open, off the hot path, so the formatting cost is irrelevant.)
func nodeDetail(n *ExecNode) string {
	switch {
	case n.PredSQL != "":
		return n.PredSQL
	case n.JoinSQL != "":
		return n.JoinSQL
	case n.RowsPruned > 0 || n.SummaryRowsSkipped > 0:
		return fmt.Sprintf("%s [pruned %d rows, skipped %d summary rows]", n.Table, n.RowsPruned, n.SummaryRowsSkipped)
	default:
		return n.Table
	}
}

// withTimeout derives the execution deadline from ExecOptions.Timeout: a
// positive timeout wraps ctx, anything else passes it through with a no-op
// cancel so callers can defer unconditionally.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
