package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/trace"
)

// ExecNode mirrors one plan operator after execution, carrying the observed
// output cardinality. ExecNode trees are the raw material for annotated
// query plans. When the execution is traced, each node also carries its
// span — same tree, timing view — reachable from ExecResult.Trace.
type ExecNode struct {
	Op      string `json:"op"`
	Table   string `json:"table,omitempty"`
	PredSQL string `json:"pred,omitempty"`
	JoinSQL string `json:"join,omitempty"`
	// OutRows is the operator's observed output cardinality. Under scan
	// pruning (prune.go) the invariant is: a SCAN reports the rows it
	// actually generated — the pruned row-space, a pure function of the
	// summary and the predicate, so the number is identical on every
	// execution front and across prepared re-executions — and a residual
	// FILTER reports its survivors. A fully absorbed filter disappears
	// from the tree; the scan's OutRows then equals what the filter's
	// output was unpruned, which is what keeps the execution-mode
	// invariance the parity suites pin.
	OutRows int64 `json:"out_rows"`
	// RowsPruned and SummaryRowsSkipped are set on SCAN nodes whose
	// row-space was pruned: tuples proven non-matching and never
	// generated, and whole summary rows excluded outright.
	RowsPruned         int64       `json:"rows_pruned,omitempty"`
	SummaryRowsSkipped int64       `json:"summary_rows_skipped,omitempty"`
	Children           []*ExecNode `json:"children,omitempty"`

	sp *trace.Span // span mirror when traced, nil otherwise
}

// ExecResult is the outcome of executing a plan.
type ExecResult struct {
	Root *ExecNode // operator tree with observed cardinalities
	// Rows is the number of rows the root produced (for COUNT(*) queries
	// this is 1; see Count).
	Rows int64
	// Count is the aggregate value for COUNT(*) queries, else 0.
	Count int64
	// Sample holds up to ExecOptions.SampleLimit of the root's output rows.
	Sample [][]int64
	// Trace is the per-operator span tree when the execution ran with
	// ExecOptions.Trace, nil otherwise. It mirrors Root's shape, with wall
	// time, rows, batches, and bytes per operator.
	Trace *trace.Span
	// Path names the execution path that answered the query: PathSummary
	// when the summary-direct aggregate fast path did, empty when the
	// regenerating operator pipeline did.
	Path string
	// Approx is set when the execution ran with ExecOptions.Approx and the
	// summary-direct path answered: it reports whether any summary row was
	// estimated rather than proven, with a 95% confidence interval. Nil on
	// the regenerating path (which is always exact).
	Approx *ApproxInfo
}

// PathSummary is ExecResult.Path's value when the summary-direct aggregate
// fast path answered the query without regenerating rows.
const PathSummary = "summary"

// ExecOptions tune execution.
type ExecOptions struct {
	// SampleLimit caps how many output rows are retained in the result.
	SampleLimit int
	// BatchSize overrides the execution batch capacity in rows (<= 0 means
	// batch.DefaultCap, < 0 is rejected by Normalize). Mainly for tests
	// exercising batch boundaries.
	BatchSize int
	// Parallelism selects morsel-driven parallel execution: 0 (the
	// default) drives the operator tree sequentially, n >= 1 runs its
	// scan→filter→probe spine on n workers (see exec_parallel.go).
	// Normalize clamps it into [0, GOMAXPROCS] on every front, so a
	// request cannot ask for more workers than the process runs threads;
	// ExecuteIn ignores it.
	Parallelism int
	// Timeout bounds the execution's wall clock when positive: the
	// context-taking entry points derive a deadline from it (stacked on
	// whatever deadline the caller's context already carries — the
	// earlier one wins) and the query fails with context.DeadlineExceeded
	// at the next batch boundary after it expires. Zero means no
	// engine-imposed deadline; negative is rejected by Normalize. The
	// ctx-free wrappers honor it too, so a plain Execute with a Timeout
	// is self-limiting.
	Timeout time.Duration
	// Trace enables per-operator span recording: the result carries a span
	// tree (ExecResult.Trace) mirroring the annotated plan with wall time,
	// rows, batches, and bytes per operator. Off (the default), the engine
	// records nothing and the steady-state zero-allocation contract is
	// byte-for-byte the untraced one; on, recording writes into spans
	// preallocated at open time, so even traced ExecuteIn steady state
	// allocates nothing per query.
	Trace bool
	// Approx permits the summary-direct fast path to answer global (non
	// GROUP BY) aggregates whose summary rows are not all provably exact,
	// estimating the remainder under a cross-column independence
	// assumption. The result then carries ApproxInfo with a 95% confidence
	// interval on the matching-row count. Off (the default), only provably
	// exact answers take the fast path and everything else regenerates.
	Approx bool
	// NoSummaryAgg forces the regenerating pipeline even when the
	// summary-direct fast path could answer exactly. Verification flows
	// comparing full operator trees and benchmarks measuring regeneration
	// set it; normal queries should not.
	NoSummaryAgg bool
	// NoScanPrune disables predicate pushdown into generation (prune.go):
	// scans iterate the full [0, Total) row-space and every filter runs as
	// a MatchVec operator. The pruned path is byte-identical by
	// construction; this opt-out exists for the parity suites and
	// benchmarks that measure the unpruned baseline.
	NoScanPrune bool
}

// ErrInvalidOptions tags ExecOptions validation failures; test with
// errors.Is.
var ErrInvalidOptions = errors.New("invalid exec options")

// validate rejects option values that would otherwise silently misbehave.
func (o ExecOptions) validate() error {
	if o.BatchSize < 0 {
		return fmt.Errorf("engine: %w: BatchSize %d is negative", ErrInvalidOptions, o.BatchSize)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("engine: %w: Timeout %v is negative", ErrInvalidOptions, o.Timeout)
	}
	return nil
}

// Normalize validates the options and clamps Parallelism into
// [0, GOMAXPROCS], returning the normalized copy. A typed error (wrapping
// ErrInvalidOptions) reports values with no sensible interpretation.
func (o ExecOptions) Normalize() (ExecOptions, error) {
	if err := o.validate(); err != nil {
		return o, err
	}
	if o.Parallelism < 0 {
		o.Parallelism = 0
	}
	if max := runtime.GOMAXPROCS(0); o.Parallelism > max {
		o.Parallelism = max
	}
	return o, nil
}

// Execute runs a plan against the database and returns the annotated
// operator tree. Scans honor each table's datagen setting, so the same call
// serves both stored and dataless execution. Execution is columnar with
// projection pushdown and selection vectors (see exec_col.go); with
// opts.Parallelism >= 1 it is also morsel-parallel (see exec_parallel.go),
// with results byte-identical to the sequential path. ExecuteRows is the
// row-pivot reference front over the same operators and produces identical
// results. Execute is ExecuteContext over context.Background().
func Execute(db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	return ExecuteContext(context.Background(), db, plan, opts)
}

// ExecuteContext is Execute under a context: cancellation (and
// opts.Timeout, stacked onto any deadline ctx already carries) is observed
// cooperatively at batch boundaries, and a stopped query returns
// context.Canceled or context.DeadlineExceeded — identically on the
// sequential and parallel paths, with no goroutine left behind. It runs the
// engine's one driver over the plan unprepared: build sides drain live,
// materializing only the columns the query needs, under ctx.
func ExecuteContext(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	return (&Prepared{db: db, plan: plan}).execute(ctx, new(ExecState), opts)
}

// ExecuteRows runs a plan and surfaces its output one row at a time: a thin
// row-pivot adapter over the columnar operator pipeline. There is no second
// operator set behind it — the pivot opens the very same ExecState the
// engine's driver runs and transposes each live batch row out — so it is
// kept as the executable reference oracle the driver is pinned against:
// any divergence between Execute (sequential or parallel), Prepared.Execute
// or Prepared.ExecuteIn and this path is a bug in batch driving, not in
// operator semantics.
func ExecuteRows(db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	return ExecuteRowsContext(context.Background(), db, plan, opts)
}

// ExecuteRowsContext is ExecuteRows under a context, with the same
// batch-boundary cancellation contract as ExecuteContext.
func ExecuteRowsContext(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	st := new(ExecState)
	st.ctl.bind(ctx)
	if err := st.open(&Prepared{db: db, plan: plan}, opts, rowNeed(plan)); err != nil {
		return nil, err
	}
	if st.sagg != nil {
		return st.runSummary(opts)
	}
	res, b, ctl := &st.res, st.b, &st.ctl
	row := make([]int64, b.Width())
	agg := plan.countStar()
	for !ctl.stopped() && st.it.Next(b) {
		live := b.Live()
		for i := 0; i < live; i++ {
			b.LiveRow(i, row)
			res.Rows++
			if opts.SampleLimit > 0 && len(res.Sample) < opts.SampleLimit {
				res.Sample = append(res.Sample, append([]int64(nil), row...))
			}
			if agg {
				res.Count = row[0]
			}
		}
	}
	res.Root.OutRows = res.Rows
	if ctl.err != nil {
		return nil, ctl.err
	}
	if err := st.it.deferredErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// rowNeed is the column set the row pivot must materialize: every root
// output column (rows are whole by definition), or just the count column
// for COUNT(*) plans.
func rowNeed(plan *Plan) []int {
	if plan.countStar() {
		return []int{0}
	}
	return allCols(len(plan.Root.Cols))
}
