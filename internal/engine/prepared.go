package engine

import (
	"context"

	"repro/internal/batch"
	"repro/internal/trace"
)

// Prepared is a plan readied for repeated execution against one database:
// every hash-join build side has been drained once into a shared read-only
// columnar arena, so each Execute pays probe cost only. Because dataless
// scans are pure functions of the summary, the arenas are valid for the
// database's lifetime; a Prepared is safe for concurrent Execute calls
// (each opens fresh probe state over the shared builds). This is what the
// serve front end caches per normalized query — steady-state traffic never
// rebuilds a hash table. Cancellation cannot poison a Prepared: the arenas
// are immutable after Prepare, and a canceled execution abandons only its
// private probe state.
//
// A Prepared is also the engine's one execution driver (execute): ad-hoc
// Execute runs it over an unprepared Prepared — no build cache, so build
// sides drain live, and no prune cache, so row-spaces are computed per
// execution.
type Prepared struct {
	db     *Database
	plan   *Plan
	builds buildCache // nil for ad-hoc execution
	prunes pruneCache // qualifying row-spaces, computed once at Prepare time
}

// Plan returns the compiled plan the Prepared executes.
func (p *Prepared) Plan() *Plan { return p.plan }

// Prepare compiles the plan's hash-join build sides into shared arenas.
// Builds materialize every build-side column, so later executions may
// request any sample projection. opts supplies the build drain's batch
// size; Parallelism, SampleLimit, and Timeout are ignored here (the drain
// is deliberately uncancellable: a Prepared under construction is not yet
// shared, and a per-request deadline belongs to executions, not to the
// cache-fill work other requests will reuse).
func Prepare(db *Database, plan *Plan, opts ExecOptions) (*Prepared, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, plan: plan, builds: make(buildCache)}
	// Prune row-spaces are computed once and shared by every execution (and
	// by the build drain below, so cached build sides make the same prune
	// decisions as live ones — span-shape parity depends on it).
	p.prunes = buildPruneCache(db, plan)
	if err := p.prepareNode(plan.Root, opts.BatchSize); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Prepared) prepareNode(pn *PlanNode, capRows int) error {
	switch pn.Op {
	case OpFilter, OpAggregate, OpGroupAgg, OpDistinct, OpSort, OpLimit:
		return p.prepareNode(pn.Children[0], capRows)
	case OpHashJoin:
		if err := p.prepareNode(pn.Children[0], capRows); err != nil {
			return err
		}
		build := pn.Children[1]
		if err := p.prepareNode(build, capRows); err != nil {
			return err
		}
		all := make([]int, len(build.Cols))
		for i := range all {
			all[i] = i
		}
		buildIt, bw, buildPop, buildNode, err := openCol(p.db, build, all, capRows, p.builds, &execCtl{prunes: p.prunes})
		if err != nil {
			return err
		}
		p.builds[pn] = &preparedBuild{
			jb:   newColJoinBuild(buildIt, bw, pn.RightKey, capRows, all, buildPop),
			node: buildNode,
		}
	}
	return nil
}

// Execute runs the prepared plan: identical results to Execute on the raw
// plan, minus the build cost. With opts.Parallelism >= 1 the probe pipeline
// is morsel-parallel over the same shared builds.
func (p *Prepared) Execute(opts ExecOptions) (*ExecResult, error) {
	return p.ExecuteContext(context.Background(), opts)
}

// ExecuteContext is Execute under a context, with the engine's
// batch-boundary cancellation contract (see ExecuteContext): the probe
// pipeline stops at the next batch once ctx is done or opts.Timeout
// expires, returning the context's error. The shared build arenas are
// untouched by a canceled execution. It runs the engine's one driver on a
// fresh ExecState.
func (p *Prepared) ExecuteContext(ctx context.Context, opts ExecOptions) (*ExecResult, error) {
	return p.execute(ctx, new(ExecState), opts)
}

// ExecState is caller-owned reusable execution state for ExecuteIn: the
// opened operator tree, its ExecNode mirror, the root column batch, the
// result struct, and the execution's cancellation control (owned for the
// state's lifetime and rebound per call, so context plumbing costs no
// allocations). One goroutine per ExecState.
type ExecState struct {
	it    colIterator
	b     *batch.ColBatch
	res   ExecResult
	opts  ExecOptions
	ctl   execCtl
	sagg  *summaryAggEval // summary-direct evaluator when the fast path applies
	valid bool
}

// ExecuteIn runs the prepared plan sequentially inside st, reusing every
// piece of per-execution state from the previous call: iterators are
// rewound (deterministic scans re-seek to row zero instead of reopening),
// batches, selection buffers, and ExecNodes are recycled, and the returned
// result aliases st — it is valid until the next ExecuteIn on the same
// state. After the first call, executions with an unchanged opts value and
// SampleLimit == 0 allocate nothing: the steady-state scan→filter→count
// path runs at zero allocations per query, which BenchmarkDatalessQuery
// pins. opts.Parallelism is ignored (the reuse path is sequential by
// construction).
func (p *Prepared) ExecuteIn(st *ExecState, opts ExecOptions) (*ExecResult, error) {
	return p.ExecuteInContext(context.Background(), st, opts)
}

// ExecuteInContext is ExecuteIn under a context: cancellation is observed
// at batch boundaries through the state's own execCtl (a field rebind, not
// a per-batch closure, so the zero-allocation steady state survives — with
// a background context and no Timeout, nothing is allocated). A canceled
// execution leaves st reusable: the next call rewinds and recycles the
// same state, and results are unaffected — cancellation cannot poison the
// prepared state.
func (p *Prepared) ExecuteInContext(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	opts.Parallelism = 0
	return p.execute(ctx, st, opts)
}

// execute is the engine's one production driver; every Execute* front but
// the ExecuteRows oracle runs it. It opens st for opts — unless st already
// holds the tree for exactly these options, which it rewinds instead — and
// then runs it: the summary-direct evaluator when that claimed the plan,
// otherwise the operator tree, sequentially or, with opts.Parallelism >= 1,
// morsel-parallel (runParallel).
func (p *Prepared) execute(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	// The deadline now lives in ctx; zero the field so state reuse keys on
	// the execution-shaping options only (a per-call Timeout change must
	// not rebuild the operator tree).
	opts.Timeout = 0
	st.ctl.bind(ctx)
	if !st.valid || st.opts != opts {
		if err := st.open(p, opts, rootNeed(p.plan, opts)); err != nil {
			return nil, err
		}
	} else if err := st.rewind(p.db); err != nil {
		return nil, err
	}
	if st.sagg != nil {
		return st.runSummary(opts)
	}
	if opts.Parallelism >= 1 {
		// The parallel run hands the tree's sinks merged worker state, so
		// the tree is spent afterwards: the next execution reopens.
		st.valid = false
		err = p.runParallel(ctx, st, opts)
	} else {
		err = st.drive(p.plan, opts)
	}
	if err != nil {
		return nil, err
	}
	return &st.res, nil
}

// open readies st to run p under opts. Trace participates in the reuse key:
// flipping it rebuilds the tree once, with spans drawn from an arena sized
// to the plan; after that, traced steady state recycles spans via Reset
// exactly as the untraced path recycles batches. The summary-direct fast
// path is judged here, once per open, and then recycled like the operator
// tree: its span, scratch buffers, and aggregation state all reset in
// place, so steady-state fast-path executions allocate nothing. Otherwise
// openCol opens the operator tree, materializing need at the root.
func (st *ExecState) open(p *Prepared, opts ExecOptions, need []int) error {
	st.valid = false
	st.ctl.rec = nil
	if opts.Trace {
		st.ctl.rec = trace.NewRecorder(countPlanNodes(p.plan.Root))
	}
	st.sagg = summaryAggFor(p.db, p.plan, opts)
	if st.sagg != nil {
		st.sagg.open(&st.ctl)
		st.res = ExecResult{Root: &st.sagg.node, Trace: st.sagg.sp}
	} else {
		st.ctl.prunes = prunesFor(p.db, p.plan, opts, p.prunes)
		it, width, pop, node, err := openCol(p.db, p.plan.Root, need, opts.BatchSize, p.builds, &st.ctl)
		if err != nil {
			return err
		}
		st.it = it
		st.b = batch.NewCol(width, opts.BatchSize, pop)
		st.res = ExecResult{Root: node, Trace: node.sp}
	}
	st.opts = opts
	st.valid = true
	return nil
}

// rewind readies the tree st already holds for another execution.
func (st *ExecState) rewind(db *Database) error {
	if st.ctl.rec != nil {
		st.ctl.rec.Reset()
	}
	st.res.Rows, st.res.Count = 0, 0
	st.res.Sample = nil
	st.res.Path = ""
	st.res.Approx = nil
	if st.sagg != nil {
		return nil
	}
	return st.it.rewind(db)
}

// runSummary answers from the summary-direct evaluator st opened.
func (st *ExecState) runSummary(opts ExecOptions) (*ExecResult, error) {
	st.res.Path = PathSummary
	if err := st.sagg.run(&st.ctl, &st.res, opts); err != nil {
		return nil, err
	}
	if st.ctl.err != nil {
		return nil, st.ctl.err
	}
	return &st.res, nil
}

// drive runs st's opened operator tree to exhaustion on the calling
// goroutine. A context error takes precedence over the pipeline's deferred
// one.
func (st *ExecState) drive(plan *Plan, opts ExecOptions) error {
	derr := runColumnar(&st.ctl, st.it, st.b, plan, opts, &st.res)
	if st.ctl.err != nil {
		return st.ctl.err
	}
	return derr
}
