package engine

import (
	"context"
	"sort"

	"repro/internal/batch"
	"repro/internal/parallel"
)

// Morsel-driven parallel execution is the engine's one driver
// (Prepared.execute) with the plan's probe spine fanned out. Because a
// dataless scan is a pure function of the summary — any row range of a
// relation can be generated independently — the spine below the root sinks
// (scan → optional filter → hash-join probes) splits into contiguous
// row-range morsels of its leaf scan, which workers pull from a shared
// atomic queue.
//
// By the time runParallel starts, the driver has opened the real tree
// through openCol exactly as for sequential execution: the leaf's source is
// open (its DatagenFunc ran once), scan pruning has been applied, and every
// hash-join build side has been drained into a read-only colJoinBuild arena
// (or came from the prepared build cache). Worker 0 drives that tree's
// probe spine itself; every other worker opens its own — under its own copy
// of the bottom sink, when there is one — through openCol too, against a
// buildCache of those shared arenas. Each points its scan leaf at one
// morsel Section after another. A leaf whose source cannot be partitioned
// (a velocity-paced stream, a caller-supplied datagen source) runs the
// already-open tree sequentially instead, with the identical result.
//
// Root sinks — COUNT(*), GROUP BY, DISTINCT, ORDER BY, LIMIT — compose via
// the partial-state/merge contract of sink.go rather than parallel-specific
// operator code: each worker folds its morsels into its own bottom sink's
// state (worker 0 into the real bottom sink's), the partials merge into the
// real one in worker-index order, and the real bottom sink emits the merged
// state under whatever sinks sit above it. The merge is deterministic end
// to end: the other workers' spine counts and spans fold into the real
// spine in worker order, walking each worker tree in lockstep with the real
// one; sink states merge order-insensitively (exact 128-bit sums;
// total-order sorting); and sample rows are re-assembled in morsel order —
// so the ExecResult is byte-identical to the sequential one, regardless of
// worker count or scheduling.

// isRootSink reports whether op is a blocking root operator handled by the
// sink framework (everything that is not part of the probe spine).
func isRootSink(op OpKind) bool {
	switch op {
	case OpAggregate, OpGroupAgg, OpDistinct, OpSort, OpLimit:
		return true
	}
	return false
}

// runParallel drives st's opened tree on opts.Parallelism workers, leaving
// the sequential-identical result in st.res. Workers observe ctx per
// morsel and — through their scan leaves — per batch; the first real worker
// error cancels the siblings, and pure cancellation surfaces the context's
// own error deterministically (parallel.RunCtx).
func (p *Prepared) runParallel(ctx context.Context, st *ExecState, opts ExecOptions) error {
	// Peel the root sinks off the real tree, resolving each one's need
	// top-down as openCol did. bottom is the innermost sink, nil when the
	// plan is pure spine; pn, it and node are then the spine's top.
	var bottom *PlanNode
	var bottomIt colIterator
	var bottomNeed []int
	pn, it, node, need := p.plan.Root, st.it, st.res.Root, rootNeed(p.plan, opts)
	for isRootSink(pn.Op) {
		bottom, bottomIt, bottomNeed = pn, it, need
		need = pn.childNeeds(need)[0]
		pn, it, node = pn.Children[0], probeChild(it), node.Children[0]
	}
	leaf := it
	for c := probeChild(leaf); c != nil; c = probeChild(c) {
		leaf = c
	}
	scan := leaf.(*colScanIter)
	src, ok := scan.src.(parallel.Source)
	if !ok {
		return st.drive(p.plan, opts)
	}

	workers := opts.Parallelism
	total := src.Total()
	size := morselRows(total, workers, opts.BatchSize)
	// A worker beyond the morsel count would open a spine only to find the
	// queue empty; clamping costs nothing and changes nothing (the merge is
	// a sum). The clamp depends only on plan and options, so determinism is
	// preserved.
	if n := (total + size - 1) / size; int64(workers) > n {
		workers = max(int(n), 1)
	}
	morsels := parallel.NewMorsels(total, size)

	// Workers other than 0 probe the real tree's build arenas: the prepared
	// cache, or the ones this execution just drained.
	builds := p.builds
	if builds == nil && workers > 1 {
		builds = make(buildCache)
		for jpn, jit := pn, it; jpn.Op == OpHashJoin; jpn, jit = jpn.Children[0], probeChild(jit) {
			ji := jit.(*colHashJoinIter)
			builds[jpn] = &preparedBuild{jb: ji.build, node: ji.node.Children[1]}
		}
	}

	// A sink with state (COUNT(*), GROUP BY, DISTINCT, ORDER BY) at the
	// bottom is opened by every worker over its spine; otherwise rows flow
	// out of the spine, and workers collect morsel-tagged sample runs — up
	// to offset+SampleLimit rows per morsel under a root LIMIT.
	sink, _ := bottomIt.(*colSinkIter)
	wpn, wneed := pn, need
	var runCap int64
	if sink != nil {
		wpn, wneed = bottom, bottomNeed
	} else if opts.SampleLimit > 0 {
		runCap = int64(opts.SampleLimit)
		if bottom != nil {
			runCap += bottom.Offset
		}
	}
	// Worker 0 drives the real tree itself. The others open their own
	// trees here, on the calling goroutine, because the span recorder is
	// not concurrency-safe: they record into private spans that fold into
	// the real ones after the pool joins.
	wks := make([]*parallelWorker, workers)
	wks[0] = &parallelWorker{ctl: &st.ctl, spine: it, node: node, b: st.b}
	if sink != nil {
		wks[0].b, wks[0].part = sink.buf, sink.st
	}
	for w := 1; w < workers; w++ {
		wk := &parallelWorker{ctl: &execCtl{rec: st.ctl.rec, morsel: true}}
		if scan.pruned {
			wk.ctl.prunes = st.ctl.prunes
		}
		wit, width, pop, wnode, err := openCol(p.db, wpn, wneed, opts.BatchSize, builds, wk.ctl)
		if err != nil {
			return err
		}
		if sink != nil {
			ws := wit.(*colSinkIter)
			wk.spine, wk.node, wk.b, wk.part = ws.child, wnode.Children[0], ws.buf, ws.st
		} else {
			wk.spine, wk.node, wk.b = wit, wnode, batch.NewCol(width, opts.BatchSize, pop)
		}
		wks[w] = wk
	}

	err := parallel.RunCtx(ctx, workers, func(wctx context.Context, w int) error {
		wk := wks[w]
		// Each worker owns its cancellation control (latching is
		// single-goroutine state) over the pool's shared child context;
		// worker 0 borrows the driver's until the pool joins.
		wk.ctl.bind(wctx)
		for {
			if wk.ctl.stopped() {
				// Drain cleanly: abandon remaining morsels, surface the
				// context error for deterministic selection in RunCtx.
				return wk.ctl.err
			}
			lo, hi, ok := morsels.Next()
			if !ok {
				return nil
			}
			point(wk.spine, src.Section(lo, hi))
			run := sampleRun{lo: lo}
			for wk.spine.Next(wk.b) {
				live := wk.b.Live()
				wk.rows += int64(live)
				if wk.part != nil {
					wk.part.observe(wk.b) // infallible; totals are judged at merge-side finish
					continue
				}
				for i := 0; int64(len(run.rows)) < runCap && i < live; i++ {
					row := make([]int64, wk.b.Width())
					wk.b.LiveRow(i, row)
					run.rows = append(run.rows, row)
				}
			}
			if len(run.rows) > 0 {
				wk.runs = append(wk.runs, run)
			}
		}
	})
	st.ctl.bind(ctx)
	if err != nil {
		return err
	}

	// Deterministic merge: spine sums are schedule-independent, sink
	// partials fold in worker order, and output runs reassemble in morsel
	// (= sequential row) order.
	rows := wks[0].rows
	for _, wk := range wks[1:] {
		mergeSpine(node, wk.node)
		rows += wk.rows
	}
	if sink != nil {
		// The real bottom sink — worker 0's partial — takes the others'
		// partials and emits the merged state, on the calling goroutine
		// under the driver's own control: a cancellation arriving during a
		// large merged-sort emit still unwinds at the next batch boundary.
		for _, wk := range wks[1:] {
			sink.st.merge(wk.part)
		}
		sink.st.finish()
		sink.drained = true
		return st.drive(p.plan, opts)
	}
	var skip int64
	if bottom != nil {
		// LIMIT — always the outermost sink — over the bare spine: pure
		// arithmetic over the merged count, with sample rows cut from the
		// morsel-ordered runs. No operator ran for it, so its cardinality
		// is mirrored into its span to keep traced shapes mode-invariant.
		skip = bottom.Offset
		rows = min(max(rows-bottom.Offset, 0), bottom.Limit)
		if sp := st.res.Root.sp; sp != nil {
			sp.Rows = rows
		}
	}
	st.res.Rows = rows
	st.res.Sample = mergedRunRows(wks, skip, rows, opts.SampleLimit)
	st.res.Root.OutRows = rows
	return nil
}

// point aims a worker's spine at one morsel: its scan leaf reads section
// and every join drops its probe cursor. Cardinalities keep accumulating
// across morsels.
func point(it colIterator, section batch.ColProjector) {
	for ; it != nil; it = probeChild(it) {
		switch t := it.(type) {
		case *colScanIter:
			t.src = section
		case *colHashJoinIter:
			t.reset()
		}
	}
}

// mergeSpine folds a worker's spine into the real one: cardinalities sum
// and spans merge node by node, walking both trees down their probe sides
// in lockstep (openCol opened them in the same shape).
func mergeSpine(into, w *ExecNode) {
	for {
		into.OutRows += w.OutRows
		if into.sp != nil {
			into.sp.Merge(w.sp)
		}
		if len(into.Children) == 0 {
			return
		}
		into, w = into.Children[0], w.Children[0]
	}
}

// morselRows picks the scheduling granule: bounded above by the default
// morsel size, bounded below by the batch capacity (a morsel smaller than
// one batch would only add setup overhead), and scaled so every worker
// sees several morsels even on small relations.
func morselRows(total int64, workers, batchSize int) int64 {
	if batchSize <= 0 {
		batchSize = batch.DefaultCap
	}
	m := total / int64(workers*4)
	if m > parallel.DefaultMorselRows {
		m = parallel.DefaultMorselRows
	}
	if b := int64(batchSize); m < b {
		m = b
	}
	return m
}

// sampleRun is the output rows one worker collected from one morsel, tagged
// with the morsel's row offset so the sequential output order can be
// reassembled deterministically. The plain spine collects up to SampleLimit
// rows per morsel; a root LIMIT collects up to offset+SampleLimit, since the
// true first offset+k output rows are contained in the first offset+k of
// each morsel.
type sampleRun struct {
	lo   int64
	rows [][]int64
}

// parallelWorker is one worker's probe spine — the real tree's for worker
// 0, its own for the others — and what it accumulates across morsels: the
// live rows its spine produced, morsel-tagged output runs when rows (not
// sink partials) flow out of the spine, and otherwise the partial state of
// its bottom sink (the partial-state half of the partial-state/merge
// contract).
type parallelWorker struct {
	ctl   *execCtl
	spine colIterator     // re-pointed at each morsel (point)
	node  *ExecNode       // the spine's ExecNode mirror
	b     *batch.ColBatch // spine output batch
	part  sinkState       // nil when rows flow out of the spine
	rows  int64
	runs  []sampleRun
}

// mergedRunRows reassembles the workers' morsel-tagged output runs in
// sequential row order and returns the sample: up to sampleLimit rows after
// skipping skip rows, capped at emit rows total.
func mergedRunRows(wks []*parallelWorker, skip, emit int64, sampleLimit int) [][]int64 {
	if sampleLimit <= 0 || emit <= 0 {
		return nil
	}
	var runs []sampleRun
	for _, wk := range wks {
		runs = append(runs, wk.runs...)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].lo < runs[j].lo })
	var out [][]int64
	var skipped, taken int64
	for _, r := range runs {
		for _, row := range r.rows {
			if skipped < skip {
				skipped++
				continue
			}
			if taken >= emit || len(out) >= sampleLimit {
				return out
			}
			out = append(out, row)
			taken++
		}
	}
	return out
}
