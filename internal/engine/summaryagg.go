package engine

// Summary-direct aggregate execution: the fast path that answers
// COUNT / COUNT(col) / SUM / MIN / MAX / AVG — global or GROUP BY — straight
// from a table's relation summary in O(summary rows), without regenerating a
// single tuple. The planner attaches an OpSummaryAgg candidate to eligible
// plan shapes (Plan.SummaryAgg); execution takes it only when every summary
// row is provably exactly answerable from interval arithmetic alone, falling
// back to regeneration otherwise, so results are byte-identical to the
// regenerating executors by construction.
//
// Provability is judged per summary row by the shared row classifier
// (classify.go), which reads the row as the generator expands it: within a
// summary row of Count n, the tuple at offset w takes value
// Set.At(w mod Set.Len()) for each cycling-set column (the phase resets to
// zero at every summary row), fixed columns hold their value, unspecced
// columns hold 0, and the primary key auto-numbers globally — row j's
// tuples span [cum[j], cum[j]+n), which the classifier treats as a cycling
// set. A row is provable when at most one cycling column is "driving" —
// partially restricted by the predicate or enumerated as a GROUP BY key —
// and every cycling aggregate input coincides with it. Everything the row
// contributes is then closed-form: with
// I = S ∩ P, cycles = n/L, and Pref the first n mod L points of S,
//
//	matches  = cycles·|I| + |I ∩ Pref|
//	Σ matches = cycles·Σ(I) + Σ(I ∩ Pref)   (exact, 128-bit)
//
// and per-group counts enumerate v ∈ I with cnt(v) = cycles + [v ∈ Pref],
// which is bounded by n, so the fast path is never worse than regeneration.
//
// Accumulation reuses groupAggState — the very state behind OpGroupAgg and
// OpDistinct — so group ordering, empty-group identities, AVG truncation,
// and the ErrAggOverflow policy are shared code, not re-implementations.
//
// With ExecOptions.Approx, global (non-grouped) aggregates additionally
// accept rows with independently restricted cycling columns, estimated under
// a cross-column independence assumption with a Poisson-binomial variance;
// the result then carries ApproxInfo with a 95% confidence interval on the
// matching-row count. Grouped queries never estimate — they fall back.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cycle"
	"repro/internal/sqlkit"
	"repro/internal/synopsis"
	"repro/internal/trace"
	"repro/internal/value"
)

// ApproxInfo reports the estimation status of a summary-direct answer
// produced under ExecOptions.Approx. Estimated is false when every summary
// row was provably exact (the answer is identical to regeneration); when
// true, CI95 is the half-width of the 95% confidence interval on the
// matching-row count (COUNT answers; derived aggregates inherit its
// uncertainty scaled by their value range).
type ApproxInfo struct {
	Estimated bool    `json:"estimated"`
	CI95      float64 `json:"ci95"`
}

// aggContrib is one aggregate's exact contribution from one summary row (or
// one enumerated group value): a 128-bit sum and the min/max witnessed.
type aggContrib struct {
	sumLo, sumHi int64
	min, max     int64
}

// approxAgg accumulates one aggregate's estimated contributions.
type approxAgg struct {
	sum      float64
	min, max int64
	valid    bool
}

func (a *approxAgg) note(mn, mx int64) {
	if !a.valid {
		a.min, a.max, a.valid = mn, mx, true
		return
	}
	if mn < a.min {
		a.min = mn
	}
	if mx > a.max {
		a.max = mx
	}
}

// approxState carries the estimated half of an Approx execution; the exact
// half lives in the shared groupAggState.
type approxState struct {
	used           bool
	estCnt, varCnt float64
	aggs           []approxAgg
}

func (ap *approxState) reset() {
	ap.used = false
	ap.estCnt, ap.varCnt = 0, 0
	for i := range ap.aggs {
		ap.aggs[i] = approxAgg{}
	}
}

// summaryAggEval evaluates one OpSummaryAgg candidate against one relation
// summary. It is built once per execution (or once per prepared ExecState
// and reused), and run() allocates nothing once its scratch buffers have
// warmed up — the summary path inherits the engine's steady-state
// zero-allocation contract.
type summaryAggEval struct {
	cand *PlanNode
	rel  *synopsis.Relation
	pk   int     // primary-key column index, -1 when the table has none
	cum  []int64 // cum[j] = global tuple index of summary row j's first tuple

	countOnly bool // OpAggregate root: bare COUNT(*), no select items
	global    bool // no GROUP BY keys

	need  []int          // needed table columns, ascending
	rc    *rowClassifier // the predicate over need; rc.specs is the current row's laws
	grpOf []bool         // per need position: is a GROUP BY key

	st      *groupAggState
	contrib []aggContrib
	ap      approxState
	apInfo  ApproxInfo

	// Interval scratch, reused via write-back so steady state allocates
	// nothing: interBuf holds I = S ∩ P, prefBuf the cycle prefix, iprefBuf
	// their intersection. All uses extract scalars before the next column
	// touches them.
	interBuf value.IntervalSet
	prefBuf  value.IntervalSet
	iprefBuf value.IntervalSet

	node   ExecNode
	detail string
	sp     *trace.Span
}

// summaryAggFor returns a proven evaluator for the plan's summary-direct
// candidate, or nil when the fast path does not apply: no candidate, opted
// out, no registered summary, the table does not regenerate, or some summary
// row is not provably exact (nor estimable under opts.Approx).
func summaryAggFor(db *Database, plan *Plan, opts ExecOptions) *summaryAggEval {
	cand := plan.SummaryAgg
	if cand == nil || opts.NoSummaryAgg {
		return nil
	}
	rel := db.Summary(cand.Table)
	if rel == nil || !db.DatagenEnabled(cand.Table) {
		return nil
	}
	e := newSummaryAggEval(db, cand, rel)
	if e == nil || !e.prove(opts.Approx) {
		return nil
	}
	return e
}

func newSummaryAggEval(db *Database, cand *PlanNode, rel *synopsis.Relation) *summaryAggEval {
	t := db.Schema.Table(cand.Table)
	if t == nil {
		return nil
	}
	e := &summaryAggEval{
		cand:      cand,
		rel:       rel,
		pk:        t.PKIndex(),
		countOnly: len(cand.Items) == 0,
		global:    len(cand.GroupBy) == 0,
	}
	if cand.Pred != nil {
		for _, c := range cand.Pred.Cols {
			e.need = addCol(e.need, c)
		}
	}
	for _, c := range cand.GroupBy {
		e.need = addCol(e.need, c)
	}
	for _, a := range cand.Aggs {
		if a.Col >= 0 {
			e.need = addCol(e.need, a.Col)
		}
	}
	e.rc = newRowClassifier(e.need, cand.Pred, e.pk)
	e.grpOf = make([]bool, len(e.need))
	for _, c := range cand.GroupBy {
		e.grpOf[e.rc.pos(c)] = true
	}
	e.cum = make([]int64, len(rel.Rows))
	var run int64
	for j := range rel.Rows {
		e.cum[j] = run
		run += rel.Rows[j].Count
	}
	e.st = newGroupAggState(cand)
	e.contrib = make([]aggContrib, len(cand.Aggs))
	e.ap.aggs = make([]approxAgg, len(cand.Aggs))
	e.detail = fmt.Sprintf("%s [%d summary rows]", cand.Table, len(rel.Rows))
	return e
}

// prove classifies every summary row: the fast path runs only when each row
// either provably contributes nothing or is provably exact — or, under
// approx on a global aggregate, at least estimable (every row is).
func (e *summaryAggEval) prove(approx bool) bool {
	approx = approx && e.global
	for j := range e.rel.Rows {
		skip, ok, _ := e.judge(&e.rel.Rows[j], j)
		if !skip && !ok && !approx {
			return false
		}
	}
	return true
}

// judge classifies summary row j against the predicate (leaving its
// resolved specs in e.rc.specs) and applies the aggregate rules on top: the
// row is exact (ok) when at most one cycling column drives it — the
// predicate's restricted column or key range, or a cycling GROUP BY key —
// and every cycling aggregate input coincides with that column. drive is
// the driving column's need position, -1 when none.
func (e *summaryAggEval) judge(row *synopsis.Row, j int) (skip, ok bool, drive int) {
	c := e.rc.classify(row, e.cum[j])
	switch {
	case c.kind == rowSkip:
		return true, false, -1
	case c.kind == rowMulti:
		return false, false, -1 // two independently restricted cycling columns
	case c.pk != nil && c.drive >= 0:
		return false, false, -1 // a restricted key range and a restricted column
	}
	drive = c.drive
	if c.pk != nil {
		drive = e.rc.pkPos // the key range cycles like any set, L = n
	}
	specs := e.rc.specs
	for _, col := range e.cand.GroupBy {
		pos := e.rc.pos(col)
		if specs[pos].set == nil {
			continue
		}
		if col == e.pk {
			// Grouping by the auto-numbered key means one group per tuple:
			// enumeration would match regeneration's cost, so fall back.
			return false, false, -1
		}
		if drive >= 0 && drive != pos {
			return false, false, -1
		}
		drive = pos
	}
	for ai := range e.cand.Aggs {
		col := e.cand.Aggs[ai].Col
		if col < 0 {
			continue
		}
		if pos := e.rc.pos(col); specs[pos].set != nil && drive >= 0 && drive != pos {
			return false, false, -1
		}
	}
	return false, true, drive
}

// open mirrors the evaluation as a childless SUMMARY AGG ExecNode and, when
// traced, one span. Called once per evaluator; prepared reuse recycles the
// span through Recorder.Reset like any operator span.
func (e *summaryAggEval) open(ctl *execCtl) {
	e.node = ExecNode{Op: OpSummaryAgg.String(), Table: e.cand.Table}
	if ctl.rec != nil {
		e.sp = ctl.rec.NewSpan(e.node.Op, e.detail)
		e.node.sp = e.sp
	}
}

// run evaluates every summary row into the shared aggregation state and
// emits the result. Steady state allocates nothing (SampleLimit == 0).
//
//hydra:hotpath
func (e *summaryAggEval) run(ctl *execCtl, res *ExecResult, opts ExecOptions) error {
	if ctl.stopped() {
		return ctl.err
	}
	if e.sp != nil {
		e.sp.Begin()
	}
	e.st.reset()
	e.ap.reset()
	for j := range e.rel.Rows {
		row := &e.rel.Rows[j]
		skip, ok, drive := e.judge(row, j)
		switch {
		case skip:
		case ok:
			e.addRow(row, drive)
		default:
			// prove admitted this row only under Approx on a global
			// aggregate: estimate it.
			e.estimateRow(row)
		}
	}
	if e.ap.used {
		e.emitApprox(res, opts)
	} else {
		e.st.finish()
		if err := e.st.err; err != nil {
			if e.sp != nil {
				e.sp.ObserveEmpty()
			}
			return err
		}
		if opts.Approx {
			e.apInfo = ApproxInfo{}
			res.Approx = &e.apInfo
		}
		e.emitExact(res, opts)
	}
	e.node.OutRows = res.Rows
	if e.sp != nil {
		e.sp.Observe(res.Rows, res.Rows*int64(e.width())*8)
	}
	return nil
}

func (e *summaryAggEval) width() int {
	if e.countOnly {
		return 1
	}
	return len(e.cand.Items)
}

// addRow folds one provably exact summary row, driven by the column at need
// position drive (-1 for none), into the aggregation state.
func (e *summaryAggEval) addRow(row *synopsis.Row, drive int) {
	n := row.Count
	if drive < 0 {
		// No driving column: every tuple matches, keys are fixed, cycling
		// aggregate inputs run full independent cycles.
		e.fillKeys(-1, 0)
		for ai := range e.contrib {
			e.contrib[ai] = e.fullCycleContrib(ai, n)
		}
		e.fold(n)
		return
	}
	S := e.rc.specs[drive].set
	L := S.Len()
	cycles, rem := n/L, n%L
	I := S
	if P := e.rc.predOf(drive); P != nil {
		e.interBuf = S.IntersectInto(e.interBuf, P)
		I = e.interBuf
	}
	e.prefBuf = S.PrefixInto(e.prefBuf, rem)
	e.iprefBuf = I.IntersectInto(e.iprefBuf, e.prefBuf)
	if e.grpOf[drive] {
		// The driving column is a GROUP BY key: enumerate its matching
		// values. With zero full cycles only the prefix's values occur, so
		// the enumeration (like the whole evaluation) is bounded by n.
		if cycles == 0 {
			e.enumGroups(drive, e.iprefBuf, 0)
		} else {
			e.enumGroups(drive, I, cycles)
		}
		return
	}
	cnt := cycles*I.Len() + e.iprefBuf.Len()
	if cnt == 0 {
		return
	}
	e.fillKeys(-1, 0)
	for ai := range e.contrib {
		e.contrib[ai] = e.drivenContrib(ai, I, cycles, cnt)
	}
	e.fold(cnt)
}

// enumGroups walks the driving column's matching values, contributing one
// group observation per value with its exact tuple count.
func (e *summaryAggEval) enumGroups(epos int, over value.IntervalSet, cycles int64) {
	for _, iv := range over {
		for v := iv.Lo; v < iv.Hi; v++ {
			cnt := cycles
			if e.iprefBuf.Contains(v) {
				cnt++
			}
			if cnt == 0 {
				continue
			}
			e.fillKeys(epos, v)
			for ai := range e.contrib {
				e.contrib[ai] = e.pointContrib(ai, v, cnt)
			}
			e.fold(cnt)
		}
	}
}

// fillKeys assembles the group key tuple: the driving column (at need
// position epos) takes v, every other key is fixed by classification.
func (e *summaryAggEval) fillKeys(epos int, v int64) {
	for ki, c := range e.cand.GroupBy {
		pos := e.rc.pos(c)
		if pos == epos {
			e.st.keyBuf[ki] = v
		} else {
			e.st.keyBuf[ki] = e.rc.specs[pos].fixed
		}
	}
}

// fold merges one observation (cnt tuples with e.contrib's aggregate
// contributions) into the shared groupAggState, mirroring observe+merge.
func (e *summaryAggEval) fold(cnt int64) {
	st := e.st
	var g int32
	if len(st.groupBy) == 0 {
		g = 0
	} else {
		g = st.lookup(st.keyBuf)
	}
	st.counts[g] += cnt
	for ai := range st.aggs {
		c := &e.contrib[ai]
		switch st.aggs[ai].Fn {
		case sqlkit.AggSum, sqlkit.AggAvg:
			s, carry := bits.Add64(uint64(st.accs[ai][g]), uint64(c.sumLo), 0)
			st.accs[ai][g] = int64(s)
			st.accsHi[ai][g] += c.sumHi + int64(carry)
		case sqlkit.AggMin:
			if c.min < st.accs[ai][g] {
				st.accs[ai][g] = c.min
			}
		case sqlkit.AggMax:
			if c.max > st.accs[ai][g] {
				st.accs[ai][g] = c.max
			}
		}
	}
}

// fullCycleContrib is aggregate ai's contribution when all n tuples match:
// a fixed input contributes n·f, a cycling input its full cycles plus the
// phase prefix.
func (e *summaryAggEval) fullCycleContrib(ai int, n int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{} // COUNT: answered from the group's tuple count
	}
	r := &e.rc.specs[e.rc.pos(c)]
	if r.set == nil {
		lo, hi := cycle.Mul128(r.fixed, n)
		return aggContrib{sumLo: lo, sumHi: hi, min: r.fixed, max: r.fixed}
	}
	S := r.set
	cycles, rem := n/S.Len(), n%S.Len()
	e.prefBuf = S.PrefixInto(e.prefBuf, rem)
	slo, shi := cycle.SumSet128(S)
	plo, phi := cycle.SumSet128(e.prefBuf)
	lo, hi := cycle.MulAcc128(plo, phi, slo, shi, cycles)
	out := aggContrib{sumLo: lo, sumHi: hi}
	if cycles >= 1 {
		out.min, out.max = S.Min(), S.Max()
	} else {
		out.min, out.max = e.prefBuf.Min(), e.prefBuf.Max()
	}
	return out
}

// drivenContrib is aggregate ai's contribution when the driving column
// restricts the row to cnt tuples: a fixed input contributes cnt·f; a
// cycling input is the driving column itself (classification guarantees
// coincidence), summing its matching values weighted by occurrences.
func (e *summaryAggEval) drivenContrib(ai int, I value.IntervalSet, cycles, cnt int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{}
	}
	r := &e.rc.specs[e.rc.pos(c)]
	if r.set == nil {
		lo, hi := cycle.Mul128(r.fixed, cnt)
		return aggContrib{sumLo: lo, sumHi: hi, min: r.fixed, max: r.fixed}
	}
	slo, shi := cycle.SumSet128(I)
	plo, phi := cycle.SumSet128(e.iprefBuf)
	lo, hi := cycle.MulAcc128(plo, phi, slo, shi, cycles)
	out := aggContrib{sumLo: lo, sumHi: hi}
	if cycles >= 1 {
		out.min, out.max = I.Min(), I.Max()
	} else {
		out.min, out.max = e.iprefBuf.Min(), e.iprefBuf.Max()
	}
	return out
}

// pointContrib is aggregate ai's contribution from cnt tuples whose driving
// column holds v.
func (e *summaryAggEval) pointContrib(ai int, v, cnt int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{}
	}
	r := &e.rc.specs[e.rc.pos(c)]
	x := r.fixed
	if r.set != nil {
		x = v // the input is the driving column, by classification
	}
	lo, hi := cycle.Mul128(x, cnt)
	return aggContrib{sumLo: lo, sumHi: hi, min: x, max: x}
}

// estimateRow folds one non-provable summary row into the approximate
// accumulators: cycling predicate columns are treated as independent, so
// the row matches with probability frac = Π mᵢ/Lᵢ, contributing n·frac
// expected rows with per-row variance frac·(1−frac). Classification has
// already resolved e.rc.specs for this row.
func (e *summaryAggEval) estimateRow(row *synopsis.Row) {
	n := row.Count
	frac := 1.0
	if p := e.cand.Pred; p != nil {
		for i, c := range p.Cols {
			r := &e.rc.specs[e.rc.pos(c)]
			if r.set == nil {
				continue // contained, or classification would have skipped
			}
			frac *= float64(r.set.IntersectLen(p.Sets[i])) / float64(r.set.Len())
		}
	}
	if frac <= 0 {
		return
	}
	est := float64(n) * frac
	ap := &e.ap
	ap.used = true
	ap.estCnt += est
	ap.varCnt += float64(n) * frac * (1 - frac)
	for ai := range e.cand.Aggs {
		c := e.cand.Aggs[ai].Col
		if c < 0 {
			continue
		}
		a := &ap.aggs[ai]
		r := &e.rc.specs[e.rc.pos(c)]
		if r.set == nil {
			a.sum += float64(r.fixed) * est
			a.note(r.fixed, r.fixed)
			continue
		}
		// Sum the input over its own matching offsets, then scale by the
		// probability the other columns match too.
		S := r.set
		cycles, rem := n/S.Len(), n%S.Len()
		I := S
		fracD := 1.0
		if P := e.rc.predOf(e.rc.pos(c)); P != nil {
			e.interBuf = S.IntersectInto(e.interBuf, P)
			I = e.interBuf
			fracD = float64(I.Len()) / float64(S.Len())
		}
		e.prefBuf = S.PrefixInto(e.prefBuf, rem)
		e.iprefBuf = I.IntersectInto(e.iprefBuf, e.prefBuf)
		own := float64(cycles)*cycle.SumSetFloat(I) + cycle.SumSetFloat(e.iprefBuf)
		if fracD > 0 {
			a.sum += own * frac / fracD
		}
		if !I.Empty() {
			a.note(I.Min(), I.Max())
		}
	}
}

// emitExact writes the result in the regenerating executors' conventions:
// COUNT(*) is one row carrying the count; grouped output is one row per
// group in the shared deterministic order, sampled on request.
func (e *summaryAggEval) emitExact(res *ExecResult, opts ExecOptions) {
	st := e.st
	if e.countOnly {
		total := st.counts[0]
		res.Rows, res.Count = 1, total
		if opts.SampleLimit > 0 {
			//hydralint:ignore hotpath sampled rows escape to the caller by design; SampleLimit>0 is off the steady-state path
			res.Sample = append(res.Sample, []int64{total})
		}
		return
	}
	res.Rows = int64(len(st.order))
	if opts.SampleLimit > 0 {
		for i := 0; i < len(st.order) && len(res.Sample) < opts.SampleLimit; i++ {
			g := st.order[i]
			out := make([]int64, len(e.cand.Items))
			for oc, it := range e.cand.Items {
				out[oc] = st.value(it, g)
			}
			res.Sample = append(res.Sample, out)
		}
	}
}

// emitApprox combines the exact and estimated halves into one global answer.
// SUM/AVG totals are carried in float64 and clamped into int64 rather than
// overflow-checked — an estimated answer has no exactness to protect.
func (e *summaryAggEval) emitApprox(res *ExecResult, opts ExecOptions) {
	st := e.st
	ap := &e.ap
	totalF := float64(st.counts[0]) + ap.estCnt
	cnt := cycle.ClampInt64(math.Round(totalF))
	e.apInfo = ApproxInfo{Estimated: true, CI95: 1.96 * math.Sqrt(ap.varCnt)}
	res.Approx = &e.apInfo
	if e.countOnly {
		res.Rows, res.Count = 1, cnt
		if opts.SampleLimit > 0 {
			//hydralint:ignore hotpath sampled rows escape to the caller by design; SampleLimit>0 is off the steady-state path
			res.Sample = append(res.Sample, []int64{cnt})
		}
		return
	}
	res.Rows = 1 // a global aggregate always answers one row
	if opts.SampleLimit > 0 {
		out := make([]int64, len(e.cand.Items))
		for oc, it := range e.cand.Items {
			out[oc] = e.approxValue(it, cnt, totalF)
		}
		res.Sample = append(res.Sample, out)
	}
}

// approxValue finalizes one output column of an estimated global answer.
func (e *summaryAggEval) approxValue(it GroupOut, cnt int64, totalF float64) int64 {
	st := e.st
	ai := it.Agg
	a := &e.ap.aggs[ai]
	exactCnt := st.counts[0]
	switch st.aggs[ai].Fn {
	case sqlkit.AggCount:
		return cnt
	case sqlkit.AggSum, sqlkit.AggAvg:
		total := cycle.Sum128Float(st.accs[ai][0], st.accsHi[ai][0]) + a.sum
		if st.aggs[ai].Fn == sqlkit.AggAvg {
			if totalF <= 0 {
				return 0
			}
			return cycle.ClampInt64(math.Trunc(total / totalF))
		}
		return cycle.ClampInt64(total)
	case sqlkit.AggMin:
		switch {
		case exactCnt > 0 && a.valid:
			return min(st.accs[ai][0], a.min)
		case exactCnt > 0:
			return st.accs[ai][0]
		case a.valid:
			return a.min
		}
		return 0
	case sqlkit.AggMax:
		switch {
		case exactCnt > 0 && a.valid:
			return max(st.accs[ai][0], a.max)
		case exactCnt > 0:
			return st.accs[ai][0]
		case a.valid:
			return a.max
		}
		return 0
	}
	return 0
}
