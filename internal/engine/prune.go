package engine

// Predicate pushdown into generation: because a datagen table is a pure
// function of its registered summary, a filter over it can be evaluated
// against the summary *before* any tuple exists. prunePred runs the shared
// per-row classifier (classify.go) over every summary row and turns its
// verdict into tuple positions:
//
//   - skip: the row provably contributes nothing (a fixed or unspecced
//     value outside the predicate, a cycling set disjoint from it, or a
//     primary-key range that misses) — the whole row is skipped and its
//     tuples are never generated.
//   - full: every tuple matches; the whole row is kept.
//   - driven: the driving cycling column's matching cycle offsets are
//     computed in closed form (cycle.Ranks) and expanded to the row's
//     matching global positions (cycle.Positions), clipped by any
//     primary-key position restriction, so only σ's tuples are generated.
//   - residual: anything the summary cannot decide exactly — a second
//     independently restricted cycling column, or a position set too
//     fragmented to enumerate — keeps a superset of the row's tuples (the
//     first driving column's positions, or the whole row) and leaves the
//     full MatchVec filter in place.
//
// The result is a qualifying row-space: an ascending, disjoint list of
// [lo,hi) global-row intervals the scan iterates instead of [0, Total).
// When no row needed a residual the filter operator is dropped entirely
// (absorbed); otherwise the residual filter re-checks the generated rows,
// which is exact because pruning only ever removes provably-failing tuples
// and never reorders the survivors.

import (
	"repro/internal/batch"
	"repro/internal/cycle"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// rowSpaceSource is the capability the pruned scan needs from a datagen
// source: opening an independent sub-source restricted to a set of
// qualifying global-row intervals. generator.Stream implements it
// (SectionSet); sources that don't — paced streams, caller-supplied
// datagen — simply scan unpruned.
type rowSpaceSource interface {
	SectionSet(ivs []value.Interval) batch.ColProjector
}

// scanPrune is the precomputed qualifying row-space for one OpFilter node
// whose child scans a summary-backed datagen table.
type scanPrune struct {
	table    string
	ivs      []value.Interval // qualifying [lo,hi) global-row intervals, ascending, disjoint
	total    int64            // rows in ivs
	pruned   int64            // rel.Total − total: tuples never generated
	skipped  int64            // summary rows excluded entirely
	absorbed bool             // every conjunct proven: drop the filter operator
}

// add appends a qualifying interval, merging adjacency so the row-space
// stays canonical (consecutive fully-qualifying summary rows become one
// interval).
func (pr *scanPrune) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	pr.total += hi - lo
	if k := len(pr.ivs); k > 0 && pr.ivs[k-1].Hi == lo {
		pr.ivs[k-1].Hi = hi
		return
	}
	pr.ivs = append(pr.ivs, value.Ival(lo, hi))
}

// pruneCache maps OpFilter plan nodes to their qualifying row-space. It is
// computed once per plan (at Prepare time for prepared statements) and
// shared by every executor front, so all of them make identical prune
// decisions — a precondition for the byte-parity and span-shape invariants.
type pruneCache map[*PlanNode]*scanPrune

// prunesFor resolves the prune cache for one execution: the opt-out yields
// nil (every lookup misses), a prepared statement passes its cached spaces
// through, and ad-hoc execution computes them fresh.
func prunesFor(db *Database, plan *Plan, opts ExecOptions, cached pruneCache) pruneCache {
	if opts.NoScanPrune {
		return nil
	}
	if cached != nil {
		return cached
	}
	return buildPruneCache(db, plan)
}

// buildPruneCache walks the plan for filter-over-scan shapes on
// summary-backed datagen tables and precomputes each one's qualifying
// row-space. Filters that prune nothing and absorb nothing are left out —
// their scans run exactly as before.
func buildPruneCache(db *Database, plan *Plan) pruneCache {
	prunes := make(pruneCache)
	var walk func(pn *PlanNode)
	walk = func(pn *PlanNode) {
		for _, c := range pn.Children {
			walk(c)
		}
		if pn.Op != OpFilter || len(pn.Children) != 1 || pn.Children[0].Op != OpScan {
			return
		}
		table := pn.Children[0].Table
		if pn.Pred == nil || pn.Pred.Table != table || !db.DatagenEnabled(table) {
			return
		}
		rel := db.Summary(table)
		if rel == nil {
			return
		}
		t := db.Schema.Table(table)
		if t == nil {
			return
		}
		if pr := prunePred(pn, rel, t.PKIndex()); pr != nil {
			prunes[pn] = pr
		}
	}
	walk(plan.Root)
	return prunes
}

// prunePred classifies every summary row of rel against the filter's
// compiled region and assembles the qualifying row-space. Returns nil when
// pruning would change nothing (nothing pruned, nothing absorbed).
func prunePred(pn *PlanNode, rel *synopsis.Relation, pkIdx int) *scanPrune {
	p := pn.Pred
	pr := &scanPrune{table: p.Table, absorbed: true}
	rc := newRowClassifier(p.Cols, p, pkIdx)
	var (
		interBuf value.IntervalSet // S ∩ P scratch
		rankBuf  value.IntervalSet // cycle.Ranks scratch
		posBuf   value.IntervalSet // cycle.Positions scratch
		clipBuf  value.IntervalSet // positions ∩ pk restriction scratch
	)
	var base int64
	for j := range rel.Rows {
		row := &rel.Rows[j]
		n := row.Count
		if n == 0 {
			continue
		}
		rowBase := base
		base += n

		c := rc.classify(row, rowBase)
		if c.kind == rowSkip {
			pr.skipped++
			continue
		}
		if c.kind == rowMulti {
			pr.absorbed = false
		}

		// Assemble this row's qualifying positions: the driving column's
		// closed-form position set if one exists (and stays compact),
		// clipped by any pk restriction. restricted tells an empty
		// restriction (skip the row) from none (keep it whole).
		var pos value.IntervalSet
		restricted := false
		if c.drive >= 0 {
			drive, driveP := rc.specs[c.drive].set, rc.predOf(c.drive)
			L := drive.Len()
			interBuf = drive.IntersectInto(interBuf, driveP)
			rankBuf = cycle.Ranks(rankBuf, drive, interBuf)
			cycles := (n + L - 1) / L
			if cycles*int64(len(rankBuf)) > n/8+4 {
				// Enumerating would fragment the row-space beyond the win:
				// keep the whole row and let the residual filter decide.
				pr.absorbed = false
			} else {
				pos = cycle.Positions(posBuf, rowBase, n, L, rankBuf)
				posBuf = pos
				restricted = true
			}
		}
		if c.pk != nil {
			if restricted {
				clipBuf = pos.IntersectInto(clipBuf, c.pk)
				pos = clipBuf
			} else {
				pos = c.pk
				restricted = true
			}
		}
		if !restricted {
			pr.add(rowBase, rowBase+n)
			continue
		}
		if len(pos) == 0 {
			pr.skipped++
			continue
		}
		for _, iv := range pos {
			pr.add(iv.Lo, iv.Hi)
		}
	}
	pr.pruned = rel.Total - pr.total
	if pr.pruned == 0 && !pr.absorbed {
		return nil // nothing gained: no rows pruned, filter still needed
	}
	return pr
}
