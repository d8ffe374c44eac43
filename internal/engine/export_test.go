package engine

import "repro/internal/value"

// PruneDecision is one filter-over-scan node's precomputed qualifying
// row-space, exported for the decision-parity golden (decisions_test.go).
type PruneDecision struct {
	Table     string
	Intervals []value.Interval
	Pruned    int64
	Skipped   int64
	Absorbed  bool
}

// PruneDecisions returns the prune decisions the engine makes for plan,
// in plan post-order (the order buildPruneCache visits filters).
func PruneDecisions(db *Database, plan *Plan) []PruneDecision {
	cache := buildPruneCache(db, plan)
	var out []PruneDecision
	var walk func(pn *PlanNode)
	walk = func(pn *PlanNode) {
		for _, c := range pn.Children {
			walk(c)
		}
		if pr := cache[pn]; pr != nil {
			out = append(out, PruneDecision{Table: pr.table, Intervals: pr.ivs, Pruned: pr.pruned, Skipped: pr.skipped, Absorbed: pr.absorbed})
		}
	}
	walk(plan.Root)
	return out
}

// SummaryDirectClaims reports whether the summary-direct fast path claims
// plan under default options (approx=false) or under ExecOptions.Approx.
func SummaryDirectClaims(db *Database, plan *Plan, approx bool) bool {
	return summaryAggFor(db, plan, ExecOptions{Approx: approx}) != nil
}
