package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// E14TopK is the top-K vs full-sort sweep: the same ORDER BY query
// regenerated datalessly over store_sales, once as a full sort (no LIMIT)
// and then bounded by LIMITs of decreasing k. The planner pushes the bound
// into the sort (PlanNode.SortBound), which swaps the O(n log n) full sort
// of n collected rows for an n·log k bounded max-heap holding k rows — so
// elapsed time should fall and throughput rise as k shrinks, while the full
// sort sets the baseline. Every point is cross-checked row for row against
// the row-pivot reference executor, and the sweep also runs morsel-parallel
// (per-worker bounded partial sorts, merged and re-cut) to show the bound
// composes with partitioning.
func E14TopK(w io.Writer, cfg Config, limits []int) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	regen := core.RegenDatabase(sum, 0)
	rel := sum.Relations["store_sales"]
	if rel == nil {
		return fmt.Errorf("E14: summary has no store_sales relation")
	}

	const orderBy = "SELECT * FROM store_sales ORDER BY ss_sales_price DESC, ss_quantity"
	variants := []struct {
		label string
		sql   string
	}{{"full sort", orderBy}}
	for _, k := range limits {
		variants = append(variants, struct{ label, sql string }{
			fmt.Sprintf("top-%d", k), fmt.Sprintf("%s LIMIT %d", orderBy, k),
		})
	}

	fmt.Fprintf(w, "E14: top-K vs full-sort sweep over store_sales (%d rows regenerated and sorted per query)\n", rel.Total)
	fmt.Fprintf(w, "%-12s %-10s %-9s %-14s %-12s %-10s\n", "variant", "rows_out", "workers", "elapsed", "rows/sec", "vs_full")
	var fullRate float64
	for i, v := range variants {
		q, err := sqlkit.Parse(v.sql)
		if err != nil {
			return err
		}
		plan, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			return err
		}
		ref, err := engine.ExecuteRows(regen, plan, engine.ExecOptions{SampleLimit: 1 << 20})
		if err != nil {
			return err
		}
		for _, workers := range []int{0, 2} {
			opts := engine.ExecOptions{SampleLimit: 1 << 20, Parallelism: workers}
			res, elapsed, err := timeExec(regen, plan, opts, engine.Execute)
			if err != nil {
				return err
			}
			if res.Rows != ref.Rows || len(res.Sample) != len(ref.Sample) {
				return fmt.Errorf("E14: %s w=%d: %d rows, reference %d", v.label, workers, res.Rows, ref.Rows)
			}
			for ri := range ref.Sample {
				for ci := range ref.Sample[ri] {
					if res.Sample[ri][ci] != ref.Sample[ri][ci] {
						return fmt.Errorf("E14: %s w=%d: row %d = %v, reference %v", v.label, workers, ri, res.Sample[ri], ref.Sample[ri])
					}
				}
			}
			rate := float64(rel.Total) / elapsed.Seconds()
			if i == 0 && workers == 0 {
				fullRate = rate
			}
			fmt.Fprintf(w, "%-12s %-10d %-9d %-14v %-12.0f %-10.2f\n",
				v.label, res.Rows, workers, elapsed.Round(time.Microsecond), rate, rate/fullRate)
		}
	}
	fmt.Fprintln(w, "sorted output identical to the row-pivot reference at every point")
	return nil
}
