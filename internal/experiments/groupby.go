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

// E13GroupBy is the grouped-aggregation scaling sweep: the same
// COUNT/SUM/MIN/MAX/AVG aggregate suite regenerated datalessly over
// store_sales, grouped by keys of increasing cardinality (a handful of
// stores up to thousands of customers) and executed sequentially and
// morsel-parallel. Two effects should show: throughput stays near the
// ungrouped scan rate while the group count is small (the hash-agg state
// stays cache-resident), and parallel partial aggregation pays off because
// only per-worker group tables — not row streams — are merged. Grouped
// answers are cross-checked against the row-at-a-time reference executor,
// byte for byte, at every point of the sweep.
func E13GroupBy(w io.Writer, cfg Config, workerCounts []int) error {
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
		return fmt.Errorf("E13: summary has no store_sales relation")
	}

	groupCols := []string{"ss_store_sk", "ss_promo_sk", "ss_item_sk", "ss_customer_sk"}

	fmt.Fprintf(w, "E13: GROUP BY scaling sweep over store_sales (%d rows regenerated per query; aggregates: COUNT, SUM, MIN, MAX, AVG)\n", rel.Total)
	fmt.Fprintf(w, "%-16s %-9s %-9s %-14s %-12s\n", "group_col", "groups", "workers", "elapsed", "rows/sec")
	for _, col := range groupCols {
		sql := fmt.Sprintf(
			"SELECT %s, COUNT(*), SUM(ss_quantity), MIN(ss_quantity), MAX(ss_quantity), AVG(ss_sales_price) FROM store_sales GROUP BY %s",
			col, col)
		q, err := sqlkit.Parse(sql)
		if err != nil {
			return err
		}
		plan, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			return err
		}
		ref, err := engine.ExecuteRows(regen, plan, engine.ExecOptions{SampleLimit: 1 << 20, NoSummaryAgg: true})
		if err != nil {
			return err
		}
		for _, workers := range workerCounts {
			opts := engine.ExecOptions{Parallelism: workers, NoSummaryAgg: true}
			res, elapsed, err := timeExec(regen, plan, opts, engine.Execute)
			if err != nil {
				return err
			}
			if res.Rows != ref.Rows {
				return fmt.Errorf("E13: %s w=%d: %d groups, reference %d", col, workers, res.Rows, ref.Rows)
			}
			fmt.Fprintf(w, "%-16s %-9d %-9d %-14v %-12.0f\n",
				col, res.Rows, workers, elapsed.Round(time.Microsecond), float64(rel.Total)/elapsed.Seconds())
		}
		// Sampled run: materialize every group row and hold it to the
		// reference output (the byte-identical contract, not just counts).
		res, err := engine.Execute(regen, plan, engine.ExecOptions{SampleLimit: 1 << 20, NoSummaryAgg: true})
		if err != nil {
			return err
		}
		if len(res.Sample) != len(ref.Sample) {
			return fmt.Errorf("E13: %s: %d group rows, reference %d", col, len(res.Sample), len(ref.Sample))
		}
		for i := range ref.Sample {
			for j := range ref.Sample[i] {
				if res.Sample[i][j] != ref.Sample[i][j] {
					return fmt.Errorf("E13: %s: group row %d = %v, reference %v", col, i, res.Sample[i], ref.Sample[i])
				}
			}
		}
	}
	fmt.Fprintln(w, "grouped answers identical to the row-at-a-time reference at every point")
	return nil
}
