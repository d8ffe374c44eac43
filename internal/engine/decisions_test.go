package engine_test

// Decision-parity golden: the per-summary-row classifier behind scan pruning
// and summary-direct aggregation must keep making the same decisions on the
// traffic the benchmark serves. testdata/decisions.golden records, for every
// query of the TPC-DS workloads at scale factor 0.25 (seed 7, the captured
// Workload(131, 11) plus GroupWorkload and SortWorkload), each pruned
// filter's qualifying row-space (interval count, an FNV-1a hash of the
// interval list, tuples kept, tuples pruned, summary rows skipped, whether
// the filter was absorbed) and whether summary-direct claims the query,
// exactly and under Approx. The record was taken from the two classifier
// copies this package had before they were unified; a mismatch means a
// decision changed, not that the golden needs refreshing.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/tpcds"
)

// decisionLines renders one line per query: workload tag, index, the
// summary-direct claims, then one field per pruned filter.
func decisionLines(t *testing.T, db *engine.Database, tag string, queries []string) []string {
	t.Helper()
	var out []string
	for qi, sql := range queries {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatalf("%s %d: %v", tag, qi, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatalf("%s %d: %v", tag, qi, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %d direct=%t approx=%t", tag, qi,
			engine.SummaryDirectClaims(db, plan, false), engine.SummaryDirectClaims(db, plan, true))
		for _, d := range engine.PruneDecisions(db, plan) {
			h := fnv.New64a()
			var kept int64
			for _, iv := range d.Intervals {
				h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(iv.Lo)), uint64(iv.Hi)))
				kept += iv.Hi - iv.Lo
			}
			fmt.Fprintf(&b, " | %s ivs=%d hash=%016x kept=%d pruned=%d skipped=%d absorbed=%t",
				d.Table, len(d.Intervals), h.Sum64(), kept, d.Pruned, d.Skipped, d.Absorbed)
		}
		out = append(out, b.String())
	}
	return out
}

func TestDecisionParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a TPC-DS summary")
	}
	s := tpcds.Schema(0.25)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.Workload(131, 11)
	pkg, err := core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := core.RegenDatabase(sum, 0)
	var got []string
	got = append(got, decisionLines(t, regen, "workload", queries)...)
	got = append(got, decisionLines(t, regen, "group", tpcds.GroupWorkload())...)
	got = append(got, decisionLines(t, regen, "sort", tpcds.SortWorkload())...)

	f, err := os.Open("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d decision lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("decision changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
