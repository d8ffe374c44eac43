package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/summary"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// TestBuilderOutputIsCanonical: the vendor builder's summaries pass the
// strict summary boundary (summary.Database.Validate: canonical interval
// sets, one spec per column, no key specs, in-domain codes, no count
// overflow) on the toy and TPC-DS workloads at three seeds each — the
// canonical rules reject malformed input, never the builder's own output.
func TestBuilderOutputIsCanonical(t *testing.T) {
	build := func(t *testing.T, db *engine.Database, queries []string) {
		t.Helper()
		pkg, err := CaptureClient(db, queries, CaptureOptions{SkipStats: true})
		if err != nil {
			t.Fatal(err)
		}
		sum, _, err := BuildFromPackage(pkg, summary.DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		db, err := toy.Database(seed)
		if err != nil {
			t.Fatal(err)
		}
		build(t, db, toy.Workload())
	}
	if testing.Short() {
		return
	}
	for _, seed := range []int64{3, 7, 11} {
		db, err := tpcds.GenerateDatabase(tpcds.Schema(0.25), seed)
		if err != nil {
			t.Fatal(err)
		}
		build(t, db, tpcds.Workload(131, seed+4))
	}
}
