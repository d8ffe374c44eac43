package sqlkit_test

import (
	"testing"

	"repro/internal/sqlkit"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// FuzzParse: SQL from outside the process (the body of serve's POST
// /query) goes through Parse, which must never panic on any input; and
// whatever Parse accepts, it accepts again in printed form — Parse(q.SQL())
// succeeds and prints the same SQL, so the canonical text the plan cache
// keys on is a fixed point. Seeded with every workload query the toy and
// TPC-DS-like scenarios issue.
func FuzzParse(f *testing.F) {
	seeds := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	seeds = append(seeds, tpcds.Workload(131, 11)...)
	seeds = append(append(seeds, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range seeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sqlkit.Parse(src)
		if err != nil {
			return
		}
		out := q.SQL()
		q2, err := sqlkit.Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted it, but its SQL %q does not parse: %v", src, out, err)
		}
		if again := q2.SQL(); again != out {
			t.Fatalf("SQL of %q is not a fixed point:\n first %q\nsecond %q", src, out, again)
		}
	})
}
