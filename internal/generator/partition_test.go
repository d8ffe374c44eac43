package generator

import (
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// sameRows requires two row slices to be byte-identical.
func sameRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// bigCyclingSummary exercises seeks landing mid-cycling-interval: one
// summary row whose multi-interval cycling set length (6) does not divide
// the row count, preceded and followed by other rows.
func bigCyclingSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 913,
		Rows: []synopsis.Row{
			{Count: 5, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 7),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
			}},
			{Count: 901, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 42),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(10, 13), value.Point(20), value.Ival(30, 32))),
			}},
			{Count: 7, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(1, value.NewIntervalSet(value.Point(5))),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 10))),
			}},
		},
	}
}

// singleRowSummary has one tuple per summary row (the shape dimension
// relations with singleton atoms produce).
func singleRowSummary() *synopsis.Relation {
	rows := make([]synopsis.Row, 9)
	for i := range rows {
		rows[i] = synopsis.Row{Count: 1, Specs: []synopsis.ColSpec{
			synopsis.FixedSpec(1, int64(i*3)),
			synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(int64(i), int64(i)+2))),
		}}
	}
	return &synopsis.Relation{Table: "t", Total: 9, Rows: rows}
}

func partitionSummaries() map[string]*synopsis.Relation {
	return map[string]*synopsis.Relation{
		"edge":      edgeSummary(),
		"cycling":   bigCyclingSummary(),
		"singleRow": singleRowSummary(),
		"unspecced": unspeccedSummary(),
		"empty":     {Table: "t"},
	}
}

// TestPartitionConcatenationParity is the core partitioning contract: for
// every summary shape and partition count — including counts far larger
// than Total — concatenating the partitions' outputs reproduces the spec
// oracle exactly.
func TestPartitionConcatenationParity(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		for _, n := range []int{1, 2, 3, 5, 7, 16, 100, 2000} {
			for _, capRows := range oracleCaps {
				parts := NewStream(tbl, rel).Partition(n)
				if len(parts) != n {
					t.Fatalf("%s: Partition(%d) returned %d streams", name, n, len(parts))
				}
				var got [][]int64
				var sumTotals int64
				for _, p := range parts {
					sumTotals += p.Total()
					got = append(got, drainSource(p, p.Cols(), capRows)...)
				}
				if sumTotals != rel.Total {
					t.Fatalf("%s n=%d: partition totals sum to %d, want %d", name, n, sumTotals, rel.Total)
				}
				sameRows(t, name, got, want)
			}
		}
	}
}

// TestSectionParity checks arbitrary (including degenerate) row ranges
// against the spec oracle.
func TestSectionParity(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		parent := NewStream(tbl, rel)
		bounds := []struct{ lo, hi int64 }{
			{0, rel.Total},                   // full range
			{0, 0},                           // empty prefix
			{rel.Total, rel.Total},           // empty suffix
			{rel.Total / 2, rel.Total / 2},   // empty middle
			{1, rel.Total - 1},               // interior (when non-degenerate)
			{-5, rel.Total + 5},              // clamped overshoot
			{rel.Total / 3, rel.Total/3 + 1}, // single row
		}
		for _, bd := range bounds {
			lo, hi := bd.lo, bd.hi
			cl, ch := lo, hi
			if cl < 0 {
				cl = 0
			}
			if cl > rel.Total {
				cl = rel.Total
			}
			if ch > rel.Total {
				ch = rel.Total
			}
			if ch < cl {
				ch = cl
			}
			for _, capRows := range oracleCaps {
				got := drainSource(parent.Section(lo, hi), len(tbl.Columns), capRows)
				sameRows(t, name, got, want[cl:ch])
			}
		}
	}
}

// TestSeekRowMatchesSequential seeks to every position of every summary —
// in particular positions landing mid-cycling-interval — and requires the
// remainder of the stream to equal the oracle's tail, through both the
// column-batch and the row-at-a-time access paths.
func TestSeekRowMatchesSequential(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := oracleRows(tbl, rel)
		step := int64(1)
		if rel.Total > 64 {
			step = 13 // sample positions, keeping mid-interval phases
		}
		if rel.Total > 1000 {
			step = 97
		}
		for i := int64(0); i <= rel.Total; i += step {
			s := NewStream(tbl, rel)
			s.SeekRow(i)
			got := drainSource(s, s.Cols(), 5)
			sameRows(t, name, got, want[i:])

			s = NewStream(tbl, rel)
			s.SeekRow(i)
			sameRows(t, name+" [row path]", collectRows(s), want[i:])
		}
	}
}

// TestSeekRowAfterConsumption re-seeks a partially consumed stream,
// including backwards, and checks the row-at-a-time buffer is invalidated.
func TestSeekRowAfterConsumption(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := oracleRows(tbl, rel)
	s := NewStream(tbl, rel)
	for i := 0; i < 100; i++ {
		s.Next()
	}
	s.SeekRow(17)
	sameRows(t, "backward seek", collectRows(s), want[17:])
	s.SeekRow(rel.Total + 99) // clamped to the end: exhausted
	if row, ok := s.Next(); ok {
		t.Fatalf("seek past end still produced %v", row)
	}
	s.SeekRow(-3) // clamped to the start
	sameRows(t, "seek clamped to start", collectRows(s), want)
}

// TestPacedBatchScheduleExact pins the absolute pacing schedule with a
// fake clock: batches of 4, 4, and 2 rows at one second per row must
// advance the schedule by exactly 10 seconds — partial final batches are
// credited by the rows they actually hold, and source exhaustion charges
// nothing.
func TestPacedBatchScheduleExact(t *testing.T) {
	run := func(name string, wrap func(*Stream) batch.RowSource) {
		rel := &synopsis.Relation{Table: "t", Total: 10, Rows: []synopsis.Row{
			{Count: 10, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 1),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
			}},
		}}
		p := NewPaced(wrap(NewStream(genTable(), rel)), 1) // 1 row/sec
		t0 := time.Unix(1000, 0)
		clock := t0
		var slept []time.Duration
		p.now = func() time.Time { return clock }
		p.sleep = func(d time.Duration) { slept = append(slept, d); clock = clock.Add(d) }

		all := allCols(3)
		b := batch.NewCol(3, 4, all)
		var lens []int
		for p.NextColBatch(b, all) {
			lens = append(lens, b.Len())
		}
		if len(lens) != 3 || lens[0] != 4 || lens[1] != 4 || lens[2] != 2 {
			t.Fatalf("%s: batch lengths %v, want [4 4 2]", name, lens)
		}
		// Absolute schedule: batch 1 starts the clock (no sleep), batch 2 is
		// due when batch 1's 4 rows elapse, batch 3 when batch 2's do.
		wantSlept := []time.Duration{4 * time.Second, 4 * time.Second}
		if len(slept) != len(wantSlept) {
			t.Fatalf("%s: sleeps %v, want %v", name, slept, wantSlept)
		}
		for i := range wantSlept {
			if slept[i] != wantSlept[i] {
				t.Fatalf("%s: sleep %d = %v, want %v", name, i, slept[i], wantSlept[i])
			}
		}
		// The final partial batch credits exactly its 2 rows: the schedule
		// ends at t0 + 10s, not t0 + 12s, and exhaustion added nothing.
		if want := t0.Add(10 * time.Second); !p.due.Equal(want) {
			t.Fatalf("%s: schedule ends at %v, want %v", name, p.due, want)
		}
	}
	run("column source", func(s *Stream) batch.RowSource { return s })
	run("row fallback", func(s *Stream) batch.RowSource { return rowOnly{s} })
}

// TestConcurrentSections drives Section from many goroutines against one
// parent stream — the parallel executor's access pattern — and checks
// every section's content. Run under -race this pins the thread safety of
// the shared cumulative-count index.
func TestConcurrentSections(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := oracleRows(tbl, rel)
	parent := NewStream(tbl, rel)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				lo := int64((w*16 + k) * 7 % int(rel.Total))
				hi := lo + 11
				if hi > rel.Total {
					hi = rel.Total
				}
				got := drainSource(parent.Section(lo, hi), len(tbl.Columns), 4)
				if int64(len(got)) != hi-lo {
					errs <- "wrong section length"
					return
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j] != want[lo+int64(i)][j] {
							errs <- "section content mismatch"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestNestedSections pins the relative-range contract: Section, Partition,
// and SeekRow on a sub-stream operate on the sub-stream's own row range,
// so sections nest — repartitioning a partition re-covers exactly that
// partition, never the whole relation.
func TestNestedSections(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := oracleRows(tbl, rel)
	parts := NewStream(tbl, rel).Partition(4)
	quarter := rel.Total / 4
	for k, p := range parts {
		lo := rel.Total * int64(k) / 4
		hi := rel.Total * int64(k+1) / 4
		// Repartitioning a partition must re-cover exactly its range.
		var got [][]int64
		for _, sub := range p.Partition(3) {
			got = append(got, drainSource(sub, sub.Cols(), 4)...)
		}
		sameRows(t, "nested partition", got, want[lo:hi])
		// Section bounds are relative to the partition.
		mid := drainSource(p.Section(1, quarter-1), p.Cols(), 4)
		sameRows(t, "nested section", mid, want[lo+1:lo+quarter-1])
		// SeekRow is relative too: row 2 of the partition, then drain.
		p.SeekRow(2)
		sameRows(t, "relative seek", drainSource(p, p.Cols(), 4), want[lo+2:hi])
	}
}
