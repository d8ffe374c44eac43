package synopsis_test

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// seedSummary encodes a one-table summary m(pk, a) with the given rows.
func seedSummary(f *testing.F, rows ...synopsis.Row) []byte {
	f.Helper()
	var total int64
	for _, r := range rows {
		total += r.Count
	}
	d := &synopsis.Database{
		Schema: &schema.Schema{Tables: []*schema.Table{{
			Name:     "m",
			RowCount: 1,
			Columns: []*schema.Column{
				{Name: "pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 100},
				{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 32},
			},
		}}},
		Relations: map[string]*synopsis.Relation{"m": {Table: "m", Total: total, Rows: rows}},
	}
	var buf bytes.Buffer
	if err := d.EncodeJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSummaryDecode: summary JSON from outside the process goes through
// DecodeJSON and Validate without panicking, and a summary that passes
// Validate generates its first tuples without panicking either.
func FuzzSummaryDecode(f *testing.F) {
	// A canonical summary, the non-canonical cycling set that once split
	// the execution paths, a duplicate spec, a key spec, and structural
	// oddities (null tables, columns and relations).
	f.Add(seedSummary(f,
		synopsis.Row{Count: 3, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 5)}},
		synopsis.Row{Count: 4, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, value.NewIntervalSet(value.Ival(0, 3), value.Ival(9, 11)))}},
	))
	f.Add(seedSummary(f, synopsis.Row{Count: 23, Specs: []synopsis.ColSpec{
		{Col: 1, Set: value.IntervalSet{value.Ival(10, 20), value.Ival(0, 10), value.Ival(5, 8)}},
	}}))
	f.Add(seedSummary(f, synopsis.Row{Count: 2, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1), synopsis.FixedSpec(1, 2)}}))
	f.Add(seedSummary(f, synopsis.Row{Count: 2, Specs: []synopsis.ColSpec{synopsis.FixedSpec(0, 1)}}))
	for _, s := range []string{
		`{"schema":{"tables":[null]},"relations":{"m":null}}`,
		`{"schema":{"tables":[{"name":"m","columns":[null]}]}}`,
		`{"relations":{"m":{"rows":[{"count":-1}]}}}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := synopsis.DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d.Validate() != nil {
			return
		}
		for name, rel := range d.Relations {
			tab := d.Schema.Table(name)
			all := make([]int, len(tab.Columns))
			for c := range all {
				all[c] = c
			}
			s := generator.NewStream(tab, rel)
			b := batch.NewCol(len(all), 64, all)
			for i := 0; i < 4 && s.NextColBatch(b, all); i++ {
			}
		}
	})
}
