// Package synopsis holds the data model of Hydra's database summary: the
// minuscule, memory-resident artifact from which databases of arbitrary
// size are regenerated on the fly. A relation summary is a list of rows
// (#TUPLES, value-spec vector) — exactly the presentation of Figure 4 of
// the paper, where the primary-key column is replaced by a tuple count and
// generated later as auto-numbers.
//
// The types live here, below every pipeline package, so both producers
// (package summary's deterministic-alignment builder) and consumers (the
// tuple generator, the engine's summary-direct aggregate fast path) can
// share them without import cycles. Package summary re-exports everything
// via type aliases; code above the engine should keep importing summary.
//
// A summary row has exactly one meaning, the one the tuple generator
// expands: within a row of Count n starting at global tuple index base, the
// tuple at offset w (0 <= w < n) has
//
//   - primary key base+w (auto-numbered; a spec on the key is invalid),
//   - value v in a column with a fixed spec v,
//   - value Set.At(w mod Set.Len()) in a column with a cycling spec Set,
//   - value 0 in every other column (an unspecced non-key column is 0).
//
// Validate enforces the canonical form every consumer relies on: at most
// one spec per column, each spec either fixed or a non-empty canonical
// interval set (sorted, non-empty, non-adjacent intervals), every code
// inside the column's domain, and counts whose running sum fits in int64
// and equals Total. Validate rejects; it never normalizes, since
// normalizing a cycling set reorders the values it cycles through and so
// changes the regenerated data.
package synopsis

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/schema"
	"repro/internal/value"
)

// ColSpec prescribes the value of one column within a summary row: either a
// fixed code or a set of codes the generator cycles through.
type ColSpec struct {
	Col   int               `json:"col"`
	Fixed *int64            `json:"fixed,omitempty"`
	Set   value.IntervalSet `json:"set,omitempty"`
}

// FixedSpec returns a fixed-value spec.
func FixedSpec(col int, v int64) ColSpec { return ColSpec{Col: col, Fixed: &v} }

// SetSpec returns a cycling-set spec.
func SetSpec(col int, s value.IntervalSet) ColSpec { return ColSpec{Col: col, Set: s} }

// Row is one summary row: Count tuples sharing the value specs.
type Row struct {
	Count int64     `json:"count"`
	Specs []ColSpec `json:"specs"`
}

// AtomPK is one entry of a relation's alignment index: a partition atom's
// representative point (one code per axis of the relation's constraint
// space) and the primary-key range its tuples occupy. Referencing relations
// use the index to materialize foreign keys: a fact atom's dimension cell
// selects exactly the dimension atoms whose representatives fall inside it.
type AtomPK struct {
	Rep []int64           `json:"rep"`
	PK  value.IntervalSet `json:"pk"`
}

// Relation is the summary of one table.
type Relation struct {
	Table string `json:"table"`
	// Total is the number of tuples the summary regenerates; tuple i gets
	// primary key i (auto-numbering).
	Total int64 `json:"total"`
	Rows  []Row `json:"rows"`
	// Axes names the relation's constraint-space axes: own columns by
	// name, attributes reached through a foreign key as "fkcol.axis".
	Axes []string `json:"axes,omitempty"`
	// Atoms is the deterministic-alignment index over those axes.
	Atoms []AtomPK `json:"atoms,omitempty"`
	// ClampedRows counts tuples whose foreign-key set had to be clamped
	// by referential post-processing (the paper's "minor additive
	// errors").
	ClampedRows int64 `json:"clamped_rows,omitempty"`
}

// AxisIndex returns the position of an axis key, or -1.
func (r *Relation) AxisIndex(key string) int {
	for i, a := range r.Axes {
		if a == key {
			return i
		}
	}
	return -1
}

// Validate checks that the relation is in canonical form against its
// table (see the package doc): counts non-negative, summing without
// overflow to Total; at most one spec per column and none on the primary
// key; each spec either a fixed code or a non-empty canonical interval set;
// every code inside the column's domain. Errors name the table, row and
// column.
func (r *Relation) Validate(t *schema.Table) error {
	pk := t.PKIndex()
	seen := make([]int, len(t.Columns)) // seen[c] = 1 + last row index specifying c
	var sum int64
	for i, row := range r.Rows {
		if row.Count < 0 {
			return fmt.Errorf("summary: %s row %d: negative count %d", t.Name, i, row.Count)
		}
		if sum > math.MaxInt64-row.Count {
			return fmt.Errorf("summary: %s row %d: tuple counts overflow int64", t.Name, i)
		}
		sum += row.Count
		for _, sp := range row.Specs {
			if sp.Col < 0 || sp.Col >= len(t.Columns) {
				return fmt.Errorf("summary: %s row %d: bad column %d", t.Name, i, sp.Col)
			}
			col := t.Columns[sp.Col]
			if sp.Col == pk {
				return fmt.Errorf("summary: %s row %d col %s: spec on the auto-numbered primary key", t.Name, i, col.Name)
			}
			if seen[sp.Col] == i+1 {
				return fmt.Errorf("summary: %s row %d col %s: more than one spec", t.Name, i, col.Name)
			}
			seen[sp.Col] = i + 1
			if err := checkSpec(sp, col); err != nil {
				return fmt.Errorf("summary: %s row %d col %s: %w", t.Name, i, col.Name, err)
			}
		}
	}
	if sum != r.Total {
		return fmt.Errorf("summary: %s: rows sum to %d, total is %d", t.Name, sum, r.Total)
	}
	return nil
}

// checkSpec validates one spec against its column's domain.
func checkSpec(sp ColSpec, col *schema.Column) error {
	if sp.Fixed != nil {
		if sp.Set != nil {
			return fmt.Errorf("spec is both fixed and cycling")
		}
		if v := *sp.Fixed; v < col.DomainLo || v >= col.DomainHi {
			return fmt.Errorf("fixed code %d outside domain [%d,%d)", v, col.DomainLo, col.DomainHi)
		}
		return nil
	}
	if len(sp.Set) == 0 {
		return fmt.Errorf("empty spec")
	}
	for k, iv := range sp.Set {
		if iv.Empty() {
			return fmt.Errorf("cycling set %v: empty interval %v", sp.Set, iv)
		}
		if k > 0 && iv.Lo <= sp.Set[k-1].Hi {
			return fmt.Errorf("cycling set %v: intervals not sorted and disjoint", sp.Set)
		}
	}
	if lo, hi := sp.Set[0].Lo, sp.Set[len(sp.Set)-1].Hi; lo < col.DomainLo || hi > col.DomainHi {
		return fmt.Errorf("cycling set %v outside domain [%d,%d)", sp.Set, col.DomainLo, col.DomainHi)
	}
	return nil
}

// Database is the complete vendor-side summary: one relation summary per
// table plus the schema needed to decode values.
type Database struct {
	Schema    *schema.Schema       `json:"schema"`
	Relations map[string]*Relation `json:"relations"`
}

// Relation returns the summary for a table, or nil.
func (d *Database) Relation(name string) *Relation { return d.Relations[name] }

// Validate checks the schema and every relation summary against it, in
// table-name order so the first error reported is deterministic. A summary
// that passes is one every execution path answers identically.
func (d *Database) Validate() error {
	if d.Schema == nil {
		return fmt.Errorf("summary: no schema")
	}
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	names := make([]string, 0, len(d.Relations))
	for name := range d.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.Schema.Table(name)
		if t == nil {
			return fmt.Errorf("summary: relation %s not in schema", name)
		}
		r := d.Relations[name]
		if r == nil {
			return fmt.Errorf("summary: relation %s is null", name)
		}
		if err := r.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes the summary as indented JSON.
func (d *Database) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeJSON reads a summary written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Database, error) {
	var d Database
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("summary: decoding: %w", err)
	}
	return &d, nil
}

// EncodeGob writes the summary in the compact binary form used for the
// size accounting the paper reports ("a few KB").
func (d *Database) EncodeGob(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// DecodeGob reads a summary written by EncodeGob.
func DecodeGob(r io.Reader) (*Database, error) {
	var d Database
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("summary: decoding gob: %w", err)
	}
	return &d, nil
}

// Size returns the gob-encoded size in bytes. The alignment index
// (RegionPK) is part of the summary and included.
func (d *Database) Size() (int, error) {
	var buf bytes.Buffer
	if err := d.EncodeGob(&buf); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}
