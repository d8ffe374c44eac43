// Package engine is Hydra's in-memory relational engine substrate. It plays
// the role PostgreSQL v9.3 plays in the paper: it executes the SPJ workload
// at the client site to produce annotated query plans, re-executes it at the
// vendor site for verification, and supports replacing a table's scan with a
// dynamic-regeneration source (the paper's "datagen" relation property) so
// queries run against tables holding zero stored rows.
//
// Rows are slices of integer codes (see package schema for the coding); all
// operators are pipelined iterators except the hash-join build side.
package engine

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
)

// RowSource yields coded rows one at a time. Next returns ok=false when the
// source is exhausted. Scans read a datagen source through its
// NextColBatch when it has one (the generator's Stream and Paced do), and
// through batch.FromRows otherwise.
type RowSource = batch.RowSource

// DatagenFunc opens a fresh dynamic-regeneration stream for a table. It is
// invoked once per scan of the table.
type DatagenFunc func() (RowSource, error)

// Relation is a stored table: the schema plus materialized coded rows.
type Relation struct {
	Table *schema.Table
	Rows  [][]int64
}

// Append adds a row after checking arity.
func (r *Relation) Append(row []int64) error {
	if len(row) != len(r.Table.Columns) {
		return fmt.Errorf("engine: relation %s: row arity %d, want %d", r.Table.Name, len(row), len(r.Table.Columns))
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// Database holds stored relations and per-table datagen overrides.
type Database struct {
	Schema    *schema.Schema
	rels      map[string]*Relation
	datagen   map[string]DatagenFunc
	summaries map[string]*synopsis.Relation
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(s *schema.Schema) *Database {
	return &Database{
		Schema:    s,
		rels:      make(map[string]*Relation),
		datagen:   make(map[string]DatagenFunc),
		summaries: make(map[string]*synopsis.Relation),
	}
}

// AddRelation registers a stored relation for a schema table.
func (db *Database) AddRelation(rel *Relation) error {
	if db.Schema.Table(rel.Table.Name) == nil {
		return fmt.Errorf("engine: table %s not in schema", rel.Table.Name)
	}
	db.rels[rel.Table.Name] = rel
	return nil
}

// Relation returns the stored relation for a table, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// SetDatagen enables the dataless "datagen" property for a table: scans of
// the table stream rows from fn instead of stored data. Passing nil disables
// it.
func (db *Database) SetDatagen(table string, fn DatagenFunc) {
	if fn == nil {
		delete(db.datagen, table)
		return
	}
	db.datagen[table] = fn
}

// DatagenEnabled reports whether the table scans via dynamic regeneration.
func (db *Database) DatagenEnabled(table string) bool {
	_, ok := db.datagen[table]
	return ok
}

// SetSummary registers the relation summary a table's datagen scans expand,
// unlocking the summary-direct aggregate fast path (summaryagg.go) and scan
// pruning (prune.go): provably exact aggregates are then answered in
// O(summary rows) without generating a single tuple, and filters skip the
// tuples the summary proves cannot match. Register a summary only when the
// table's scans regenerate from exactly that summary at full speed — a
// paced or caller-supplied datagen source must not register one, since
// queries answered summary-directly bypass the scan entirely. Passing nil
// unregisters.
//
// Only a canonical summary is registered: one that fails
// synopsis.Relation.Validate against the table is refused with the
// validation error, leaving the table unregistered, so its queries
// regenerate.
func (db *Database) SetSummary(table string, rel *synopsis.Relation) error {
	delete(db.summaries, table)
	if rel == nil {
		return nil
	}
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("engine: table %s not in schema", table)
	}
	if err := rel.Validate(t); err != nil {
		return err
	}
	db.summaries[table] = rel
	return nil
}

// Summary returns the registered relation summary for a table, or nil.
func (db *Database) Summary(table string) *synopsis.Relation { return db.summaries[table] }

// openScan returns the table's scan source: the datagen stream when enabled
// (viewed through batch.FromRows, which keeps columnar sources as they are),
// otherwise a cursor over stored rows.
func (db *Database) openScan(table string) (batch.ColProjector, error) {
	if fn, ok := db.datagen[table]; ok {
		src, err := fn()
		if err != nil {
			return nil, err
		}
		return batch.FromRows(src), nil
	}
	rel := db.rels[table]
	if rel == nil {
		return nil, fmt.Errorf("engine: table %s has neither stored rows nor datagen", table)
	}
	return &sliceSource{rows: rel.Rows}, nil
}

// sliceSource is the cursor over a stored relation's rows.
type sliceSource struct {
	rows [][]int64
	i    int
}

// NextColBatch transposes stored rows into dst's projected columns,
// implementing batch.ColProjector: only the requested columns are read or
// written, mirroring the generator's projection pushdown.
func (s *sliceSource) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	dst.Reset()
	n := len(s.rows) - s.i
	if n <= 0 {
		return false
	}
	if n > dst.Cap() {
		n = dst.Cap()
	}
	dst.SetLen(n)
	rows := s.rows[s.i : s.i+n]
	for _, c := range cols {
		out := dst.Col(c)
		for i, row := range rows {
			out[i] = row[c]
		}
	}
	s.i += n
	return true
}

// SeekRow repositions the cursor to row i (clamped), so prepared
// executions rewind a stored scan without reopening it.
func (s *sliceSource) SeekRow(i int64) {
	if i < 0 {
		i = 0
	}
	if n := int64(len(s.rows)); i > n {
		i = n
	}
	s.i = int(i)
}

// Total returns the number of stored rows, implementing (with Section) the
// parallel.Source contract so stored relations are morsel-partitionable
// like generator streams.
func (s *sliceSource) Total() int64 { return int64(len(s.rows)) }

// Section opens an independent cursor over rows [lo, hi).
func (s *sliceSource) Section(lo, hi int64) batch.ColProjector {
	n := int64(len(s.rows))
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return &sliceSource{rows: s.rows[lo:hi]}
}
