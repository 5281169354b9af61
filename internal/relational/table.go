package relational

import (
	"fmt"

	"repro/internal/value"
)

// Row is one tuple of a table or result relation. Positions correspond to
// the owning schema's columns.
type Row []value.V

// Table is a base relation: a schema plus its rows and indexes. Tables
// are not safe for concurrent mutation; the DB serializes writers.
type Table struct {
	schema  Schema
	rows    []Row
	pkIndex map[string]int              // composite PK key → row ordinal
	indexes map[string]map[string][]int // column → value key → row ordinals
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema:  schema,
		indexes: make(map[string]map[string][]int),
	}
	if len(schema.PrimaryKey) > 0 {
		t.pkIndex = make(map[string]int)
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns all rows. The returned slice must not be modified.
func (t *Table) Rows() []Row { return t.rows }

func (t *Table) pkKey(r Row) string {
	if len(t.schema.PrimaryKey) == 0 {
		return ""
	}
	var b []byte
	for _, col := range t.schema.PrimaryKey {
		i := t.schema.ColumnIndex(col)
		b = AppendKey(b, r[i])
	}
	return string(b)
}

// coerce converts v toward the declared column kind where lossless
// (INT literal into FLOAT column, numeric into STRING stays unchanged).
func coerce(v value.V, k value.Kind) value.V {
	if v.IsNull() || v.Kind() == k {
		return v
	}
	switch k {
	case value.KindFloat:
		if v.Kind() == value.KindInt {
			return value.Float(v.AsFloat())
		}
	case value.KindInt:
		if v.Kind() == value.KindFloat && v.AsFloat() == float64(v.AsInt()) {
			return value.Int(v.AsInt())
		}
	}
	return v
}

// Insert appends a row, enforcing arity, type coercion, and primary-key
// uniqueness. It returns the new row's ordinal.
func (t *Table) Insert(r Row) (int, error) {
	if len(r) != len(t.schema.Columns) {
		return 0, fmt.Errorf("relational: %s: insert arity %d, want %d",
			t.schema.Name, len(r), len(t.schema.Columns))
	}
	row := make(Row, len(r))
	for i, v := range r {
		row[i] = coerce(v, t.schema.Columns[i].Type)
	}
	if t.pkIndex != nil {
		k := t.pkKey(row)
		if _, dup := t.pkIndex[k]; dup {
			return 0, fmt.Errorf("relational: %s: duplicate primary key %v", t.schema.Name, k)
		}
		t.pkIndex[k] = len(t.rows)
	}
	ord := len(t.rows)
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		ci := t.schema.ColumnIndex(col)
		key := row[ci].Key()
		idx[key] = append(idx[key], ord)
	}
	return ord, nil
}

// InsertValues is Insert with variadic values, for convenience in tests
// and loaders.
func (t *Table) InsertValues(vals ...value.V) (int, error) { return t.Insert(vals) }

// EnsureIndex builds (or reuses) a hash index on the named column and
// returns an error if the column does not exist.
func (t *Table) EnsureIndex(col string) error {
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("relational: %s: no column %q to index", t.schema.Name, col)
	}
	idx := make(map[string][]int)
	for ord, r := range t.rows {
		key := r[ci].Key()
		idx[key] = append(idx[key], ord)
	}
	t.indexes[col] = idx
	return nil
}

// LookupIndex returns the ordinals of rows whose col equals v, using the
// hash index on col. The index must exist (EnsureIndex).
func (t *Table) LookupIndex(col string, v value.V) []int {
	idx, ok := t.indexes[col]
	if !ok {
		return nil
	}
	return idx[v.Key()]
}

// Rel returns the table's contents as a result relation with columns
// qualified by the table name.
func (t *Table) Rel() *Rel {
	cols := make([]ColRef, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = ColRef{Table: t.schema.Name, Name: c.Name}
	}
	return &Rel{Cols: cols, Rows: t.rows}
}
