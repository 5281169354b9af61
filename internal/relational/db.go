package relational

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/value"
)

// DB is a catalog of tables. Reads may proceed concurrently; writes are
// serialized by an RWMutex (the HTTP server reads, loaders write).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates a new table with the given schema.
func (db *DB) CreateTable(schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("relational: table %q already exists", schema.Name)
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	db.tables[schema.Name] = t
	return t, nil
}

// MustCreateTable is CreateTable that panics on error, for fixed schema
// definitions in loaders and tests.
func (db *DB) MustCreateTable(schema Schema) *Table {
	t, err := db.CreateTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or an error naming it if absent.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

// TableNames returns the sorted names of all tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckForeignKeys verifies that every foreign-key value in every table
// references an existing row, returning the first violation found. NULL
// foreign keys are permitted.
func (db *DB) CheckForeignKeys() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		for _, fk := range t.schema.ForeignKeys {
			ref, ok := db.tables[fk.RefTable]
			if !ok {
				return fmt.Errorf("relational: %s.%s references missing table %q",
					t.Name(), fk.Col, fk.RefTable)
			}
			refIdx := ref.schema.ColumnIndex(fk.RefCol)
			if refIdx < 0 {
				return fmt.Errorf("relational: %s.%s references missing column %s.%s",
					t.Name(), fk.Col, fk.RefTable, fk.RefCol)
			}
			keys := make(map[string]struct{}, len(ref.rows))
			for _, r := range ref.rows {
				keys[r[refIdx].Key()] = struct{}{}
			}
			ci := t.schema.ColumnIndex(fk.Col)
			for ord, r := range t.rows {
				v := r[ci]
				if v.IsNull() {
					continue
				}
				if _, ok := keys[v.Key()]; !ok {
					return fmt.Errorf("relational: %s row %d: %s=%v has no match in %s.%s",
						t.Name(), ord, fk.Col, v, fk.RefTable, fk.RefCol)
				}
			}
		}
	}
	return nil
}

// Stats summarizes the database: per-table row counts.
func (db *DB) Stats() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]int, len(db.tables))
	for n, t := range db.tables {
		out[n] = t.Len()
	}
	return out
}

// SingleValue is a convenience that extracts the sole value of a 1x1
// relation, as produced by aggregate queries.
func SingleValue(r *Rel) (value.V, error) {
	if len(r.Rows) != 1 || len(r.Cols) != 1 {
		return value.Null, fmt.Errorf("relational: expected 1x1 result, got %dx%d",
			len(r.Rows), len(r.Cols))
	}
	return r.Rows[0][0], nil
}
