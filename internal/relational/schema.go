// Package relational implements the in-memory relational database engine
// that serves as the substrate the paper runs on (the authors used
// PostgreSQL; see DESIGN.md for the substitution rationale). It provides
// a catalog of tables with primary- and foreign-key constraints, hash
// indexes, and the relational algebra operators (selection, join,
// grouping/aggregation, limit, rename) needed by the ETable query
// translation layer and by the SQL subset executor. Projection,
// DISTINCT and ORDER BY are the SQL executor's own (internal/sqlexec).
package relational

import (
	"fmt"

	"repro/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type value.Kind
}

// ForeignKey declares that Col references RefTable.RefCol.
type ForeignKey struct {
	Col      string
	RefTable string
	RefCol   string
}

// Schema describes a table: its name, ordered columns, primary key, and
// foreign keys. A composite primary key lists multiple columns.
type Schema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema has the named column.
func (s *Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// IsForeignKey reports whether the named column participates in a foreign
// key, and returns that key.
func (s *Schema) IsForeignKey(col string) (ForeignKey, bool) {
	for _, fk := range s.ForeignKeys {
		if fk.Col == col {
			return fk, true
		}
	}
	return ForeignKey{}, false
}

// InPrimaryKey reports whether the named column is part of the primary key.
func (s *Schema) InPrimaryKey(col string) bool {
	for _, k := range s.PrimaryKey {
		if k == col {
			return true
		}
	}
	return false
}

// Validate checks internal consistency: non-empty name, unique column
// names, PK and FK columns exist.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relational: schema with empty name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relational: table %s has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relational: table %s has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relational: table %s has duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	for _, k := range s.PrimaryKey {
		if !seen[k] {
			return fmt.Errorf("relational: table %s primary key column %q does not exist", s.Name, k)
		}
	}
	for _, fk := range s.ForeignKeys {
		if !seen[fk.Col] {
			return fmt.Errorf("relational: table %s foreign key column %q does not exist", s.Name, fk.Col)
		}
		if fk.RefTable == "" || fk.RefCol == "" {
			return fmt.Errorf("relational: table %s foreign key %q has empty target", s.Name, fk.Col)
		}
	}
	return nil
}
