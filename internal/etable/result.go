package etable

import (
	"repro/internal/tgm"
	"repro/internal/value"
)

// ColumnKind distinguishes the three column families of §5.4.2.
type ColumnKind uint8

// Column kinds.
const (
	// ColBase is a base attribute of the primary node type (A_b).
	ColBase ColumnKind = iota
	// ColParticipating presents the instances of another participating
	// node type related to the row (A_t).
	ColParticipating
	// ColNeighbor presents the row's direct neighbors along one of the
	// primary type's schema out-edges, regardless of the pattern (A_h).
	ColNeighbor
)

// String names the kind.
func (k ColumnKind) String() string {
	switch k {
	case ColBase:
		return "base attribute"
	case ColParticipating:
		return "participating node"
	case ColNeighbor:
		return "neighbor node"
	default:
		return "?"
	}
}

// Column describes one column of an enriched table.
type Column struct {
	Kind ColumnKind
	// Name is the display header: the attribute name for base columns,
	// the pattern node key for participating columns, the edge label for
	// neighbor columns.
	Name string
	// Attr is the attribute name (base columns only).
	Attr string
	// NodeKey is the pattern node key (participating columns only).
	NodeKey string
	// EdgeType is the schema edge type traversed (neighbor columns, and
	// participating columns when adjacent to the primary node).
	EdgeType string
	// TargetType is the node type the entity references point at
	// (entity-reference columns only).
	TargetType string
}

// IsEntityRef reports whether the column holds entity references.
func (c *Column) IsEntityRef() bool { return c.Kind != ColBase }

// EntityRef is one clickable entity reference: a node and its label
// (§5.1 — shown like hypertext, label instead of ID).
type EntityRef struct {
	ID    tgm.NodeID
	Label string
}

// Cell is one table cell: either an atomic value (base columns) or a set
// of entity references with its count.
type Cell struct {
	Value value.V
	Refs  []EntityRef
}

// Count returns the number of entity references in the cell.
func (c *Cell) Count() int { return len(c.Refs) }

// Row is one enriched-table row: the primary node it represents plus its
// cells, aligned with Result.Columns.
type Row struct {
	Node  tgm.NodeID
	Label string
	Cells []Cell
}

// Result is an executed enriched table, or — when produced by the
// windowed presentation path (Presentation.Window) — one row window of
// it. Rows always holds exactly the materialized window; TotalRows and
// Offset locate it within the full table. A Result is an ordinary
// immutable value: it owns its rows, cells and references, and stays
// valid for as long as anyone holds it.
type Result struct {
	// Pattern is the query pattern that produced this table.
	Pattern *Pattern
	// PrimaryType is the node type of the rows.
	PrimaryType *tgm.NodeType
	Columns     []Column
	Rows        []Row
	// TotalRows is the full table's row count. For windowed results it
	// may exceed len(Rows); full renders set it to len(Rows), and
	// builders that predate windowing may leave it zero — read it
	// through Total, which falls back to len(Rows).
	TotalRows int
	// Offset is the index of Rows[0] within the full table (0 for full
	// renders).
	Offset int
}

// ColumnIndex returns the ordinal of the column with the given display
// name, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i := range r.Columns {
		if r.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// NumRows returns the number of materialized rows (the window size for
// windowed results).
func (r *Result) NumRows() int { return len(r.Rows) }

// Total returns the row count of the full table this result views:
// TotalRows when set, else len(Rows) (builders that always materialize
// fully may leave TotalRows zero).
func (r *Result) Total() int {
	if r.TotalRows > len(r.Rows) {
		return r.TotalRows
	}
	return len(r.Rows)
}
