package relational

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// ColRef names a column of a result relation, optionally qualified by the
// table (or alias) it came from.
type ColRef struct {
	Table string
	Name  string
}

// String renders the reference as Table.Name or Name.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Rel is an intermediate or final query result: ordered columns and rows.
// Unlike a base Table it carries no constraints and may contain
// duplicates (it is a bag, as in SQL).
type Rel struct {
	Cols []ColRef
	Rows []Row
}

// ColIndex resolves name to a column ordinal. A name matches a column
// when it equals the column's full rendered name ("t.c") or its bare name
// ("c", including names that themselves contain dots, such as the
// materialized aggregate column "sum(Papers.year)"). If no column matches
// directly, a dotted name falls back to its bare suffix. It returns -1
// when not found and -2 when ambiguous.
func (r *Rel) ColIndex(name string) int {
	found := -1
	for ci, c := range r.Cols {
		if c.Name == name || c.Table != "" && c.String() == name {
			if found >= 0 {
				return -2
			}
			found = ci
		}
	}
	if found >= 0 {
		return found
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return r.ColIndex(name[i+1:])
	}
	return -1
}

// Env adapts one row for expression evaluation.
func (r *Rel) Env(row Row) expr.Env { return rowEnv{rel: r, row: row} }

type rowEnv struct {
	rel *Rel
	row Row
}

// Lookup implements expr.Env.
func (e rowEnv) Lookup(name string) (value.V, bool) {
	ci := e.rel.ColIndex(name)
	if ci < 0 {
		return value.Null, false
	}
	return e.row[ci], true
}
