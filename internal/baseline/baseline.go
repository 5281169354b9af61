// Package baseline models the comparison system of the paper's user
// study: a graphical query builder in the style of Navicat Query Builder
// (§7). The builder is executable — it assembles a SQL statement from
// canvas-style operations (add table, draw join line, tick output
// columns, type WHERE text) and runs it on the relational engine — so
// task answers in the baseline condition are computed, not assumed.
//
// The study harness attaches KLM costs to each builder operation and an
// error/retry model motivated by §7.2's observations (forgotten GROUP BY
// attributes, join-complexity overwhelm, restart-from-scratch debugging).
package baseline

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/sqlexec"
)

// Join is one join line drawn between two table columns on the canvas.
type Join struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// Builder is the state of the graphical query builder.
type Builder struct {
	db      *relational.DB
	tables  []string
	joins   []Join
	outputs []string // select list items, e.g. "Papers.title" or "COUNT(*) AS n"
	where   []string // conjunctive predicates typed by the user
	groupBy string
	orderBy string
	desc    bool
	limit   int
}

// New returns an empty builder over the database.
func New(db *relational.DB) *Builder {
	return &Builder{db: db, limit: -1}
}

// AddTable drags a table onto the canvas.
func (b *Builder) AddTable(name string) error {
	if !b.db.HasTable(name) {
		return fmt.Errorf("baseline: no table %q", name)
	}
	for _, t := range b.tables {
		if t == name {
			return fmt.Errorf("baseline: table %q already on canvas", name)
		}
	}
	b.tables = append(b.tables, name)
	return nil
}

// AddJoin draws a join line between two columns.
func (b *Builder) AddJoin(lt, lc, rt, rc string) error {
	for _, pair := range [][2]string{{lt, lc}, {rt, rc}} {
		t, err := b.db.Table(pair[0])
		if err != nil {
			return err
		}
		if !t.Schema().HasColumn(pair[1]) {
			return fmt.Errorf("baseline: table %q has no column %q", pair[0], pair[1])
		}
	}
	b.joins = append(b.joins, Join{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc})
	return nil
}

// AddOutput ticks an output column (or aggregate expression).
func (b *Builder) AddOutput(item string) { b.outputs = append(b.outputs, item) }

// AddWhere types one predicate into the criteria grid.
func (b *Builder) AddWhere(pred string) { b.where = append(b.where, pred) }

// SetGroupBy sets the GROUP BY column.
func (b *Builder) SetGroupBy(col string) { b.groupBy = col }

// SetOrderBy sets the ORDER BY key.
func (b *Builder) SetOrderBy(key string, desc bool) { b.orderBy, b.desc = key, desc }

// SetLimit sets the LIMIT.
func (b *Builder) SetLimit(n int) { b.limit = n }

// SQL renders the statement the builder's canvas state corresponds to.
func (b *Builder) SQL() (string, error) {
	if len(b.tables) == 0 {
		return "", fmt.Errorf("baseline: no tables on canvas")
	}
	sel := "*"
	if len(b.outputs) > 0 {
		sel = strings.Join(b.outputs, ", ")
	}
	var where []string
	for _, j := range b.joins {
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftCol, j.RightTable, j.RightCol))
	}
	where = append(where, b.where...)
	sql := fmt.Sprintf("SELECT %s FROM %s", sel, strings.Join(b.tables, ", "))
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	if b.groupBy != "" {
		sql += " GROUP BY " + b.groupBy
	}
	if b.orderBy != "" {
		sql += " ORDER BY " + b.orderBy
		if b.desc {
			sql += " DESC"
		}
	}
	if b.limit >= 0 {
		sql += fmt.Sprintf(" LIMIT %d", b.limit)
	}
	return sql, nil
}

// Run executes the built query.
func (b *Builder) Run() (*relational.Rel, error) {
	sql, err := b.SQL()
	if err != nil {
		return nil, err
	}
	return sqlexec.ExecSQL(b.db, sql)
}

// Complexity summarizes the built query for the study's error model.
type Complexity struct {
	Tables  int
	Joins   int
	HasAgg  bool
	HasLike bool
}

// Complexity inspects the current canvas state.
func (b *Builder) Complexity() Complexity {
	c := Complexity{Tables: len(b.tables), Joins: len(b.joins)}
	for _, o := range b.outputs {
		u := strings.ToUpper(o)
		if strings.Contains(u, "COUNT(") || strings.Contains(u, "SUM(") ||
			strings.Contains(u, "AVG(") || strings.Contains(u, "MIN(") ||
			strings.Contains(u, "MAX(") {
			c.HasAgg = true
		}
	}
	for _, wh := range b.where {
		if strings.Contains(strings.ToUpper(wh), "LIKE") {
			c.HasLike = true
		}
	}
	return c
}
