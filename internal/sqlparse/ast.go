// Package sqlparse parses the SQL subset used throughout the
// reproduction: single SELECT statements with joins (comma-style FROM
// with WHERE join predicates, or explicit [INNER] JOIN … ON), WHERE,
// GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, and the standard
// aggregates. This is the query language the paper's §8 expressiveness
// argument translates from, and the language the graph-in-relational
// storage layer (internal/storage) emits.
package sqlparse

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/relational"
)

// AggCall is one aggregate invocation, e.g. COUNT(*) or SUM(year).
// Arg is nil only for COUNT(*).
type AggCall struct {
	Func relational.AggFunc
	Arg  expr.Expr
}

// Name returns the canonical column name the executor materializes the
// aggregate under, e.g. "count(*)" or "sum(year)". Expressions appearing
// in HAVING and ORDER BY reference aggregates through these names.
func (a AggCall) Name() string {
	switch {
	case a.Arg == nil:
		return "count(*)"
	case a.Func == relational.AggCountDistinct:
		return "count(distinct " + a.Arg.String() + ")"
	}
	return strings.ToLower(a.Func.String()) + "(" + a.Arg.String() + ")"
}

// SelectItem is one output column of a SELECT list. Exactly one of Star,
// Agg, or Expr is set.
type SelectItem struct {
	Star      bool     // "*" or "t.*"
	StarTable string   // qualifier for "t.*", empty for bare "*"
	Agg       *AggCall // aggregate call
	Expr      expr.Expr
	Alias     string // AS alias, if any
}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveAlias is the alias if present, else the table name.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one explicit "JOIN t [AS a] ON cond".
type JoinClause struct {
	Table TableRef
	On    expr.Expr
}

// OrderItem is one ORDER BY key. Either Agg or Expr is set.
type OrderItem struct {
	Agg  *AggCall
	Expr expr.Expr
	Desc bool
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	// HavingAggs are aggregate calls that appeared inside HAVING; the
	// parser rewrites them to column references on their canonical names
	// and records the calls here so the executor materializes them.
	HavingAggs []AggCall
	OrderBy    []OrderItem
	Limit      int // -1 when absent
	Offset     int // 0 when absent
}

// Aggregates returns every aggregate call appearing in the select list,
// order-by keys, and HAVING clause, deduplicated by canonical name.
func (s *SelectStmt) Aggregates() []AggCall {
	seen := map[string]bool{}
	var out []AggCall
	add := func(a *AggCall) {
		if a == nil || seen[a.Name()] {
			return
		}
		seen[a.Name()] = true
		out = append(out, *a)
	}
	for i := range s.Items {
		add(s.Items[i].Agg)
	}
	for i := range s.OrderBy {
		add(s.OrderBy[i].Agg)
	}
	for i := range s.HavingAggs {
		add(&s.HavingAggs[i])
	}
	return out
}

// HasAggregates reports whether the statement computes any aggregate.
func (s *SelectStmt) HasAggregates() bool {
	return len(s.GroupBy) > 0 || len(s.Aggregates()) > 0
}
