package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/relational"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// ExecSQL parses and executes a SQL SELECT statement against db.
func ExecSQL(db *relational.DB, src string) (*relational.Rel, error) {
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		return nil, err
	}
	return Exec(db, stmt)
}

// Exec executes a parsed SELECT statement against db.
func Exec(db *relational.DB, stmt *sqlparse.SelectStmt) (*relational.Rel, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlexec: statement has no FROM clause")
	}
	p, err := newPlanner(db, stmt)
	if err != nil {
		return nil, err
	}
	source, residual, err := p.buildJoined(stmt.Where, stmt.Joins)
	if err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		return nil, fmt.Errorf("sqlexec: cannot evaluate predicate %s in WHERE", residual[0])
	}

	if stmt.HasAggregates() {
		source, err = groupAndHave(p, source, stmt)
		if err != nil {
			return nil, err
		}
	} else if stmt.Having != nil {
		return nil, fmt.Errorf("sqlexec: HAVING without GROUP BY or aggregates")
	}

	out, srcRows, err := project(source, stmt)
	if err != nil {
		return nil, err
	}

	if stmt.Distinct {
		out, srcRows = distinctParallel(out, srcRows)
	}

	if len(stmt.OrderBy) > 0 {
		if err := orderParallel(out, srcRows, source, stmt.OrderBy); err != nil {
			return nil, err
		}
	}

	if stmt.Limit >= 0 || stmt.Offset > 0 {
		out = relational.Limit(out, stmt.Offset, stmt.Limit)
	}
	return out, nil
}

// keyColRef derives the output column reference for a GROUP BY key.
func keyColRef(e expr.Expr) relational.ColRef {
	if c, ok := e.(expr.Col); ok {
		if i := strings.LastIndexByte(c.Name, '.'); i >= 0 {
			return relational.ColRef{Table: c.Name[:i], Name: c.Name[i+1:]}
		}
		return relational.ColRef{Name: c.Name}
	}
	return relational.ColRef{Name: e.String()}
}

// groupAndHave groups the source relation per the statement, computes
// every aggregate under its canonical name, and applies HAVING.
func groupAndHave(p *planner, source *relational.Rel, stmt *sqlparse.SelectStmt) (*relational.Rel, error) {
	aggCalls := stmt.Aggregates()
	aggs := make([]relational.Aggregate, len(aggCalls))
	for i, a := range aggCalls {
		aggs[i] = relational.Aggregate{Func: a.Func, Arg: a.Arg, As: a.Name()}
	}
	keys := p.groupKeys(stmt.GroupBy)
	keyNames := make([]string, len(keys))
	for i, k := range keys {
		keyNames[i] = k.String()
	}
	grouped, err := relational.GroupBy(source, keys, keyNames, aggs)
	if err != nil {
		return nil, err
	}
	// Restore table qualifiers on key columns so that both bare and
	// qualified references resolve downstream.
	for i, k := range keys {
		grouped.Cols[i] = keyColRef(k)
	}
	if stmt.Having != nil {
		grouped, err = relational.Select(grouped, stmt.Having)
		if err != nil {
			return nil, err
		}
	}
	return grouped, nil
}

// project evaluates the SELECT list over source, returning the projected
// relation and, in parallel, the source row backing each output row (for
// ORDER BY references to non-projected columns).
func project(source *relational.Rel, stmt *sqlparse.SelectStmt) (*relational.Rel, []relational.Row, error) {
	out := &relational.Rel{}
	type colPlan struct {
		copyIdx int       // >= 0: copy source column
		eval    expr.Expr // else: evaluate
	}
	var plans []colPlan

	for _, item := range stmt.Items {
		switch {
		case item.Star:
			for ci, c := range source.Cols {
				if item.StarTable != "" && c.Table != item.StarTable {
					continue
				}
				out.Cols = append(out.Cols, c)
				plans = append(plans, colPlan{copyIdx: ci})
			}
			if item.StarTable != "" && len(plans) == 0 {
				return nil, nil, fmt.Errorf("sqlexec: %s.* matches no columns", item.StarTable)
			}
		case item.Agg != nil:
			name := item.Agg.Name()
			ci := source.ColIndex(name)
			if ci < 0 {
				return nil, nil, fmt.Errorf("sqlexec: aggregate %s not materialized", name)
			}
			ref := relational.ColRef{Name: name}
			if item.Alias != "" {
				ref = relational.ColRef{Name: item.Alias}
			}
			out.Cols = append(out.Cols, ref)
			plans = append(plans, colPlan{copyIdx: ci})
		default:
			ref := relational.ColRef{Name: item.Expr.String()}
			if c, ok := item.Expr.(expr.Col); ok {
				ref = keyColRefFromName(c.Name)
			}
			if item.Alias != "" {
				ref = relational.ColRef{Name: item.Alias}
			}
			out.Cols = append(out.Cols, ref)
			// Fast path: direct column copy.
			if c, ok := item.Expr.(expr.Col); ok {
				if ci := source.ColIndex(c.Name); ci >= 0 {
					plans = append(plans, colPlan{copyIdx: ci})
					continue
				}
			}
			plans = append(plans, colPlan{copyIdx: -1, eval: item.Expr})
		}
	}

	srcRows := make([]relational.Row, 0, len(source.Rows))
	for _, row := range source.Rows {
		outRow := make(relational.Row, len(plans))
		env := source.Env(row)
		for i, pl := range plans {
			if pl.copyIdx >= 0 {
				outRow[i] = row[pl.copyIdx]
				continue
			}
			v, err := pl.eval.Eval(env)
			if err != nil {
				return nil, nil, err
			}
			outRow[i] = v
		}
		out.Rows = append(out.Rows, outRow)
		srcRows = append(srcRows, row)
	}
	return out, srcRows, nil
}

func keyColRefFromName(name string) relational.ColRef {
	if i := strings.LastIndexByte(name, '.'); i >= 0 && !strings.ContainsRune(name, '(') {
		return relational.ColRef{Table: name[:i], Name: name[i+1:]}
	}
	return relational.ColRef{Name: name}
}

// distinctParallel removes duplicate output rows keeping srcRows aligned.
func distinctParallel(out *relational.Rel, srcRows []relational.Row) (*relational.Rel, []relational.Row) {
	seen := make(map[string]bool, len(out.Rows))
	dd := &relational.Rel{Cols: out.Cols}
	var ds []relational.Row
	for i, row := range out.Rows {
		k := relational.RowKey(row)
		if seen[k] {
			continue
		}
		seen[k] = true
		dd.Rows = append(dd.Rows, row)
		ds = append(ds, srcRows[i])
	}
	return dd, ds
}

// fallbackEnv resolves names first against the projected row, then the
// source row, so ORDER BY can reference aliases and dropped columns.
type fallbackEnv struct {
	primary, secondary expr.Env
}

// Lookup implements expr.Env.
func (f fallbackEnv) Lookup(name string) (value.V, bool) {
	if v, ok := f.primary.Lookup(name); ok {
		return v, true
	}
	return f.secondary.Lookup(name)
}

// orderParallel sorts out (and srcRows) in place by the ORDER BY keys.
func orderParallel(out *relational.Rel, srcRows []relational.Row, source *relational.Rel, keys []sqlparse.OrderItem) error {
	type keyed struct {
		row  relational.Row
		src  relational.Row
		vals []value.V
	}
	rows := make([]keyed, len(out.Rows))
	for i := range out.Rows {
		env := fallbackEnv{primary: out.Env(out.Rows[i]), secondary: source.Env(srcRows[i])}
		vals := make([]value.V, len(keys))
		for ki, k := range keys {
			e := k.Expr
			if k.Agg != nil {
				e = expr.Col{Name: k.Agg.Name()}
			}
			v, err := e.Eval(env)
			if err != nil {
				return err
			}
			vals[ki] = v
		}
		rows[i] = keyed{row: out.Rows[i], src: srcRows[i], vals: vals}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for ki := range keys {
			d := value.Compare(rows[i].vals[ki], rows[j].vals[ki])
			if d == 0 {
				continue
			}
			if keys[ki].Desc {
				return d > 0
			}
			return d < 0
		}
		return false
	})
	for i, kr := range rows {
		out.Rows[i] = kr.row
		srcRows[i] = kr.src
	}
	return nil
}
