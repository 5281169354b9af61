// Package sqlexec executes parsed SQL statements (internal/sqlparse)
// against the in-memory relational engine (internal/relational). It
// implements a small cost-aware planner: selection pushdown onto base
// tables, greedy equi-join ordering over the WHERE/ON join graph (hash
// joins), and falls back to theta/cross joins only when no join
// predicate connects the next table.
//
// This layer is the stand-in for PostgreSQL's executor in the paper's
// three-tier architecture (§6.2): the graph-in-relational storage layer
// (internal/storage) translates ETable query patterns into SQL text,
// which lands here.
package sqlexec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/relational"
	"repro/internal/sqlparse"
)

// conjunct is one ANDed predicate with the set of table aliases it
// references.
type conjunct struct {
	e       expr.Expr
	aliases map[string]bool
	used    bool
}

// splitConjuncts flattens nested ANDs into a list of predicates.
func splitConjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if e == nil {
		return dst
	}
	if and, ok := e.(expr.And); ok {
		return splitConjuncts(and.Right, splitConjuncts(and.Left, dst))
	}
	return append(dst, e)
}

// planner resolves column references against the FROM tables and orders
// the joins.
type planner struct {
	db      *relational.DB
	tables  []sqlparse.TableRef // FROM order, including JOIN clauses
	schemas map[string]*relational.Schema
}

func newPlanner(db *relational.DB, stmt *sqlparse.SelectStmt) (*planner, error) {
	p := &planner{db: db, schemas: make(map[string]*relational.Schema)}
	add := func(ref sqlparse.TableRef) error {
		t, err := db.Table(ref.Name)
		if err != nil {
			return err
		}
		alias := ref.EffectiveAlias()
		if _, dup := p.schemas[alias]; dup {
			return fmt.Errorf("sqlexec: duplicate table alias %q", alias)
		}
		p.schemas[alias] = t.Schema()
		p.tables = append(p.tables, ref)
		return nil
	}
	for _, ref := range stmt.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range stmt.Joins {
		if err := add(j.Table); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// resolveColumn maps a column reference to the alias owning it. Agg
// canonical names (containing parentheses) resolve to no alias — they
// exist only post-grouping.
func (p *planner) resolveColumn(name string) (alias string, err error) {
	if strings.ContainsRune(name, '(') {
		return "", nil
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		tbl, col := name[:i], name[i+1:]
		if s, ok := p.schemas[tbl]; ok {
			if !s.HasColumn(col) {
				return "", fmt.Errorf("sqlexec: table %q has no column %q", tbl, col)
			}
			return tbl, nil
		}
		return "", fmt.Errorf("sqlexec: unknown table or alias %q", tbl)
	}
	var found string
	for a, s := range p.schemas {
		if s.HasColumn(name) {
			if found != "" {
				return "", fmt.Errorf("sqlexec: ambiguous column %q (in %q and %q)", name, found, a)
			}
			found = a
		}
	}
	if found == "" {
		return "", fmt.Errorf("sqlexec: unknown column %q", name)
	}
	return found, nil
}

// groupKeys returns the GROUP BY columns followed by every other column
// of each table whose whole primary key is among them: PostgreSQL's
// rule that a primary key determines its row. One group holds one row
// of such a table, so grouping by its other columns too splits no
// group, and each group carries its first row's values. A column of a
// table not grouped by its key stays unreadable after grouping.
func (p *planner) groupKeys(groupBy []expr.Expr) []expr.Expr {
	grouped := map[string]bool{}
	for _, k := range groupBy {
		if c, ok := k.(expr.Col); ok {
			if alias, err := p.resolveColumn(c.Name); err == nil && alias != "" {
				grouped[alias+"."+c.Name[strings.LastIndexByte(c.Name, '.')+1:]] = true
			}
		}
	}
	keys := slices.Clip(groupBy)
	for _, ref := range p.tables {
		alias, s := ref.EffectiveAlias(), p.schemas[ref.EffectiveAlias()]
		if len(s.PrimaryKey) == 0 || slices.ContainsFunc(s.PrimaryKey, func(c string) bool { return !grouped[alias+"."+c] }) {
			continue
		}
		for _, c := range s.Columns {
			if name := alias + "." + c.Name; !grouped[name] {
				keys = append(keys, expr.Col{Name: name})
			}
		}
	}
	return keys
}

// analyze computes the alias set referenced by an expression.
func (p *planner) analyze(e expr.Expr) (conjunct, error) {
	c := conjunct{e: e, aliases: make(map[string]bool)}
	for _, name := range e.Columns(nil) {
		a, err := p.resolveColumn(name)
		if err != nil {
			return c, err
		}
		if a != "" {
			c.aliases[a] = true
		}
	}
	return c, nil
}

// equiJoinSides reports whether e is a single equality between columns
// of two different aliases, returning the two column names.
func (p *planner) equiJoinSides(e expr.Expr) (left, right string, ok bool) {
	cmp, isCmp := e.(expr.Cmp)
	if !isCmp || cmp.Op != expr.OpEq {
		return "", "", false
	}
	lc, lok := cmp.Left.(expr.Col)
	rc, rok := cmp.Right.(expr.Col)
	if !lok || !rok {
		return "", "", false
	}
	la, err1 := p.resolveColumn(lc.Name)
	ra, err2 := p.resolveColumn(rc.Name)
	if err1 != nil || err2 != nil || la == "" || ra == "" || la == ra {
		return "", "", false
	}
	return lc.Name, rc.Name, true
}

// buildJoined loads, filters, and joins all FROM tables, returning the
// combined relation. Conjuncts that could not be applied during the join
// phase (e.g. referencing aggregate names) are returned for the caller.
func (p *planner) buildJoined(where expr.Expr, joins []sqlparse.JoinClause) (*relational.Rel, []expr.Expr, error) {
	var raw []expr.Expr
	raw = splitConjuncts(where, raw)
	for _, j := range joins {
		raw = splitConjuncts(j.On, raw)
	}
	conjuncts := make([]conjunct, 0, len(raw))
	for _, e := range raw {
		c, err := p.analyze(e)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = append(conjuncts, c)
	}

	// Load base relations, applying single-table predicates immediately.
	rels := make(map[string]*relational.Rel, len(p.tables))
	for _, ref := range p.tables {
		t, err := p.db.Table(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		alias := ref.EffectiveAlias()
		rel := t.Rel()
		if alias != ref.Name {
			rel = relational.Rename(rel, alias)
		}
		for i := range conjuncts {
			c := &conjuncts[i]
			if c.used || len(c.aliases) != 1 || !c.aliases[alias] {
				continue
			}
			filtered, err := relational.Select(rel, c.e)
			if err != nil {
				return nil, nil, err
			}
			rel = filtered
			c.used = true
		}
		rels[alias] = rel
	}

	// Greedy join ordering: start from the first FROM table, repeatedly
	// attach a table connected by an equality predicate; fall back to
	// theta, then cross joins.
	joined := map[string]bool{}
	var cur *relational.Rel
	remaining := make([]string, 0, len(p.tables))
	for _, ref := range p.tables {
		remaining = append(remaining, ref.EffectiveAlias())
	}

	attach := func(alias string, joinWith func(r *relational.Rel) (*relational.Rel, error)) error {
		next, err := joinWith(rels[alias])
		if err != nil {
			return err
		}
		cur = next
		joined[alias] = true
		for i, a := range remaining {
			if a == alias {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
		// Apply any predicate whose aliases are now all joined.
		for i := range conjuncts {
			c := &conjuncts[i]
			if c.used || len(c.aliases) == 0 {
				continue
			}
			all := true
			for a := range c.aliases {
				if !joined[a] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			filtered, err := relational.Select(cur, c.e)
			if err != nil {
				return err
			}
			cur = filtered
			c.used = true
		}
		return nil
	}

	if err := attach(remaining[0], func(r *relational.Rel) (*relational.Rel, error) {
		return r, nil
	}); err != nil {
		return nil, nil, err
	}

	for len(remaining) > 0 {
		// 1) Equality predicate bridging joined ↔ one unjoined table.
		attached := false
		for i := range conjuncts {
			c := &conjuncts[i]
			if c.used {
				continue
			}
			lcol, rcol, isEq := p.equiJoinSides(c.e)
			if !isEq {
				continue
			}
			la, _ := p.resolveColumn(lcol)
			ra, _ := p.resolveColumn(rcol)
			var newAlias, joinedCol, newCol string
			switch {
			case joined[la] && !joined[ra]:
				newAlias, joinedCol, newCol = ra, lcol, rcol
			case joined[ra] && !joined[la]:
				newAlias, joinedCol, newCol = la, rcol, lcol
			default:
				continue
			}
			c.used = true
			if err := attach(newAlias, func(r *relational.Rel) (*relational.Rel, error) {
				return relational.EquiJoin(cur, r, joinedCol, newCol)
			}); err != nil {
				return nil, nil, err
			}
			attached = true
			break
		}
		if attached {
			continue
		}
		// 2) Any predicate bridging joined ↔ exactly one unjoined table.
		for i := range conjuncts {
			c := &conjuncts[i]
			if c.used || len(c.aliases) < 2 {
				continue
			}
			var unjoined []string
			anyJoined := false
			for a := range c.aliases {
				if joined[a] {
					anyJoined = true
				} else {
					unjoined = append(unjoined, a)
				}
			}
			if !anyJoined || len(unjoined) != 1 {
				continue
			}
			c.used = true
			if err := attach(unjoined[0], func(r *relational.Rel) (*relational.Rel, error) {
				return relational.ThetaJoin(cur, r, c.e)
			}); err != nil {
				return nil, nil, err
			}
			attached = true
			break
		}
		if attached {
			continue
		}
		// 3) Cross join the next table in FROM order.
		if err := attach(remaining[0], func(r *relational.Rel) (*relational.Rel, error) {
			return relational.CrossJoin(cur, r), nil
		}); err != nil {
			return nil, nil, err
		}
	}

	// Residual predicates that reference no table columns (e.g. aggregate
	// names rewritten from HAVING misuse) are returned to the caller.
	var residual []expr.Expr
	for i := range conjuncts {
		if !conjuncts[i].used {
			residual = append(residual, conjuncts[i].e)
		}
	}
	return cur, residual, nil
}
