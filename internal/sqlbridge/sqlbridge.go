// Package sqlbridge implements the paper's §8 expressiveness argument as
// executable code: the three-step translation from a typical SQL join
// query over the original relational schema to an equivalent ETable
// query pattern over the TGDB.
//
//  1. The FROM-clause relations and the join conditions in WHERE map to
//     node types and edge types of the typed graph model (entity tables
//     become pattern nodes; relationship and multivalued-attribute
//     relations become pattern edges).
//  2. The remaining selection conditions apply to the corresponding
//     pattern nodes.
//  3. The GROUP BY attribute's relation becomes the primary node type;
//     without GROUP BY, the first entity relation is chosen arbitrarily
//     (as the paper permits).
//
// Supported input is the paper's general query pattern: SELECT over
// FK–PK equi-joined relations with a conjunctive WHERE and an optional
// GROUP BY. Set operations, aggregates in SELECT, HAVING, and disjunctive
// join graphs are out of scope, as in the paper.
package sqlbridge

import (
	"fmt"
	"strings"

	"repro/internal/etable"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/translate"
)

// Bridge translates SQL join queries into ETable patterns using the
// schema translation's provenance maps.
type Bridge struct {
	tr *translate.Result
}

// New returns a bridge over a completed schema translation.
func New(tr *translate.Result) *Bridge { return &Bridge{tr: tr} }

// tableRole describes how one FROM-clause relation maps into the TGDB.
type tableRole uint8

const (
	roleEntity tableRole = iota
	roleRelationship
	roleMultiValued
)

type fromTable struct {
	alias string
	name  string
	role  tableRole
	// nodeKey is the pattern node key for entity and multivalued tables.
	nodeKey string
	// conds accumulates single-table selection conditions.
	conds []expr.Expr
	// for relationship tables: the two endpoint aliases matched so far,
	// keyed by their FK column name.
	matched map[string]string
}

// Translate converts a SQL string into a validated ETable pattern.
func (b *Bridge) Translate(sql string) (*etable.Pattern, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return b.TranslateStmt(stmt)
}

// TranslateStmt converts a parsed statement into a pattern.
func (b *Bridge) TranslateStmt(stmt *sqlparse.SelectStmt) (*etable.Pattern, error) {
	if len(stmt.Aggregates()) > 0 || stmt.Having != nil {
		return nil, fmt.Errorf("sqlbridge: aggregates and HAVING are outside the §8 pattern " +
			"(ETable presents groups as entity-reference lists instead)")
	}
	// Collect FROM tables (including explicit JOINs).
	refs := append([]sqlparse.TableRef{}, stmt.From...)
	var joinConds []expr.Expr
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
		joinConds = append(joinConds, j.On)
	}

	tables := map[string]*fromTable{}
	order := []string{}
	for _, r := range refs {
		ft, err := b.classify(r)
		if err != nil {
			return nil, err
		}
		if _, dup := tables[ft.alias]; dup {
			return nil, fmt.Errorf("sqlbridge: duplicate alias %q", ft.alias)
		}
		tables[ft.alias] = ft
		order = append(order, ft.alias)
	}

	// Partition WHERE into join conditions and selections.
	var conjuncts []expr.Expr
	conjuncts = flatten(stmt.Where, conjuncts)
	for _, jc := range joinConds {
		conjuncts = flatten(jc, conjuncts)
	}

	p := &etable.Pattern{}
	// Pattern nodes for entity and multivalued tables.
	usedKeys := map[string]bool{}
	for _, a := range order {
		ft := tables[a]
		if ft.role == roleRelationship {
			continue
		}
		key := ft.nodeKeyBase(b.tr)
		for i := 2; usedKeys[key]; i++ {
			key = fmt.Sprintf("%s#%d", ft.nodeKeyBase(b.tr), i)
		}
		usedKeys[key] = true
		ft.nodeKey = key
		p.Nodes = append(p.Nodes, etable.PatternNode{Key: key, Type: ft.nodeKeyBase(b.tr)})
	}

	var selections []expr.Expr
	for _, c := range conjuncts {
		handled, err := b.applyJoinCond(p, tables, c)
		if err != nil {
			return nil, err
		}
		if !handled {
			selections = append(selections, c)
		}
	}

	// Relationship tables must have both endpoints matched; emit edges.
	for _, a := range order {
		ft := tables[a]
		if ft.role != roleRelationship {
			continue
		}
		if len(ft.matched) != 2 {
			return nil, fmt.Errorf("sqlbridge: relationship relation %q is not joined to both endpoints", ft.name)
		}
		if err := b.emitRelationshipEdge(p, tables, ft); err != nil {
			return nil, err
		}
	}

	// Selection conditions attach to their table's pattern node.
	for _, c := range selections {
		alias, err := b.singleTableCond(tables, c)
		if err != nil {
			return nil, err
		}
		ft := tables[alias]
		if ft.role == roleRelationship {
			return nil, fmt.Errorf("sqlbridge: condition %s applies to relationship relation %q "+
				"(Appendix A ignores relationship attributes)", c, ft.name)
		}
		node := patternNode(p, ft.nodeKey)
		// Strip alias qualifiers so the condition reads the node's attributes.
		cond := expr.MapCols(c, func(col expr.Col) expr.Expr {
			return expr.Col{Name: col.Name[strings.LastIndexByte(col.Name, '.')+1:]}
		})
		if node.Cond == nil {
			node.Cond = cond
			node.CondSrc = cond.String()
		} else {
			node.Cond = expr.And{Left: node.Cond, Right: cond}
			node.CondSrc = node.CondSrc + " AND " + cond.String()
		}
	}

	// Primary: GROUP BY relation, else the first node.
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("sqlbridge: no entity relations in FROM clause")
	}
	p.Primary = p.Nodes[0].Key
	if len(stmt.GroupBy) > 0 {
		col, ok := stmt.GroupBy[0].(expr.Col)
		if !ok {
			return nil, fmt.Errorf("sqlbridge: GROUP BY must name a column")
		}
		alias, _, err := b.resolveColumn(tables, col.Name)
		if err != nil {
			return nil, err
		}
		ft := tables[alias]
		if ft.role == roleRelationship {
			return nil, fmt.Errorf("sqlbridge: cannot group by relationship relation %q", ft.name)
		}
		p.Primary = ft.nodeKey
	}

	if err := p.Validate(b.tr.Schema); err != nil {
		return nil, fmt.Errorf("sqlbridge: translated pattern invalid: %w", err)
	}
	return p, nil
}

// nodeKeyBase returns the node type name a table maps to.
func (ft *fromTable) nodeKeyBase(tr *translate.Result) string {
	if ft.role == roleMultiValued {
		// Multivalued relations map to their attribute node type, whose
		// name the translator derives as "Table: column".
		edge := tr.MVEdges[ft.name]
		return tr.Schema.EdgeType(edge).Target
	}
	return ft.name
}

func (b *Bridge) classify(r sqlparse.TableRef) (*fromTable, error) {
	ft := &fromTable{alias: r.EffectiveAlias(), name: r.Name, matched: map[string]string{}}
	switch {
	case b.tr.Schema.NodeType(r.Name) != nil && b.tr.Schema.NodeType(r.Name).SourceTable == r.Name:
		ft.role = roleEntity
	case b.tr.RelEdges[r.Name] != "":
		ft.role = roleRelationship
	case b.tr.MVEdges[r.Name] != "":
		ft.role = roleMultiValued
	default:
		return nil, fmt.Errorf("sqlbridge: relation %q is not in the translated schema", r.Name)
	}
	return ft, nil
}

func flatten(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if e == nil {
		return dst
	}
	if and, ok := e.(expr.And); ok {
		return flatten(and.Right, flatten(and.Left, dst))
	}
	return append(dst, e)
}

// resolveColumn maps a column reference to (alias, bare column name).
func (b *Bridge) resolveColumn(tables map[string]*fromTable, name string) (string, string, error) {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		alias, col := name[:i], name[i+1:]
		if _, ok := tables[alias]; !ok {
			return "", "", fmt.Errorf("sqlbridge: unknown alias %q", alias)
		}
		return alias, col, nil
	}
	// Bare name: unique across FROM tables by relational column name.
	var found, foundCol string
	for a, ft := range tables {
		if b.tableHasColumn(ft, name) {
			if found != "" {
				return "", "", fmt.Errorf("sqlbridge: ambiguous column %q", name)
			}
			found, foundCol = a, name
		}
	}
	if found == "" {
		return "", "", fmt.Errorf("sqlbridge: unknown column %q", name)
	}
	return found, foundCol, nil
}

func (b *Bridge) tableHasColumn(ft *fromTable, col string) bool {
	switch ft.role {
	case roleEntity:
		nt := b.tr.Schema.NodeType(ft.name)
		return nt != nil && nt.AttrIndex(col) >= 0
	case roleMultiValued:
		nt := b.tr.Schema.NodeType(ft.nodeKeyBase(b.tr))
		if nt != nil && nt.AttrIndex(col) >= 0 {
			return true
		}
		// The FK column of the multivalued relation.
		return strings.HasSuffix(col, "_id")
	case roleRelationship:
		_, ok := b.tr.FKEdges[ft.name+"."+col]
		_ = ok
		return true // relationship columns are FKs; resolved via joins
	}
	return false
}

// applyJoinCond recognizes FK–PK equality join conditions and records
// them; it reports whether the conjunct was consumed as a join.
func (b *Bridge) applyJoinCond(p *etable.Pattern, tables map[string]*fromTable, c expr.Expr) (bool, error) {
	cmp, ok := c.(expr.Cmp)
	if !ok || cmp.Op != expr.OpEq {
		return false, nil
	}
	lc, lok := cmp.Left.(expr.Col)
	rc, rok := cmp.Right.(expr.Col)
	if !lok || !rok {
		return false, nil
	}
	la, lcol, lerr := b.resolveColumn(tables, lc.Name)
	ra, rcol, rerr := b.resolveColumn(tables, rc.Name)
	if lerr != nil || rerr != nil || la == ra {
		return false, nil
	}
	lt, rt := tables[la], tables[ra]

	// Relationship/multivalued table joined to an entity: record endpoint.
	for _, pair := range []struct {
		rel, ent *fromTable
		relCol   string
	}{{lt, rt, lcol}, {rt, lt, rcol}} {
		if pair.rel.role == roleRelationship {
			pair.rel.matched[pair.relCol] = pair.ent.alias
			return true, nil
		}
		if pair.rel.role == roleMultiValued && pair.ent.role == roleEntity {
			// Edge entity → attribute node type.
			edge := b.tr.MVEdges[pair.rel.name]
			p.Edges = append(p.Edges, etable.PatternEdge{
				EdgeType: edge, From: pair.ent.nodeKey, To: pair.rel.nodeKey,
			})
			return true, nil
		}
	}

	// FK between two entity tables.
	if lt.role == roleEntity && rt.role == roleEntity {
		if edge, ok := b.tr.FKEdges[lt.name+"."+lcol]; ok {
			p.Edges = append(p.Edges, etable.PatternEdge{EdgeType: edge, From: lt.nodeKey, To: rt.nodeKey})
			return true, nil
		}
		if edge, ok := b.tr.FKEdges[rt.name+"."+rcol]; ok {
			p.Edges = append(p.Edges, etable.PatternEdge{EdgeType: edge, From: rt.nodeKey, To: lt.nodeKey})
			return true, nil
		}
	}
	return false, nil
}

// emitRelationshipEdge adds the m:n pattern edge once both endpoint
// aliases of a relationship relation are known.
func (b *Bridge) emitRelationshipEdge(p *etable.Pattern, tables map[string]*fromTable, ft *fromTable) error {
	edgeName := b.tr.RelEdges[ft.name]
	et := b.tr.Schema.EdgeType(edgeName)
	if et == nil {
		return fmt.Errorf("sqlbridge: missing edge type for relationship %q", ft.name)
	}
	// The translator records the relationship's PK columns in order; the
	// first column's endpoint is the edge source, the second's its target.
	// This disambiguates self-relationships (Paper_References), where both
	// endpoint types are equal and type matching alone cannot orient the
	// edge.
	cols, ok := b.tr.RelEndpoints[ft.name]
	if !ok {
		return fmt.Errorf("sqlbridge: missing endpoint columns for relationship %q", ft.name)
	}
	srcAlias, ok1 := ft.matched[cols[0]]
	dstAlias, ok2 := ft.matched[cols[1]]
	if !ok1 || !ok2 {
		return fmt.Errorf("sqlbridge: relationship %q joins must use its key columns %s and %s",
			ft.name, cols[0], cols[1])
	}
	n1, n2 := patternNode(p, tables[srcAlias].nodeKey), patternNode(p, tables[dstAlias].nodeKey)
	if n1 == nil || n2 == nil {
		return fmt.Errorf("sqlbridge: relationship %q endpoints not in pattern", ft.name)
	}
	if n1.Type != et.Source || n2.Type != et.Target {
		return fmt.Errorf("sqlbridge: relationship %q endpoint types %q/%q do not match edge %q (%s→%s)",
			ft.name, n1.Type, n2.Type, edgeName, et.Source, et.Target)
	}
	p.Edges = append(p.Edges, etable.PatternEdge{EdgeType: edgeName, From: n1.Key, To: n2.Key})
	return nil
}

// singleTableCond verifies a conjunct references exactly one table and
// returns that table's alias.
func (b *Bridge) singleTableCond(tables map[string]*fromTable, c expr.Expr) (string, error) {
	var alias string
	for _, name := range c.Columns(nil) {
		a, _, err := b.resolveColumn(tables, name)
		if err != nil {
			return "", err
		}
		if alias != "" && a != alias {
			return "", fmt.Errorf("sqlbridge: condition %s spans multiple relations", c)
		}
		alias = a
	}
	if alias == "" {
		return "", fmt.Errorf("sqlbridge: condition %s references no columns", c)
	}
	return alias, nil
}

func patternNode(p *etable.Pattern, key string) *etable.PatternNode {
	for i := range p.Nodes {
		if p.Nodes[i].Key == key {
			return &p.Nodes[i]
		}
	}
	return nil
}

// ToGeneralSQL renders a pattern as the paper's §8 general SQL query
// pattern, with ent-list pseudo-aggregates for the non-primary nodes:
//
//	SELECT τa.*, ent-list(t1), … FROM … WHERE … GROUP BY τa;
func ToGeneralSQL(p *etable.Pattern) string {
	var sel, from, where []string
	sel = append(sel, p.Primary+".*")
	for _, n := range p.Nodes {
		from = append(from, n.Key)
		if n.Key != p.Primary {
			sel = append(sel, fmt.Sprintf("ent-list(%s)", n.Key))
		}
		if n.Cond != nil {
			where = append(where, n.Cond.String())
		}
	}
	for _, e := range p.Edges {
		where = append(where, fmt.Sprintf("%s ~%s~ %s", e.From, e.EdgeType, e.To))
	}
	sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + " GROUP BY " + p.Primary + ";"
}
