// Package storage implements the paper's §6.2 backend architecture: the
// TGDB schema and instance graphs persisted in relational tables, with
// ETable query patterns translated into SQL that runs on the relational
// engine (the paper used PostgreSQL; internal/relational+sqlexec stand in
// for it).
//
// The paper stores the TGDB in four tables (nodes, edges, node types,
// edge types). We use five: node attribute values move into a separate
// node_attrs table (node_id, name, val) so that translated SQL can filter
// on attribute values with plain joins — the paper's PostgreSQL backend
// could push such predicates into its nodes-table row format, which a
// strictly relational subset cannot.
//
// Two execution strategies are provided, matching the paper's
// optimization note: a single monolithic SQL query joining everything,
// and the partitioned strategy ("we partition a long SQL query into
// multiple queries … each for a single entity-reference column, and
// merge them"), which is benchmarked as an ablation.
package storage

import (
	"fmt"
	"strings"

	"repro/internal/etable"
	"repro/internal/expr"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/tgm"
	"repro/internal/value"
)

// Table names used by the store.
const (
	TableNodeTypes = "node_types"
	TableEdgeTypes = "edge_types"
	TableNodes     = "nodes"
	TableEdges     = "edges"
	TableNodeAttrs = "node_attrs"
)

// Store is a TGDB persisted into relational tables.
type Store struct {
	db     *relational.DB
	schema *tgm.SchemaGraph
}

// DB exposes the underlying relational database (for inspection, tests,
// and the translation CLI).
func (st *Store) DB() *relational.DB { return st.db }

// Schema returns the TGDB schema graph.
func (st *Store) Schema() *tgm.SchemaGraph { return st.schema }

// FromGraph serializes a TGDB instance graph into a fresh relational
// database.
func FromGraph(g *tgm.InstanceGraph) (*Store, error) {
	db := relational.NewDB()
	st := &Store{db: db, schema: g.Schema()}

	nodeTypes := db.MustCreateTable(relational.Schema{
		Name: TableNodeTypes,
		Columns: []relational.Column{
			{Name: "name", Type: value.KindString},
			{Name: "label_attr", Type: value.KindString},
			{Name: "key_attr", Type: value.KindString},
			{Name: "kind", Type: value.KindInt},
		},
		PrimaryKey: []string{"name"},
	})
	edgeTypes := db.MustCreateTable(relational.Schema{
		Name: TableEdgeTypes,
		Columns: []relational.Column{
			{Name: "name", Type: value.KindString},
			{Name: "source", Type: value.KindString},
			{Name: "target", Type: value.KindString},
			{Name: "label", Type: value.KindString},
			{Name: "kind", Type: value.KindInt},
			{Name: "reverse", Type: value.KindString},
		},
		PrimaryKey: []string{"name"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "source", RefTable: TableNodeTypes, RefCol: "name"},
			{Col: "target", RefTable: TableNodeTypes, RefCol: "name"},
		},
	})
	nodes := db.MustCreateTable(relational.Schema{
		Name: TableNodes,
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "type", Type: value.KindString},
			{Name: "label", Type: value.KindString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "type", RefTable: TableNodeTypes, RefCol: "name"},
		},
	})
	edges := db.MustCreateTable(relational.Schema{
		Name: TableEdges,
		Columns: []relational.Column{
			{Name: "type", Type: value.KindString},
			{Name: "src", Type: value.KindInt},
			{Name: "dst", Type: value.KindInt},
		},
		PrimaryKey: []string{"type", "src", "dst"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "type", RefTable: TableEdgeTypes, RefCol: "name"},
			{Col: "src", RefTable: TableNodes, RefCol: "id"},
			{Col: "dst", RefTable: TableNodes, RefCol: "id"},
		},
	})
	attrs := db.MustCreateTable(relational.Schema{
		Name: TableNodeAttrs,
		Columns: []relational.Column{
			{Name: "node_id", Type: value.KindInt},
			{Name: "name", Type: value.KindString},
			{Name: "val", Type: value.KindNull}, // dynamically typed
		},
		PrimaryKey: []string{"node_id", "name"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "node_id", RefTable: TableNodes, RefCol: "id"},
		},
	})

	for _, nt := range g.Schema().NodeTypes() {
		if _, err := nodeTypes.InsertValues(
			value.Str(nt.Name), value.Str(nt.Label), value.Str(nt.Key), value.Int(int64(nt.Kind)),
		); err != nil {
			return nil, err
		}
	}
	for _, et := range g.Schema().EdgeTypes() {
		if _, err := edgeTypes.InsertValues(
			value.Str(et.Name), value.Str(et.Source), value.Str(et.Target),
			value.Str(et.Label), value.Int(int64(et.Kind)), value.Str(et.Reverse),
		); err != nil {
			return nil, err
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(tgm.NodeID(i))
		if _, err := nodes.InsertValues(
			value.Int(int64(n.ID)), value.Str(n.Type.Name), value.Str(strings.Clone(n.Label())),
		); err != nil {
			return nil, err
		}
		for ai, a := range n.Type.Attrs {
			if _, err := attrs.InsertValues(
				value.Int(int64(n.ID)), value.Str(a.Name), n.AttrAt(ai).Clone(),
			); err != nil {
				return nil, err
			}
		}
	}
	for _, et := range g.Schema().EdgeTypes() {
		for _, src := range g.NodesOfType(et.Source) {
			for _, dst := range g.Neighbors(src, et.Name) {
				if _, err := edges.InsertValues(
					value.Str(et.Name), value.Int(int64(src)), value.Int(int64(dst)),
				); err != nil {
					return nil, err
				}
			}
		}
	}
	return st, nil
}

// sqlBuilder accumulates the FROM and WHERE parts of a translated query.
type sqlBuilder struct {
	from  []string
	where []string
}

func (b *sqlBuilder) table(table, alias string) {
	b.from = append(b.from, table+" "+alias)
}

func (b *sqlBuilder) cond(format string, args ...any) {
	b.where = append(b.where, fmt.Sprintf(format, args...))
}

func (b *sqlBuilder) sql(selectList string, distinct bool) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if distinct {
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString(selectList)
	sb.WriteString(" FROM ")
	sb.WriteString(strings.Join(b.from, ", "))
	if len(b.where) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(b.where, " AND "))
	}
	return sb.String()
}

func quoteStr(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// attrName strips any qualifier from a column name.
func attrName(c string) string { return c[strings.LastIndexByte(c, '.')+1:] }

// condAttrs returns the distinct attribute names referenced by a node
// condition, with any qualification stripped.
func condAttrs(e expr.Expr) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range e.Columns(nil) {
		c = attrName(c)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// addPatternNode emits the FROM/WHERE clauses for one pattern node:
// its nodes-table alias, type restriction, and (if conditioned) one
// node_attrs join per referenced attribute plus the rewritten condition.
func (st *Store) addPatternNode(b *sqlBuilder, n *etable.PatternNode, alias string, seq *int) {
	b.table(TableNodes, alias)
	b.cond("%s.type = %s", alias, quoteStr(n.Type))
	if n.Cond == nil {
		return
	}
	attrAlias := map[string]string{}
	for _, a := range condAttrs(n.Cond) {
		*seq++
		aa := fmt.Sprintf("a%d", *seq)
		attrAlias[a] = aa
		b.table(TableNodeAttrs, aa)
		b.cond("%s.node_id = %s.id", aa, alias)
		b.cond("%s.name = %s", aa, quoteStr(a))
	}
	// Each attribute reference reads the val column of its node_attrs alias.
	cond := expr.MapCols(n.Cond, func(c expr.Col) expr.Expr {
		if a, ok := attrAlias[attrName(c.Name)]; ok {
			return expr.Col{Name: a + ".val"}
		}
		return c
	})
	b.cond("(%s)", cond.String())
}

// TranslateMonolithic translates a query pattern into one SQL statement
// over the store's tables, selecting the node ids of every pattern node
// (primary first). This is the "long SQL query" of §6.2.
func (st *Store) TranslateMonolithic(p *etable.Pattern) (string, error) {
	if err := p.Validate(st.schema); err != nil {
		return "", err
	}
	b := &sqlBuilder{}
	aliases := map[string]string{}
	seq := 0
	// Primary node first so the first select item is the row key.
	order := []*etable.PatternNode{p.PrimaryNode()}
	for i := range p.Nodes {
		if p.Nodes[i].Key != p.Primary {
			order = append(order, &p.Nodes[i])
		}
	}
	for i, n := range order {
		alias := fmt.Sprintf("n%d", i+1)
		aliases[n.Key] = alias
		st.addPatternNode(b, n, alias, &seq)
	}
	for i, e := range p.Edges {
		ea := fmt.Sprintf("e%d", i+1)
		b.table(TableEdges, ea)
		b.cond("%s.type = %s", ea, quoteStr(e.EdgeType))
		b.cond("%s.src = %s.id", ea, aliases[e.From])
		b.cond("%s.dst = %s.id", ea, aliases[e.To])
	}
	var sel []string
	for _, n := range order {
		sel = append(sel, fmt.Sprintf("%s.id AS %s", aliases[n.Key], selAlias(n.Key)))
	}
	return b.sql(strings.Join(sel, ", "), false), nil
}

// selAlias makes a pattern node key safe as a SQL output alias.
func selAlias(key string) string {
	var sb strings.Builder
	sb.WriteString("k_")
	for _, r := range key {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// translatePath translates the part of the pattern needed to compute
// one entity-reference column into SQL selecting (primary id, target id)
// pairs: the primary node plus the entire subtree of the pattern hanging
// off the primary in the target's direction. Conditions of every included
// node apply. Subtrees hanging off the primary in other directions are
// omitted — they only constrain which primary rows exist, which the rows
// query already fixed — so each column's query joins fewer relations
// than the monolithic one (§6.2's partitioning), while branches below
// intermediate nodes are kept because they filter (primary, target)
// pairs directly.
func (st *Store) translatePath(p *etable.Pattern, target string) (string, error) {
	nodes, edges, err := subtreeTowards(p, target)
	if err != nil {
		return "", err
	}
	b := &sqlBuilder{}
	aliases := map[string]string{}
	seq := 0
	idx := 0
	for _, key := range nodes {
		idx++
		alias := fmt.Sprintf("n%d", idx)
		aliases[key] = alias
		st.addPatternNode(b, p.Node(key), alias, &seq)
	}
	for i, e := range edges {
		ea := fmt.Sprintf("e%d", i+1)
		b.table(TableEdges, ea)
		b.cond("%s.type = %s", ea, quoteStr(e.EdgeType))
		b.cond("%s.src = %s.id", ea, aliases[e.From])
		b.cond("%s.dst = %s.id", ea, aliases[e.To])
	}
	sel := fmt.Sprintf("%s.id AS k_primary, %s.id AS k_target",
		aliases[p.Primary], aliases[target])
	return b.sql(sel, true), nil
}

// subtreeTowards returns the pattern nodes and edges forming the primary
// node plus the full subtree hanging off the primary in the direction of
// target (the primary first in the node list).
func subtreeTowards(p *etable.Pattern, target string) ([]string, []etable.PatternEdge, error) {
	adj := map[string][]etable.PatternEdge{}
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e)
		adj[e.To] = append(adj[e.To], e)
	}
	var walk func(cur, avoid string, acc map[string]bool)
	walk = func(cur, avoid string, acc map[string]bool) {
		acc[cur] = true
		for _, e := range adj[cur] {
			next := e.To
			if next == cur {
				next = e.From
			}
			if next == avoid || acc[next] {
				continue
			}
			walk(next, avoid, acc)
		}
	}
	// Identify the primary's child whose subtree contains target.
	for _, e := range adj[p.Primary] {
		child := e.To
		if child == p.Primary {
			child = e.From
		}
		members := map[string]bool{}
		walk(child, p.Primary, members)
		if !members[target] {
			continue
		}
		nodes := []string{p.Primary}
		for _, n := range p.Nodes {
			if members[n.Key] {
				nodes = append(nodes, n.Key)
			}
		}
		var edges []etable.PatternEdge
		for _, pe := range p.Edges {
			switch {
			case members[pe.From] && members[pe.To]:
				edges = append(edges, pe) // inside the subtree
			case pe.From == p.Primary && members[pe.To],
				pe.To == p.Primary && members[pe.From]:
				edges = append(edges, pe) // the connecting edge
			}
		}
		return nodes, edges, nil
	}
	return nil, nil, fmt.Errorf("storage: no path from %q to %q in pattern", p.Primary, target)
}

// Mode selects the execution strategy.
type Mode uint8

// Execution strategies.
const (
	// Monolithic runs one SQL query joining the entire pattern and
	// derives rows and participating columns from its result.
	Monolithic Mode = iota
	// Partitioned runs one small query per entity-reference column and
	// merges, the strategy §6.2 describes for efficiency.
	Partitioned
)

// Ref is one entity reference in a storage result.
type Ref struct {
	ID    int64
	Label string
}

// Column is one entity-reference column of a storage result.
type Column struct {
	Name string
	// NodeKey is the pattern node key (participating columns) or ""
	// (neighbor columns).
	NodeKey string
	// EdgeType is set for neighbor columns.
	EdgeType string
}

// Result is an executed pattern in storage-backed form: row node ids,
// labels, and per-column reference lists, merged from the translated SQL
// queries.
type Result struct {
	RowIDs    []int64
	RowLabels []string
	Columns   []Column
	// Cells[row][col] lists the references of one cell.
	Cells [][][]Ref
	// Queries records every SQL statement executed, in order.
	Queries []string
}

// ExecutePattern translates the pattern to SQL, runs it on the
// relational backend, and merges the results into enriched-table form.
func (st *Store) ExecutePattern(p *etable.Pattern, mode Mode) (*Result, error) {
	if err := p.Validate(st.schema); err != nil {
		return nil, err
	}
	switch mode {
	case Monolithic:
		return st.executeMonolithic(p)
	case Partitioned:
		return st.executePartitioned(p)
	default:
		return nil, fmt.Errorf("storage: unknown mode %d", mode)
	}
}

func (st *Store) run(res *Result, sql string) (*relational.Rel, error) {
	res.Queries = append(res.Queries, sql)
	rel, err := sqlexec.ExecSQL(st.db, sql)
	if err != nil {
		return nil, fmt.Errorf("storage: executing %q: %w", sql, err)
	}
	return rel, nil
}

func (st *Store) executeMonolithic(p *etable.Pattern) (*Result, error) {
	res := &Result{}
	sql, err := st.TranslateMonolithic(p)
	if err != nil {
		return nil, err
	}
	rel, err := st.run(res, sql)
	if err != nil {
		return nil, err
	}
	// Column 0 is the primary id; remaining columns are participating
	// node keys in pattern order (primary first then others).
	var partKeys []string
	for i := range p.Nodes {
		if p.Nodes[i].Key != p.Primary {
			partKeys = append(partKeys, p.Nodes[i].Key)
		}
	}
	// Rows: distinct primary ids in encounter order.
	seen := map[int64]bool{}
	groups := make([]map[int64][]Ref, len(partKeys))
	seenPair := make([]map[[2]int64]bool, len(partKeys))
	for i := range partKeys {
		groups[i] = map[int64][]Ref{}
		seenPair[i] = map[[2]int64]bool{}
	}
	for _, row := range rel.Rows {
		pid := row[0].AsInt()
		if !seen[pid] {
			seen[pid] = true
			res.RowIDs = append(res.RowIDs, pid)
		}
		for i := range partKeys {
			vid := row[i+1].AsInt()
			pair := [2]int64{pid, vid}
			if seenPair[i][pair] {
				continue
			}
			seenPair[i][pair] = true
			groups[i][pid] = append(groups[i][pid], Ref{ID: vid})
		}
	}
	return st.assemble(p, res, partKeys, groups)
}

func (st *Store) executePartitioned(p *etable.Pattern) (*Result, error) {
	res := &Result{}
	// Rows query: full pattern, distinct primary ids.
	sql, err := st.TranslateMonolithic(p)
	if err != nil {
		return nil, err
	}
	primSel := fmt.Sprintf("n1.id AS %s", selAlias(p.Primary))
	rowsSQL := "SELECT DISTINCT " + primSel + sql[strings.Index(sql, " FROM "):]
	rel, err := st.run(res, rowsSQL)
	if err != nil {
		return nil, err
	}
	rowSet := map[int64]bool{}
	for _, row := range rel.Rows {
		pid := row[0].AsInt()
		if !rowSet[pid] {
			rowSet[pid] = true
			res.RowIDs = append(res.RowIDs, pid)
		}
	}
	// One path query per participating column.
	var partKeys []string
	for i := range p.Nodes {
		if p.Nodes[i].Key != p.Primary {
			partKeys = append(partKeys, p.Nodes[i].Key)
		}
	}
	groups := make([]map[int64][]Ref, len(partKeys))
	for i, key := range partKeys {
		groups[i] = map[int64][]Ref{}
		pathSQL, err := st.translatePath(p, key)
		if err != nil {
			return nil, err
		}
		prel, err := st.run(res, pathSQL)
		if err != nil {
			return nil, err
		}
		for _, row := range prel.Rows {
			pid, vid := row[0].AsInt(), row[1].AsInt()
			if rowSet[pid] {
				groups[i][pid] = append(groups[i][pid], Ref{ID: vid})
			}
		}
	}
	return st.assemble(p, res, partKeys, groups)
}

// assemble fills in labels, neighbor columns, and cell lists.
func (st *Store) assemble(p *etable.Pattern, res *Result, partKeys []string, groups []map[int64][]Ref) (*Result, error) {
	labels, err := st.nodeLabels()
	if err != nil {
		return nil, err
	}
	res.RowLabels = make([]string, len(res.RowIDs))
	for i, id := range res.RowIDs {
		res.RowLabels[i] = labels[id]
	}
	for _, key := range partKeys {
		res.Columns = append(res.Columns, Column{Name: key, NodeKey: key})
	}

	// Neighbor columns: schema out-edges of the primary type not already
	// shown as adjacent participating columns. Edges stored in the
	// opposite orientation count through their reverse type, mirroring
	// the in-memory transformation.
	prim := p.PrimaryNode()
	shown := map[string]bool{}
	for _, e := range p.Edges {
		switch {
		case e.From == p.Primary:
			shown[e.EdgeType] = true
		case e.To == p.Primary:
			if et := st.schema.EdgeType(e.EdgeType); et != nil && et.Reverse != "" {
				shown[et.Reverse] = true
			}
		}
	}
	rowSet := map[int64]bool{}
	for _, id := range res.RowIDs {
		rowSet[id] = true
	}
	var neighborGroups []map[int64][]Ref
	for _, et := range st.schema.OutEdges(prim.Type) {
		if shown[et.Name] {
			continue
		}
		sql := fmt.Sprintf("SELECT e.src, e.dst FROM %s e WHERE e.type = %s",
			TableEdges, quoteStr(et.Name))
		rel, err := st.run(res, sql)
		if err != nil {
			return nil, err
		}
		g := map[int64][]Ref{}
		for _, row := range rel.Rows {
			src, dst := row[0].AsInt(), row[1].AsInt()
			if rowSet[src] {
				g[src] = append(g[src], Ref{ID: dst})
			}
		}
		res.Columns = append(res.Columns, Column{Name: et.Label, EdgeType: et.Name})
		neighborGroups = append(neighborGroups, g)
	}

	// Merge cells and attach labels.
	all := append(append([]map[int64][]Ref{}, groups...), neighborGroups...)
	res.Cells = make([][][]Ref, len(res.RowIDs))
	for ri, pid := range res.RowIDs {
		res.Cells[ri] = make([][]Ref, len(res.Columns))
		for ci := range res.Columns {
			refs := all[ci][pid]
			withLabels := make([]Ref, len(refs))
			for i, r := range refs {
				withLabels[i] = Ref{ID: r.ID, Label: labels[r.ID]}
			}
			res.Cells[ri][ci] = withLabels
		}
	}
	return res, nil
}

// nodeLabels loads the id → label map from the nodes table.
func (st *Store) nodeLabels() (map[int64]string, error) {
	t, err := st.db.Table(TableNodes)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]string, t.Len())
	for _, r := range t.Rows() {
		out[r[0].AsInt()] = r[2].AsString()
	}
	return out, nil
}
