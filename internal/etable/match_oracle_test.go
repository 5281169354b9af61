package etable

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// MatchNaive is the match oracle: m(Q) with no reduction and none of
// graphrel's kernels past the base selections. Every node's condition
// is compiled on the spot and selected from its type's nodes, and the
// pattern's edges are joined in declaration order, starting at the
// primary node, each step a nested-loop join over the edge type's
// stored adjacency (joinStep.join) into a fully materialized
// intermediate. Its tuples are naiveMatch's: the engine holds no tuple,
// so it is tested against the oracle's projections and tuple count
// (sameMatch), and BenchmarkAblation_JoinPlanner measures what the
// reduction buys over it.
func MatchNaive(g *tgm.InstanceGraph, p *Pattern) (*naiveMatch, error) {
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases := make(map[string][]tgm.NodeID, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		var pred *expr.Pred
		if n.Cond != nil {
			var err error
			if pred, err = expr.Compile(n.Cond, g.Schema().NodeType(n.Type)); err != nil {
				return nil, err
			}
		}
		set, err := graphrel.SelectSet(nil, g, g.NodesOfType(n.Type), pred)
		if err != nil {
			return nil, err
		}
		bases[n.Key] = set.IDs()
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		return nil, err
	}
	cur := &naiveMatch{cols: map[string][]tgm.NodeID{start: bases[start]}, n: len(bases[start])}
	for _, st := range steps {
		cur = st.join(g, cur, bases[st.NewKey])
	}
	return cur, nil
}

// naiveMatch is the oracle's m(Q): per pattern node key a column of
// node IDs, n long; row i is the i-th tuple.
type naiveMatch struct {
	cols map[string][]tgm.NodeID
	n    int
}

// Len returns the number of tuples.
func (m *naiveMatch) Len() int { return m.n }

// ColumnNamed returns the column of the node keyed key, or nil.
func (m *naiveMatch) ColumnNamed(key string) []tgm.NodeID { return m.cols[key] }

// joinStep is one join of the oracle: extend the joined relation from
// AnchorKey (already joined) to NewKey along EdgeName, which is
// oriented anchor → new, or, Against, new → anchor (a type stored one
// way only).
type joinStep struct {
	AnchorKey, NewKey, EdgeName string
	Against                     bool
}

// join extends cur by the new node's selected base (ascending IDs),
// reading the step's edge type only in its stored direction: each
// tuple pairs with every base node its anchor node's adjacency lists,
// or, against the type, every base node whose own adjacency lists the
// anchor node.
func (st joinStep) join(g *tgm.InstanceGraph, cur *naiveMatch, base []tgm.NodeID) *naiveMatch {
	out := &naiveMatch{cols: make(map[string][]tgm.NodeID, len(cur.cols)+1)}
	for i, a := range cur.cols[st.AnchorKey] {
		for _, b := range base {
			from, to := a, b
			if st.Against {
				from, to = b, a
			}
			if !slices.Contains(g.Neighbors(from, st.EdgeName), to) {
				continue
			}
			for k, col := range cur.cols {
				out.cols[k] = append(out.cols[k], col[i])
			}
			out.cols[st.NewKey] = append(out.cols[st.NewKey], b)
			out.n++
		}
	}
	return out
}

// declaredSteps is the oracle's join order: start at the primary node
// and take pattern edges in declaration order as they become
// connected.
func declaredSteps(schema *tgm.SchemaGraph, p *Pattern) (startKey string, steps []joinStep, err error) {
	prim := p.PrimaryNode()
	joined := map[string]bool{prim.Key: true}
	remaining := len(p.Nodes) - 1
	for remaining > 0 {
		progressed := false
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, against, ok := orientEdge(schema, e, func(k string) bool { return joined[k] })
			if !ok {
				continue
			}
			steps = append(steps, joinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName, Against: against})
			joined[newKey] = true
			remaining--
			progressed = true
		}
		if !progressed {
			return "", nil, errDisconnected
		}
	}
	return prim.Key, steps, nil
}

// sameMatch reports how rel, p's match as the engine holds it,
// differs from the oracle's m(Q) want: every pattern node's set must be
// π_k(want), the distinct nodes of the node's column, and rel's Len
// must be |want|. rel's tree must be loaded (MatchOpts loads it).
func sameMatch(p *Pattern, rel *graphrel.Relation, want *naiveMatch) error {
	for i := range p.Nodes {
		k := p.Nodes[i].Key
		set, ok := rel.Set(k)
		if !ok {
			return fmt.Errorf("no set for pattern node %q", k)
		}
		proj := slices.Clone(want.ColumnNamed(k))
		slices.Sort(proj)
		if got, wantIDs := set.IDs(), slices.Compact(proj); !slices.Equal(got, wantIDs) {
			return fmt.Errorf("set %q = %d nodes, the oracle projects %d", k, len(got), len(wantIDs))
		}
	}
	if rel.Len() != want.Len() {
		return fmt.Errorf("Len = %d, the oracle holds %d tuples", rel.Len(), want.Len())
	}
	return nil
}

// assertReducedMatches fails t unless rel is the oracle's m(Q) for p
// (sameMatch).
func assertReducedMatches(t testing.TB, label string, p *Pattern, rel *graphrel.Relation, want *naiveMatch) {
	t.Helper()
	if err := sameMatch(p, rel, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// oracleTable is the oracle's enriched table for p: MatchNaive's
// relation folded by foldOracle, in full and as the view the tests
// window and sort. The enriched table is canonical (rows and references
// ascend by node ID), so the engine's renders must equal it cell for
// cell.
func oracleTable(t testing.TB, g *tgm.InstanceGraph, p *Pattern) (oracleView, *Result) {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatalf("oracle (%s): %v", p, err)
	}
	res, err := foldOracle(g, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	return oracleView{res}, res
}

// foldOracle is the fold oracle: the enriched table of a matched
// relation folded the way the format transformation defines it, with
// maps and sorts and no kernel of the engine — rows are the distinct
// primary nodes ascending, each participating cell the distinct nodes
// co-occurring with its row, ascending, and each neighbor cell the
// row's adjacency; values and labels are read off the attribute
// columns node by node. Only the column layout is the engine's.
func foldOracle(g *tgm.InstanceGraph, p *Pattern, matched *naiveMatch) (*Result, error) {
	lay := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(p.PrimaryNode().Type)}
	if err := lay.layoutColumns(p, make([]graphrel.Path, len(p.Nodes)-1)); err != nil {
		return nil, err
	}
	prim := matched.ColumnNamed(p.Primary)
	rows := slices.Clone(prim)
	slices.Sort(rows)
	rows = slices.Compact(rows)
	groups := map[string]map[tgm.NodeID][]tgm.NodeID{}
	for _, c := range lay.columns {
		if c.Kind != ColParticipating {
			continue
		}
		m := map[tgm.NodeID][]tgm.NodeID{}
		for i, v := range matched.ColumnNamed(c.NodeKey) {
			m[prim[i]] = append(m[prim[i]], v)
		}
		for r, ids := range m {
			slices.Sort(ids)
			m[r] = slices.Compact(ids)
		}
		groups[c.NodeKey] = m
	}
	res := &Result{Pattern: p, PrimaryType: lay.primType, Columns: lay.columns, TotalRows: len(rows), Rows: make([]Row, 0, len(rows))}
	for _, id := range rows {
		row := Row{Node: id, Label: oracleLabel(g, id), Cells: make([]Cell, len(lay.columns))}
		for ci, c := range lay.columns {
			var ids []tgm.NodeID
			switch c.Kind {
			case ColBase:
				col, err := g.AttrColumn(lay.primType.Name, lay.primType.AttrIndex(c.Attr))
				if err != nil {
					return nil, err
				}
				lo, _ := g.TypeIDRange(lay.primType.Name)
				row.Cells[ci].Value = col.At(int(id - lo))
				continue
			case ColParticipating:
				ids = groups[c.NodeKey][id]
			default:
				ids = g.Neighbors(id, c.EdgeType)
			}
			row.Cells[ci].Refs = make([]EntityRef, len(ids))
			for k, ref := range ids {
				row.Cells[ci].Refs[k] = EntityRef{ID: ref, Label: oracleLabel(g, ref)}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// oracleLabel renders node id's label from its type's label column.
func oracleLabel(g *tgm.InstanceGraph, id tgm.NodeID) string {
	nt := g.Node(id).Type
	col, err := g.AttrColumn(nt.Name, nt.LabelIndex())
	if err != nil {
		panic(err)
	}
	lo, _ := g.TypeIDRange(nt.Name)
	v := col.At(int(id - lo))
	if v.Kind() == value.KindString {
		return v.AsString()
	}
	return v.Format()
}

// oracleView is the fold oracle's table in one row order: what a test
// windows and sorts beside a Presentation, with a plain stable sort by
// value.Compare or by cell size instead of the engine's rank and count
// kernels.
type oracleView struct{ res *Result }

// NumRows returns the table's row count.
func (v oracleView) NumRows() int { return len(v.res.Rows) }

// Window returns the [offset, offset+limit) window as a Presentation's
// Window does.
func (v oracleView) Window(offset, limit int) (*Result, error) {
	lo := min(offset, len(v.res.Rows))
	hi := len(v.res.Rows)
	if limit >= 0 && limit < hi-lo {
		hi = lo + limit
	}
	w := *v.res
	w.Offset, w.Rows = lo, slices.Clone(v.res.Rows[lo:hi])
	if w.Rows == nil {
		w.Rows = make([]Row, 0)
	}
	return &w, nil
}

// SortedView returns the view stably reordered per spec: a base
// attribute by value.Compare, a reference column by its cell size.
func (v oracleView) SortedView(spec SortSpec) (oracleView, error) {
	ci := slices.IndexFunc(v.res.Columns, func(c Column) bool {
		return (spec.Attr != "" && c.Kind == ColBase && c.Attr == spec.Attr) ||
			(spec.Column != "" && c.Kind != ColBase && c.Name == spec.Column)
	})
	if ci < 0 {
		return oracleView{}, fmt.Errorf("oracle: no column for %+v", spec)
	}
	sorted := *v.res
	sorted.Rows = slices.Clone(v.res.Rows)
	slices.SortStableFunc(sorted.Rows, func(a, b Row) int {
		c := cmp.Compare(a.Cells[ci].Count(), b.Cells[ci].Count())
		if spec.Attr != "" {
			c = value.Compare(a.Cells[ci].Value, b.Cells[ci].Value)
		}
		if spec.Desc {
			c = -c
		}
		return c
	})
	return oracleView{&sorted}, nil
}

// BenchmarkAblation_JoinPlanner compares the engine's match and
// prepare — reduced sets, then the presentation over them, as a served
// miss computes them — against the oracle's declared join order on the
// Figure 7 pattern, where the naive order starts at the unfiltered
// Authors side.
func BenchmarkAblation_JoinPlanner(b *testing.B) {
	tr := planFixture(b)
	p := figure7PlanPattern(b, tr)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := MatchOpts(tr.Instance, p, ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := PrepareOpts(tr.Instance, p, rel, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("declared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatchNaive(tr.Instance, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
