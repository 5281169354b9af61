package etable

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// MatchNaive is the match oracle: m(Q) with no reduction and no
// streamed pipeline. Every node's condition is compiled on the spot and
// applied with the serial Select, and the pattern's edges are joined in
// declaration order, starting at the primary node, with the algebra's
// reference Join — each step a fully materialized intermediate. It
// shares no code with matchPipeline beyond graphrel's per-range phases,
// so the engine (whatever batch size, budget, or sink it ran under) is
// tested against it as a canonical tuple set (canonMatch), and
// BenchmarkAblation_JoinPlanner measures what the reduction buys over
// it.
func MatchNaive(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		var pred *expr.Pred
		if n.Cond != nil {
			var err error
			if pred, err = expr.Compile(n.Cond, g.Schema().NodeType(n.Type)); err != nil {
				return nil, err
			}
		}
		set, err := graphrel.SelectSet(nil, nil, 1, g, g.NodesOfType(n.Type), pred)
		if err == nil {
			bases[n.Key], err = graphrel.SetRelation(g, n.Type, n.Key, set)
		}
		if err != nil {
			return nil, err
		}
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		return nil, err
	}
	cur := bases[start]
	for _, st := range steps {
		if cur, err = st.join(cur, bases[st.NewKey]); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// joinStep is one join of the oracle: extend the joined relation from
// AnchorKey (already joined) to NewKey along EdgeName, which is
// oriented anchor → new, or, Against, new → anchor (a type stored one
// way only).
type joinStep struct {
	AnchorKey, NewKey, EdgeName string
	Against                     bool
}

// join extends cur by base along the step, joining in the edge type's
// stored direction: against it, base is the left operand (the tuple
// set, not the attribute order, is the answer).
func (st joinStep) join(cur, base *graphrel.Relation) (*graphrel.Relation, error) {
	left, right, la, ra := cur, base, st.AnchorKey, st.NewKey
	if st.Against {
		left, right, la, ra = base, cur, st.NewKey, st.AnchorKey
	}
	src, err := graphrel.StreamJoin(nil, graphrel.StreamRelationBatch(left, 0), right, st.EdgeName, false, la, ra)
	if err != nil {
		return nil, err
	}
	return graphrel.MaterializeMax(src, 0)
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
			anchorKey, newKey, edgeName, against, ok := orientEdge(schema, e, joined)
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

// planIntermediates materializes the oracle's declared join steps one
// by one with the reference operators and returns each step's output
// cardinality — the intermediates of a join-then-fold engine, which the
// reduction never builds.
func planIntermediates(t testing.TB, g *tgm.InstanceGraph, p *Pattern) []int {
	t.Helper()
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		r, err := MatchNaive(g, &Pattern{Nodes: []PatternNode{*n}, Primary: n.Key})
		if err != nil {
			t.Fatal(err)
		}
		bases[n.Key] = r
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		t.Fatal(err)
	}
	cur, rows := bases[start], make([]int, 0, len(steps))
	for _, st := range steps {
		if cur, err = st.join(cur, bases[st.NewKey]); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, cur.Len())
	}
	return rows
}

// oracleTuples is the oracle's answer for p as a canonical tuple set.
func oracleTuples(t testing.TB, g *tgm.InstanceGraph, p *Pattern) []string {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatalf("oracle (%s): %v", p, err)
	}
	return canonMatch(ref)
}

// assertMatchesOracle asserts got holds exactly the oracle's tuples
// (order-insensitively: the engine's row order follows its plan).
func assertMatchesOracle(t testing.TB, label string, got *graphrel.Relation, want []string) {
	t.Helper()
	if !reflect.DeepEqual(canonMatch(got), want) {
		t.Fatalf("%s: tuple set diverges from the oracle (%d rows, oracle %d)", label, got.Len(), len(want))
	}
}

// assertReducedMatches asserts a cached reduced match holds exactly
// what the oracle's m(Q) projects: |m(Q)| rows, and per attribute the
// distinct nodes of its column.
func assertReducedMatches(t testing.TB, label string, red *Reduced, want *graphrel.Relation) {
	t.Helper()
	if red.rows != want.Len() {
		t.Fatalf("%s: |m(Q)| = %d, oracle %d", label, red.rows, want.Len())
	}
	for _, a := range want.Attrs {
		set, ok := red.Set(a.Name)
		if !ok {
			t.Fatalf("%s: no set for %q", label, a.Name)
		}
		proj := slices.Clone(want.ColumnNamed(a.Name))
		slices.Sort(proj)
		if got, wantIDs := set.IDs(), slices.Compact(proj); !slices.Equal(got, wantIDs) {
			t.Fatalf("%s: set %q = %d nodes, oracle projects %d", label, a.Name, len(got), len(wantIDs))
		}
	}
}

// oracleTable is the oracle's enriched table for p: the presentation
// folded from MatchNaive's relation by foldOracle, rendered in full.
// The enriched table is canonical (rows and references ascend by node
// ID), so the engine's renders must equal it cell for cell.
func oracleTable(t testing.TB, g *tgm.InstanceGraph, p *Pattern) (*Presentation, *Result) {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatalf("oracle (%s): %v", p, err)
	}
	pr, err := foldOracle(g, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return pr, res
}

// foldOracle is the fold oracle: the presentation of a matched
// relation folded the way the format transformation defines it, with
// maps and sorts and no kernel of the engine — rows are the distinct
// primary nodes ascending, and each participating cell the distinct
// nodes co-occurring with its row, ascending.
func foldOracle(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation) (*Presentation, error) {
	prim := matched.ColumnNamed(p.Primary)
	rows := slices.Clone(prim)
	slices.Sort(rows)
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(p.PrimaryNode().Type), rowIDs: slices.Compact(rows)}
	var parts []groupSource
	for _, n := range p.Nodes {
		if n.Key == p.Primary {
			continue
		}
		vals := matched.ColumnNamed(n.Key)
		groups := mapGroups{}
		for i, r := range prim {
			groups[r] = append(groups[r], vals[i])
		}
		for r, ids := range groups {
			slices.Sort(ids)
			groups[r] = slices.Compact(ids)
		}
		parts = append(parts, groups)
	}
	if err := pr.layoutColumns(p, parts); err != nil {
		return nil, err
	}
	return pr, nil
}

// mapGroups is the fold oracle's grouping: a map from row to its
// sorted distinct related nodes.
type mapGroups map[tgm.NodeID][]tgm.NodeID

func (m mapGroups) Count(id tgm.NodeID) int { return len(m[id]) }

func (m mapGroups) Refs(_ *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error) { return m[id], nil }

// BenchmarkAblation_JoinPlanner compares the engine's match — reduced
// sets, then enumerated from them — against the oracle's declared join
// order on the Figure 7 pattern, where the naive order starts at the
// unfiltered Authors side.
func BenchmarkAblation_JoinPlanner(b *testing.B) {
	tr := planFixture(b)
	p := figure7PlanPattern(b, tr)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Match(tr.Instance, p); err != nil {
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
