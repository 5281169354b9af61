package etable

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// MatchNaive is the match oracle: m(Q) with no planner and no streamed
// pipeline. Every node's condition is compiled on the
// spot and applied with the serial Select, and the pattern's edges are
// joined in declaration order, starting at the primary node, with the
// algebra's reference Join — each step a fully materialized
// intermediate. It shares no code with
// matchPipeline beyond graphrel's per-range phases, so the engine
// (whatever plan, batch size, budget, or sink it ran under) is tested
// against it as a canonical tuple set (canonMatch), and
// BenchmarkAblation_JoinPlanner measures what the planner buys over it.
func MatchNaive(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		r, err := graphrel.BaseNamed(g, n.Type, n.Key)
		if err != nil {
			return nil, err
		}
		if n.Cond != nil {
			pred, err := expr.Compile(n.Cond, g.Schema().NodeType(n.Type))
			if err != nil {
				return nil, err
			}
			if r, err = graphrel.Select(nil, nil, 1, r, n.Key, pred); err != nil {
				return nil, err
			}
		}
		bases[n.Key] = r
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		return nil, err
	}
	cur := bases[start]
	for _, st := range steps {
		if cur, err = graphrel.Join(cur, bases[st.NewKey], st.EdgeName, st.AnchorKey, st.NewKey); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// declaredSteps reproduces the pre-planner join order: start at the
// primary node and take pattern edges in declaration order as they
// become connected.
func declaredSteps(schema *tgm.SchemaGraph, p *Pattern) (startKey string, steps []JoinStep, err error) {
	prim := p.PrimaryNode()
	joined := map[string]bool{prim.Key: true}
	remaining := len(p.Nodes) - 1
	for remaining > 0 {
		progressed := false
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(schema, e, joined)
			if !ok {
				continue
			}
			steps = append(steps, JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName})
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

// selectedBases selects every pattern node's base through its plan's
// compiled predicate, as the engine does before it orders the joins.
func selectedBases(t testing.TB, g *tgm.InstanceGraph, p *Pattern) map[string]*graphrel.Relation {
	t.Helper()
	pl, err := buildPlan(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		r, err := graphrel.BaseNamed(g, n.Type, n.Key)
		if err != nil {
			t.Fatal(err)
		}
		if bases[n.Key], err = graphrel.Select(nil, nil, 1, r, n.Key, pl.preds[n.Key]); err != nil {
			t.Fatal(err)
		}
	}
	return bases
}

// baseUnits makes every node its own join unit, its selected base, in
// pattern order: the engine's units for a match from the bases.
func baseUnits(p *Pattern, bases map[string]*graphrel.Relation) []unit {
	units := make([]unit, len(p.Nodes))
	for i, n := range p.Nodes {
		units[i] = unit{keys: []string{n.Key}, rel: bases[n.Key]}
	}
	return units
}

// planIntermediates materializes the engine's join steps one by one
// with the reference operators and returns each step's output
// cardinality — the intermediates the engine never holds in full.
func planIntermediates(t testing.TB, g *tgm.InstanceGraph, p *Pattern) []int {
	t.Helper()
	start, steps, err := orderJoins(g, p, baseUnits(p, selectedBases(t, g, p)))
	if err != nil {
		t.Fatal(err)
	}
	cur, rows := start.rel, make([]int, 0, len(steps))
	for _, st := range steps {
		if cur, err = graphrel.Join(cur, st.right, st.EdgeName, st.AnchorKey, st.NewKey); err != nil {
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

// oracleTable is the oracle's enriched table for p: the presentation
// prepared over MatchNaive's relation, rendered in full. The enriched
// table is canonical (rows and references ascend by node ID), so the
// engine's renders must equal it cell for cell.
func oracleTable(t testing.TB, g *tgm.InstanceGraph, p *Pattern) (*Presentation, *Result) {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatalf("oracle (%s): %v", p, err)
	}
	pr, err := Prepare(g, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return pr, res
}

// BenchmarkAblation_JoinPlanner compares the planned match against the
// oracle's declaration order on the Figure 7 pattern, where the naive
// order starts at the unfiltered Authors side and the planner starts
// at the single SIGMOD conference.
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
