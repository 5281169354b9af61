package graphrel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/tgm"
	"repro/internal/value"
)

// randomGraph builds a three-type chain schema A→B→C with random edges
// and node counts drawn from rng.
func randomGraph(t *testing.T, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"A", "B", "C"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []tgm.EdgeType{
		{Name: "A-B", Source: "A", Target: "B"},
		{Name: "B-C", Source: "B", Target: "C"},
	} {
		if _, err := s.AddBidirectional(e); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(s)
	counts := map[string][]tgm.NodeID{}
	for _, name := range []string{"A", "B", "C"} {
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			id, err := g.AddNode(name, []value.V{value.Int(int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			counts[name] = append(counts[name], id)
		}
	}
	addEdges := func(et, from, to string) {
		for _, src := range counts[from] {
			for _, dst := range counts[to] {
				if rng.Intn(4) == 0 {
					if err := g.AddEdge(et, src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	addEdges("A-B", "A", "B")
	addEdges("B-C", "B", "C")
	return g
}

// TestJoinScanEquivalenceRandomized asserts Join ≡ JoinScan (as tuple
// sets) on randomized graphs and randomized selection patterns,
// including joins whose left side is itself a join result.
func TestJoinScanEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng)
		as, err := Base(g, "A")
		if err != nil {
			t.Fatal(err)
		}
		// Random selection on A thins the left side.
		cond := expr.MustParse(fmt.Sprintf("id %% %d = %d", 2+rng.Intn(3), rng.Intn(2)))
		if as, err = selectCond(as, "A", cond); err != nil {
			t.Fatal(err)
		}
		bs, err := Base(g, "B")
		if err != nil {
			t.Fatal(err)
		}
		j1, err := Join(as, bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		j1Scan, err := JoinScan(as, bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, trial, "A*B", j1, j1Scan)

		// Second hop: the left operand is a join result with repeated
		// B nodes, exercising multi-row index fan-out.
		cs, err := Base(g, "C")
		if err != nil {
			t.Fatal(err)
		}
		j2, err := Join(j1, cs, "B-C", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		j2Scan, err := JoinScan(j1, cs, "B-C", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, trial, "A*B*C", j2, j2Scan)
	}
}

func assertSameTuples(t *testing.T, trial int, label string, a, b *Relation) {
	t.Helper()
	ca, cb := canonTuples(a), canonTuples(b)
	if len(ca) != len(cb) {
		t.Fatalf("trial %d %s: %d vs %d tuples", trial, label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("trial %d %s: tuple %d differs", trial, label, i)
		}
	}
}
