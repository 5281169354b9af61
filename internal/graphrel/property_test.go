package graphrel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
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

// scatteredGraph builds the graph dense ID indexing could get wrong:
// X and Y nodes are added alternately (with random runs), so neither
// type's IDs are contiguous and each type's span covers the other's
// nodes; Z has no nodes at all. X–Y edges are random and many-to-many.
func scatteredGraph(t *testing.T, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"X", "Y", "Z"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []tgm.EdgeType{
		{Name: "X-Y", Source: "X", Target: "Y"},
		{Name: "Y-Z", Source: "Y", Target: "Z"},
	} {
		if _, err := s.AddBidirectional(e); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(s)
	ids := map[string][]tgm.NodeID{}
	for i, n := 0, 8+rng.Intn(40); i < n; i++ {
		name := []string{"X", "Y"}[i%2]
		for run := 1 + rng.Intn(2); run > 0; run-- {
			id, err := g.AddNode(name, []value.V{value.Int(int64(len(ids[name])))})
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = append(ids[name], id)
		}
	}
	for _, name := range []string{"X", "Y"} {
		if _, _, contiguous := g.TypeIDRange(name); contiguous {
			t.Fatalf("type %s came out contiguous: %v", name, ids[name])
		}
	}
	for _, x := range ids["X"] {
		for _, y := range ids["Y"] {
			if rng.Intn(3) == 0 {
				if err := g.AddEdge("X-Y", x, y); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.Freeze()
	return g
}

// scatteredJoin is X ∗ Y ∗ Y#2 over the scattered graph: every pair of
// Y nodes sharing an X, so each column repeats its nodes heavily.
func scatteredJoin(t *testing.T, g *tgm.InstanceGraph) *Relation {
	t.Helper()
	xs, _ := Base(g, "X")
	ys, _ := Base(g, "Y")
	ys2, _ := BaseNamed(g, "Y", "Y#2")
	xy, err := Join(xs, ys, "X-Y", "X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	xyy, err := Join(xy, ys2, "X-Y", "X", "Y#2")
	if err != nil {
		t.Fatal(err)
	}
	return xyy
}

// TestJoinScatteredIDs pins the dense join index where it could go
// wrong: no type contiguous, a type with no nodes, and a multi-column
// build side whose join column repeats nodes. StreamJoin must equal Join
// row for row at every budget and batch size, and Join must hold
// JoinScan's tuples.
func TestJoinScatteredIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
	pool := exec.NewPool(4)
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		g := scatteredGraph(t, rng)
		xs, _ := Base(g, "X")
		ys, _ := Base(g, "Y")
		zs, _ := Base(g, "Z")
		xs2, _ := BaseNamed(g, "X", "X#2")
		// Build side (Y, X#2): two columns, Y repeating once per X#2.
		build, err := Join(ys, xs2, "X-Y_rev", "Y", "X#2")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name        string
			left, right *Relation
			edge, la, r string
		}{
			{"X*Y", xs, ys, "X-Y", "X", "Y"},
			{"Y*X", ys, xs, "X-Y_rev", "Y", "X"},
			{"X*(Y,X#2)", xs, build, "X-Y", "X", "Y"},
			{"(Y,X#2)*X", build, xs, "X-Y_rev", "Y", "X"},
			{"Y*Z empty type", ys, zs, "Y-Z", "Y", "Z"},
			{"Z*Y empty type", zs, ys, "Y-Z_rev", "Z", "Y"},
		} {
			want, err := Join(tc.left, tc.right, tc.edge, tc.la, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := JoinScan(tc.left, tc.right, tc.edge, tc.la, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTuples(t, trial, tc.name, want, scan)
			for _, budget := range []int{1, 4} {
				for _, batch := range []int{7, 0} {
					src, err := StreamJoin(ctx, pool, budget, StreamRelationBatch(tc.left, batch), tc.right, tc.edge, tc.la, tc.r)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Materialize(src)
					if err != nil {
						t.Fatal(err)
					}
					assertIdenticalRelations(t, fmt.Sprintf("trial=%d %s budget=%d batch=%d", trial, tc.name, budget, batch), got, want)
				}
			}
		}
	}
}
