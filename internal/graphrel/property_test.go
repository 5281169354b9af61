package graphrel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

// randomGraph builds a three-type chain schema A→B→C with random edges
// and node counts drawn from rng.
func randomGraph(t *testing.T, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	g := idGraph(t, []string{"A", "B", "C"},
		tgm.EdgeType{Name: "A-B", Source: "A", Target: "B"}, tgm.EdgeType{Name: "B-C", Source: "B", Target: "C"})
	counts := map[string][]tgm.NodeID{}
	for _, name := range []string{"A", "B", "C"} {
		counts[name] = addIDs(t, g, name, 1+rng.Intn(20))
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

func assertSameTuples(t *testing.T, trial int, label string, a, b *tuples) {
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
// a filler type F is added first, then Y's run, then X's, so every
// populated type's run starts at a distinct non-zero ID and an index
// read at id instead of id − lo lands on another node's slot or outside
// the index; Z has no nodes at all. X–Y edges are random and
// many-to-many.
func scatteredGraph(t *testing.T, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	g := idGraph(t, []string{"F", "X", "Y", "Z"},
		tgm.EdgeType{Name: "X-Y", Source: "X", Target: "Y"}, tgm.EdgeType{Name: "Y-Z", Source: "Y", Target: "Z"})
	ids := map[string][]tgm.NodeID{}
	for _, run := range []struct {
		name string
		n    int
	}{{"F", 1 + rng.Intn(3)}, {"Y", 4 + rng.Intn(30)}, {"X", 4 + rng.Intn(30)}} {
		ids[run.name] = addIDs(t, g, run.name, run.n)
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

// TestJoinScatteredIDs pins Reduce and Relation.Len where dense IDs
// could go wrong: ID runs starting at distinct non-zero IDs, a type
// with no nodes, a type repeated in one tree and a root with two
// children. The reduced sets must be JoinScan's projections and Len
// its tuple count, and the join walked through the selected and the
// reduced sets alike must hold JoinScan's tuples.
func TestJoinScatteredIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
	for trial := 0; trial < 25; trial++ {
		g := scatteredGraph(t, rng)
		at := func(typ, name string) attr { return attr{Name: name, Type: g.Schema().NodeType(typ)} }
		xs, _ := base(g, "X", "X")
		ys, _ := base(g, "Y", "Y")
		zs, _ := base(g, "Z", "Z")
		xs2, _ := base(g, "X", "X#2")
		join := func(r1, r2 *tuples, edge, la, ra string) *tuples {
			t.Helper()
			j, err := JoinScan(r1, r2, edge, la, ra)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		setX, setY, setZ := selected(t, g, "X", ""), selected(t, g, "Y", ""), selected(t, g, "Z", "")
		xy, yx := edgeTo(g, 0, "X-Y"), edgeTo(g, 0, "X-Y_rev")
		for _, tc := range []struct {
			name  string
			attrs []attr
			sets  []NodeSet
			tree  []TreeEdge
			want  *tuples
		}{
			{"X*Y", []attr{at("X", "X"), at("Y", "Y")}, []NodeSet{setX, setY}, []TreeEdge{{}, xy}, join(xs, ys, "X-Y", "X", "Y")},
			{"Y*X", []attr{at("Y", "Y"), at("X", "X")}, []NodeSet{setY, setX}, []TreeEdge{{}, yx}, join(ys, xs, "X-Y_rev", "Y", "X")},
			{"X*Y*X#2", []attr{at("X", "X"), at("Y", "Y"), at("X", "X#2")}, []NodeSet{setX, setY, setX},
				[]TreeEdge{{}, xy, edgeTo(g, 1, "X-Y_rev")}, join(join(xs, ys, "X-Y", "X", "Y"), xs2, "X-Y_rev", "Y", "X#2")},
			{"Y*(X#2,X)", []attr{at("Y", "Y"), at("X", "X#2"), at("X", "X")}, []NodeSet{setY, setX, setX},
				[]TreeEdge{{}, yx, yx}, join(join(ys, xs2, "X-Y_rev", "Y", "X#2"), xs, "X-Y_rev", "Y", "X")},
			{"Y*Z empty type", []attr{at("Y", "Y"), at("Z", "Z")}, []NodeSet{setY, setZ}, []TreeEdge{{}, edgeTo(g, 0, "Y-Z")}, join(ys, zs, "Y-Z", "Y", "Z")},
			{"Z*Y empty type", []attr{at("Z", "Z"), at("Y", "Y")}, []NodeSet{setZ, setY}, []TreeEdge{{}, edgeTo(g, 0, "Y-Z_rev")}, join(zs, ys, "Y-Z_rev", "Z", "Y")},
		} {
			red, err := Reduce(nil, tc.sets, tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			for name, sets := range map[string][]NodeSet{"selected": tc.sets, "reduced": red} {
				got, err := enumerate(g, tc.attrs, sets, tc.tree)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTuples(t, trial, tc.name+" "+name, got, tc.want)
			}
			keys := make([]string, len(tc.attrs))
			for i, a := range tc.attrs {
				keys[i] = a.Name
			}
			assertReduced(t, fmt.Sprintf("trial %d %s", trial, tc.name), relationOf(t, keys, red, tc.tree), tc.want)
		}
	}
}

// idGraph returns an empty graph over the named node types, each with
// one integer attribute, id, that is also its label, and each edge
// type added with its reverse.
func idGraph(t testing.TB, types []string, edges ...tgm.EdgeType) *tgm.InstanceGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range types {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, et := range edges {
		if _, err := s.AddBidirectional(et); err != nil {
			t.Fatal(err)
		}
	}
	return tgm.NewInstanceGraph(s)
}

// addIDs adds n nodes of typ, their ids 0…n−1, and returns their IDs.
func addIDs(t testing.TB, g *tgm.InstanceGraph, typ string, n int) []tgm.NodeID {
	t.Helper()
	ids := make([]tgm.NodeID, n)
	for i := range ids {
		id, err := g.AddNode(typ, []value.V{value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}
