package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/tgm"
	"repro/internal/value"
)

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls have returned nil: a cancellation that lands mid-walk.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestStreamCancellation: Enumerate checks its context at every root
// member, so a context canceled before the walk or during it fails
// either form with ctx.Err() and no relation.
func TestStreamCancellation(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(15)))
	sets := []NodeSet{selected(t, g, "A", ""), selected(t, g, "B", "")}
	tree := []TreeEdge{{}, edgeTo(g, 0, "A-B")}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, attrs := range [][]Attr{attrsOf(g, "A", "B"), nil} {
		for name, ctx := range map[string]context.Context{
			"before": canceled,
			"during": &cancelAfter{Context: context.Background(), n: 100},
		} {
			if r, err := Enumerate(ctx, g, attrs, sets, tree); !errors.Is(err, context.Canceled) || r != nil {
				t.Errorf("attrs=%d canceled %s the walk: relation %v, err %v; want context.Canceled", len(attrs), name, r, err)
			}
		}
	}
}

// TestJoinOverUnreadableAdjacency: a deferred adjacency whose load
// fails must not walk as "no neighbors" — an empty relation that would
// then be taken for the match. Enumerate loads every Down before it
// walks and returns the loader's error, in either form, while the
// healthy reverse direction of the same edge walks.
func TestJoinOverUnreadableAdjacency(t *testing.T) {
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"A", "B"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddBidirectional(tgm.EdgeType{Name: "A-B", Source: "A", Target: "B"}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	for _, name := range []string{"A", "A", "B"} { // A: 0, 1; B: 2
		if _, err := g.AddNode(name, []value.V{value.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("adjacency section unreadable")
	if err := g.InstallAdjacencyDeferred("A-B", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallAdjacencyDeferred("A-B_rev", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return []tgm.NodeID{2}, []int32{0, 2}, []tgm.NodeID{0, 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	as, bs := selected(t, g, "A", ""), selected(t, g, "B", "")
	for _, attrs := range [][]Attr{attrsOf(g, "A", "B"), nil} {
		if r, err := Enumerate(nil, g, attrs, []NodeSet{as, bs}, []TreeEdge{{}, edgeTo(g, 0, "A-B")}); !errors.Is(err, boom) {
			t.Errorf("Enumerate over the failed load: relation %v, err %v; want the loader's error", r, err)
		}
	}
	rev, err := Enumerate(nil, g, attrsOf(g, "B", "A"), []NodeSet{bs, as}, []TreeEdge{{}, edgeTo(g, 0, "A-B_rev")})
	if err != nil || rev.Len() != 2 {
		t.Fatalf("Enumerate over the healthy reverse: %v, err %v", rev, err)
	}
}

// TestEnumerateEmpty: a reduction that empties its sets enumerates a
// well-formed relation of no tuples carrying every attribute, and the
// count form counts none.
func TestEnumerateEmpty(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(17)))
	tree := []TreeEdge{{}, edgeTo(g, 0, "A-B")}
	red, err := Reduce(nil, []NodeSet{selected(t, g, "A", "id < 0"), selected(t, g, "B", "")}, tree)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Enumerate(nil, g, attrsOf(g, "A", "B"), red, tree)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || len(r.Attrs) != 2 || r.Attrs[0].Name != "A" || r.Attrs[1].Name != "B" ||
		r.AttrIndex("B") != 1 || len(r.ColumnNamed("B")) != 0 {
		t.Fatalf("empty enumeration: len=%d attrs=%v", r.Len(), r.Attrs)
	}
	if n, err := Enumerate(nil, g, nil, red, tree); err != nil || n.Len() != 0 {
		t.Fatalf("empty count: %v, err %v", n, err)
	}
}

// TestGroupFoldEquivalence: a presentation's cell is a row's adjacency
// filtered by the reduced sets (Path), computed on read; the format
// transformation defines it as the fold of m(Q). Both must agree: the
// map oracle's grouping of Enumerate's relation, in either direction
// of a one-hop tree over relations spanning many morsels, is every
// row's Refs and Counts, and its keys are the primary's reduced set.
func TestGroupFoldEquivalence(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(18)))
	for _, tc := range []struct{ from, to, edge, fromCond string }{
		{"A", "B", "A-B", "id % 3 = 1"},
		{"B", "A", "A-B_rev", "id % 2 = 0"},
	} {
		tree := []TreeEdge{{}, edgeTo(g, 0, tc.edge)}
		red, err := Reduce(nil, []NodeSet{selected(t, g, tc.from, tc.fromCond), selected(t, g, tc.to, "")}, tree)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Enumerate(nil, g, attrsOf(g, tc.from, tc.to), red, tree)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() <= MorselRows {
			t.Fatalf("%s: %d tuples, too few to span morsels", tc.edge, rel.Len())
		}
		want, err := GroupNeighborsOracle(rel, tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		path := NewPath(red[1:], []tgm.Adjacency{tree[1].Down}, []tgm.Adjacency{tree[1].Up})
		if err := path.Ensure(); err != nil {
			t.Fatal(err)
		}
		counts, err := path.Counts(red[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != red[0].Len() {
			t.Fatalf("%s: m(Q) groups %d rows, the reduced set holds %d", tc.edge, len(want), red[0].Len())
		}
		sc := GetScratch()
		for i, r := range red[0].IDs() {
			sc.IDs = path.Refs(sc.IDs[:0], r, sc)
			if !slices.Equal(sc.IDs, want[r]) || int(counts[i]) != len(want[r]) {
				t.Fatalf("%s: row %d = %v (count %d), fold of m(Q) %v", tc.edge, r, sc.IDs, counts[i], want[r])
			}
		}
		PutScratch(sc)
	}
}

// TestJoinParEquivalence pins Enumerate's row order over relations
// spanning many morsels, in both edge directions: the root's members
// ascending, each one's neighbors in adjacency order — the order a
// left-deep chain of binary joins produces, read here straight off the
// adjacency lists.
func TestJoinParEquivalence(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(2)))
	for _, tc := range []struct{ from, to, edge string }{{"A", "B", "A-B"}, {"B", "A", "A-B_rev"}} {
		got, err := pairs(g, tc.from, tc.to, tc.edge)
		if err != nil {
			t.Fatal(err)
		}
		var froms, tos []tgm.NodeID
		for _, x := range g.NodesOfType(tc.from) {
			for _, y := range g.Neighbors(x, tc.edge) {
				froms, tos = append(froms, x), append(tos, y)
			}
		}
		if !slices.Equal(got.ColumnNamed(tc.from), froms) || !slices.Equal(got.ColumnNamed(tc.to), tos) {
			t.Fatalf("%s: %d rows not in adjacency order (want %d)", tc.edge, got.Len(), len(froms))
		}
	}
}

// TestJoinScanEquivalenceRandomized asserts Enumerate ≡ a JoinScan chain
// (as tuple sets) on randomized graphs under randomized selections, on
// a two-node and a three-node path and on a tree whose root has two
// children, from the selected sets and from their full reduction alike.
func TestJoinScanEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng)
		condA := fmt.Sprintf("id %% %d = %d", 2+rng.Intn(3), rng.Intn(2))
		condC := fmt.Sprintf("id %% %d <> %d", 2+rng.Intn(3), rng.Intn(2))
		as, _ := base(g, "A", "A")
		as, err := selectCond(as, "A", expr.MustParse(condA))
		if err != nil {
			t.Fatal(err)
		}
		bs, _ := base(g, "B", "B")
		cs, _ := base(g, "C", "C")
		cs, err = selectCond(cs, "C", expr.MustParse(condC))
		if err != nil {
			t.Fatal(err)
		}
		ab, err := JoinScan(as, bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		abc, err := JoinScan(ab, cs, "B-C", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		// B at the root with children A and C.
		ba, err := JoinScan(bs, as, "A-B_rev", "B", "A")
		if err != nil {
			t.Fatal(err)
		}
		bac, err := JoinScan(ba, cs, "B-C", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		setA, setB, setC := selected(t, g, "A", condA), selected(t, g, "B", ""), selected(t, g, "C", condC)
		for _, tc := range []struct {
			label string
			types []string
			sets  []NodeSet
			tree  []TreeEdge
			want  *Relation
		}{
			{"A*B", []string{"A", "B"}, []NodeSet{setA, setB}, []TreeEdge{{}, edgeTo(g, 0, "A-B")}, ab},
			{"A*B*C", []string{"A", "B", "C"}, []NodeSet{setA, setB, setC},
				[]TreeEdge{{}, edgeTo(g, 0, "A-B"), edgeTo(g, 1, "B-C")}, abc},
			{"B*(A,C)", []string{"B", "A", "C"}, []NodeSet{setB, setA, setC},
				[]TreeEdge{{}, edgeTo(g, 0, "A-B_rev"), edgeTo(g, 0, "B-C")}, bac},
		} {
			red, err := Reduce(nil, tc.sets, tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			for name, sets := range map[string][]NodeSet{"selected": tc.sets, "reduced": red} {
				got, err := Enumerate(nil, g, attrsOf(g, tc.types...), sets, tc.tree)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTuples(t, trial, tc.label+" "+name, got, tc.want)
				if n, err := Enumerate(nil, g, nil, sets, tc.tree); err != nil || n.Len() != got.Len() {
					t.Fatalf("trial %d %s %s: counted %v (err %v), enumerated %d", trial, tc.label, name, n, err, got.Len())
				}
			}
		}
	}
}
