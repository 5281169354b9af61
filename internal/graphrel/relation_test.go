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
)

// relationOf holds sets as a Relation, node i keyed keys[i].
func relationOf(t testing.TB, keys []string, sets []NodeSet, tree []TreeEdge) *Relation {
	t.Helper()
	r, err := NewRelation(keys, sets, tree)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertReduced asserts rel is the match want holds as tuples: every
// node's set is the distinct nodes of want's column of the same name,
// and Len counts want's tuples.
func assertReduced(t *testing.T, label string, rel *Relation, want *tuples) {
	t.Helper()
	for i, k := range rel.keys {
		proj := slices.Clone(want.ColumnNamed(k))
		slices.Sort(proj)
		if got, w := rel.sets[i].IDs(), slices.Compact(proj); !slices.Equal(got, w) {
			t.Fatalf("%s: set %q = %d nodes, the join projects %d", label, k, len(got), len(w))
		}
	}
	if rel.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, the join holds %d tuples", label, rel.Len(), want.Len())
	}
}

// TestReduceCancellation: Reduce checks its context before each
// bottom-up semi-join, so a context canceled before the reduction or
// during it fails it with ctx.Err() and no sets.
func TestReduceCancellation(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(15)))
	sets := []NodeSet{selected(t, g, "A", ""), selected(t, g, "B", ""), selected(t, g, "A", "")}
	tree := []TreeEdge{{}, edgeTo(g, 0, "A-B"), edgeTo(g, 1, "A-B_rev")}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"before": canceled,
		"during": &doneAfter{Context: context.Background(), live: 1},
	} {
		if red, err := Reduce(ctx, sets, tree); !errors.Is(err, context.Canceled) || red != nil {
			t.Errorf("canceled %s the reduction: sets %v, err %v; want context.Canceled", name, red, err)
		}
	}
}

// TestJoinOverUnreadableAdjacency: a deferred adjacency whose load
// fails must not walk as "no neighbors" — an empty set that would then
// be taken for the match. Reduce and a Path over the failed direction
// return the loader's error, while Len walks the healthy reverse
// direction of the same edge.
func TestJoinOverUnreadableAdjacency(t *testing.T) {
	g := idGraph(t, []string{"A", "B"}, tgm.EdgeType{Name: "A-B", Source: "A", Target: "B"})
	addIDs(t, g, "A", 1) // A: 0; B: 1, 2
	addIDs(t, g, "B", 2)
	boom := errors.New("adjacency section unreadable")
	if err := g.InstallAdjacencyDeferred("A-B", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallAdjacencyDeferred("A-B_rev", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return []tgm.NodeID{1, 2}, []int32{0, 1, 2}, []tgm.NodeID{0, 0}, nil
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	as, bs := selected(t, g, "A", ""), selected(t, g, "B", "")
	// The one A member is the smaller side: the semi-join walks A-B.
	if red, err := Reduce(nil, []NodeSet{as, bs}, []TreeEdge{{}, edgeTo(g, 0, "A-B")}); !errors.Is(err, boom) {
		t.Errorf("Reduce over the failed load: sets %v, err %v; want the loader's error", red, err)
	}
	path := NewPath([]NodeSet{bs}, []tgm.Adjacency{g.Adjacency("A-B")}, []tgm.Adjacency{g.Inverse("A-B")})
	if err := path.Ensure(); !errors.Is(err, boom) {
		t.Errorf("Path.Ensure over the failed load: %v; want the loader's error", err)
	}
	rev := []TreeEdge{{}, edgeTo(g, 0, "A-B_rev")}
	if err := rev[1].Down.Ensure(); err != nil {
		t.Fatal(err)
	}
	if n := relationOf(t, []string{"B", "A"}, []NodeSet{bs, as}, rev).Len(); n != 2 {
		t.Fatalf("Len over the healthy reverse = %d, want 2", n)
	}
}

// TestRelationEmpty: a reduction that empties its sets is a relation
// of no tuples that still holds a set, empty, for every node.
func TestRelationEmpty(t *testing.T) {
	g := bigChainGraph(t, rand.New(rand.NewSource(17)))
	tree := []TreeEdge{{}, edgeTo(g, 0, "A-B")}
	red, err := Reduce(nil, []NodeSet{selected(t, g, "A", "id < 0"), selected(t, g, "B", "")}, tree)
	if err != nil {
		t.Fatal(err)
	}
	r := relationOf(t, []string{"A", "B"}, red, tree)
	if r.Len() != 0 || r.SizeBytes() != 0 {
		t.Fatalf("empty reduction: Len %d, %d bytes", r.Len(), r.SizeBytes())
	}
	for _, k := range []string{"A", "B"} {
		if s, ok := r.Set(k); !ok || s.Len() != 0 {
			t.Errorf("set %q: %d members, found %v", k, s.Len(), ok)
		}
	}
	if _, ok := r.Set("C"); ok {
		t.Error("a set for a key the relation does not hold")
	}
}

// TestGroupFoldEquivalence: a presentation's cell is a row's adjacency
// filtered by the reduced sets (Path), computed on read; the format
// transformation defines it as the fold of m(Q). Both must agree: the
// map oracle's grouping of m(Q) as tuples, in either direction
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
		rel, err := enumerate(g, attrsOf(g, tc.from, tc.to), red, tree)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() <= MorselRows {
			t.Fatalf("%s: %d tuples, too few to span morsels", tc.edge, rel.Len())
		}
		assertReduced(t, tc.edge, relationOf(t, []string{tc.from, tc.to}, red, tree), rel)
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

// TestJoinScanEquivalenceRandomized asserts Reduce and Relation.Len
// against a JoinScan chain on randomized graphs under randomized
// selections, on a two-node and a three-node path and on a tree whose
// root has two children: the reduced sets are the chain's projections,
// Len counts its tuples from the selected sets and from their full
// reduction alike, and the join walked through either as tuples is the
// chain's tuple set.
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
			want  *tuples
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
				got, err := enumerate(g, attrsOf(g, tc.types...), sets, tc.tree)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTuples(t, trial, tc.label+" "+name, got, tc.want)
				if n := relationOf(t, tc.types, sets, tc.tree).Len(); n != got.Len() {
					t.Fatalf("trial %d %s %s: Len %d, the join holds %d", trial, tc.label, name, n, got.Len())
				}
			}
			assertReduced(t, fmt.Sprintf("trial %d %s", trial, tc.label), relationOf(t, tc.types, red, tc.tree), tc.want)
		}
	}
}
