package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

// TestGroupNeighborsEquivalence asserts the CSR grouping kernel agrees
// with the map oracle group for group: on a joined relation spanning
// many morsels (in both row orders, with heavy duplication once the
// pair is projected from a wider join), and on the scattered-ID graph
// whose ID runs start at distinct non-zero IDs.
func TestGroupNeighborsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := bigChainGraph(t, rng)
	a, err := Base(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Base(g, "B")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Join(a, b, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() <= MorselRows {
		t.Fatalf("joined relation too small to span morsels: %d rows", joined.Len())
	}
	groupBoth(t, "A→B", joined, "A", "B")
	groupBoth(t, "B→A", joined, "B", "A")
	groupBoth(t, "A→A", joined, "A", "A")

	for trial := 0; trial < 20; trial++ {
		sg := scatteredGraph(t, rng)
		rel := scatteredJoin(t, sg)
		for _, pair := range [][2]string{{"X", "Y"}, {"Y", "X"}, {"X", "Y#2"}, {"Y#2", "Y"}} {
			groupBoth(t, fmt.Sprintf("scattered trial=%d %v", trial, pair), rel, pair[0], pair[1])
		}
	}

	// An empty relation groups to nothing.
	empty := newRelation(g, joined.Attrs, 0)
	if gs := groupBoth(t, "empty", empty, "A", "B"); len(gs.keys) != 0 {
		t.Fatalf("empty relation: %d keys", len(gs.keys))
	}

	// Attribute errors surface, and keys that miss a group node are a
	// reported error rather than a silently misfiled value.
	keys, _ := DistinctSorted(joined, "A")
	if _, err := GroupNeighbors(context.Background(), joined, keys, "nope", "B"); err == nil {
		t.Error("bad group attribute: want error")
	}
	if _, err := GroupNeighbors(context.Background(), joined, keys, "A", "nope"); err == nil {
		t.Error("bad value attribute: want error")
	}
	if _, err := DistinctSorted(joined, "nope"); err == nil {
		t.Error("DistinctSorted: bad attribute accepted")
	}
	for name, bad := range map[string][]tgm.NodeID{
		"none": nil, "first missing": keys[1:], "last missing": keys[:len(keys)-1],
		"inner missing": append(append([]tgm.NodeID(nil), keys[:5]...), keys[6:]...),
	} {
		if _, err := GroupNeighbors(context.Background(), joined, bad, "A", "B"); err == nil {
			t.Errorf("keys with %s: want error", name)
		}
	}
}

// TestGroupNeighborsCancellation: a canceled context stops the kernel
// before it touches the relation.
func TestGroupNeighborsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := bigChainGraph(t, rng)
	a, _ := Base(g, "A")
	b, _ := Base(g, "B")
	joined, err := Join(a, b, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := DistinctSorted(joined, "A")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GroupNeighbors(ctx, joined, keys, "A", "B"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled grouping: err = %v, want context.Canceled", err)
	}
}

// BenchmarkGroups measures the presentation's grouping kernel at the
// size of study_mix's largest pivot: 17k groups over 170k (group,
// value) edges, values few enough that every group holds many. by_value
// groups the 17k rows from the 200 values' side (the counting sort by
// row), by_row the 200 rows from their own side.
func BenchmarkGroups(b *testing.B) {
	const groups, edges, values = 17_000, 170_000, 200
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"G", "V"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.AddBidirectional(tgm.EdgeType{Name: "G→V", Source: "G", Target: "V", Kind: tgm.EdgeManyToMany}); err != nil {
		b.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	for i := 0; i < groups+values; i++ {
		typ := "G"
		if i >= groups {
			typ = "V"
		}
		if _, err := g.AddNode(typ, []value.V{value.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < edges; i++ {
		if err := g.AddEdge("G→V", tgm.NodeID(i%groups), tgm.NodeID(groups+rng.Intn(values))); err != nil {
			b.Fatal(err)
		}
	}
	g.Freeze()
	gs, vs := SetOf(g.NodesOfType("G")), SetOf(g.NodesOfType("V"))
	down, up := g.Adjacency("G→V"), g.Adjacency("G→V_rev")
	for _, arm := range []struct {
		name       string
		rows, vals NodeSet
		up, down   tgm.Adjacency
	}{{"by_value", gs, vs, up, down}, {"by_row", vs, gs, down, up}} {
		b.Run(arm.name, func(b *testing.B) {
			rows := arm.rows.IDs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GroupPath(context.Background(), rows, []NodeSet{arm.vals, arm.rows},
					[]tgm.Adjacency{arm.up}, []tgm.Adjacency{arm.down}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBitset pins the dense-ID dedup primitive node sets are built on
// instead of a hash set.
func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, id := range []tgm.NodeID{0, 1, 63, 64, 129} {
		if b.TestAndSet(id) {
			t.Errorf("fresh bit %d reported set", id)
		}
		if !b.TestAndSet(id) {
			t.Errorf("bit %d lost after set", id)
		}
	}
	// IDs beyond the allocated words degrade to "seen", never panic
	// (capacity is word-granular: 130 bits allocate 3 words = 192 bits).
	if !b.TestAndSet(192) || !b.TestAndSet(-1) {
		t.Error("out-of-range IDs must report seen")
	}
	if NewBitset(0) != nil || NewBitset(-3) != nil {
		t.Error("empty bitsets should be nil")
	}
}

// TestSortDedup pins the in-place sort+compact shared by the grouping
// kernels.
func TestSortDedup(t *testing.T) {
	got := sortDedup([]tgm.NodeID{5, 3, 5, 1, 3, 3, 9, 1})
	want := []tgm.NodeID{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := sortDedup(nil); len(out) != 0 {
		t.Errorf("nil input: got %v", out)
	}
}
