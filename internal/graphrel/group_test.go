package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	joined, err := pairs(g, "A", "B", "A-B")
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
	empty := &tuples{g: g, Attrs: joined.Attrs, cols: make([][]tgm.NodeID, len(joined.Attrs))}
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
	joined, err := pairs(g, "A", "B", "A-B")
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

// TestSetSeekAndRank: from every position of sets with empty words, a
// full word and a span starting at a non-zero ID, Seek then Next walks
// the members ascending, and Rank inverts it.
func TestSetSeekAndRank(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 50; trial++ {
		lo := tgm.NodeID(rng.Intn(200))
		var ids []tgm.NodeID
		for id := lo; id < lo+tgm.NodeID(1+rng.Intn(400)); id++ {
			if d := id - lo; (d >= 64 && d < 128) || (d >= 256 && d < 320 && trial%2 == 0) || rng.Intn(3) == 0 {
				ids = append(ids, id)
			}
		}
		s := SetOf(ids)
		ranks := s.Ranks()
		for i := range ids {
			m := s.Seek(ranks, i)
			for k := i; k < len(ids); k++ {
				if got := m.Next(); got != ids[k] {
					t.Fatalf("trial %d: Seek(%d) then %d Next = %d, want %d", trial, i, k-i+1, got, ids[k])
				}
			}
			if r := s.Rank(ranks, ids[i]); r != i {
				t.Fatalf("trial %d: Rank(%d) = %d, want %d", trial, ids[i], r, i)
			}
		}
	}
}

// TestPathRefs holds Path.Refs to a map oracle — walk every hop's
// adjacency, keep the set members, sort and deduplicate — for every row
// of a random subset of the primary type in random two-hop graphs whose
// edges are added in random order (so adjacency segments are not
// ascending) and whose second hop reaches a node through several
// intermediate ones. Cells run from empty to hundreds of IDs, so both
// orderings (sort and bitset) and the ascending shortcut are read, and
// one Scratch is reused across every row. The first A node links to
// most Bs, so one-hop cells of 16 and more references out of adjacency
// order are read, and the test fails if none was. Counts must equal the
// cells' lengths, from either side of the first hop.
func TestPathRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	longUnsorted := 0
	for trial := 0; trial < 20; trial++ {
		s := tgm.NewSchemaGraph()
		for _, name := range []string{"F", "A", "B", "C"} {
			if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
				Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, et := range []tgm.EdgeType{{Name: "A→B", Source: "A", Target: "B"}, {Name: "B→C", Source: "B", Target: "C"}} {
			et.Kind = tgm.EdgeManyToMany
			if _, err := s.AddBidirectional(et); err != nil {
				t.Fatal(err)
			}
		}
		g := tgm.NewInstanceGraph(s)
		ids := map[string][]tgm.NodeID{}
		for _, run := range []struct {
			name string
			n    int
		}{{"F", 1 + rng.Intn(5)}, {"A", 5 + rng.Intn(20)}, {"B", 10 + rng.Intn(60)}, {"C", 50 + rng.Intn(3000)}} {
			for i := 0; i < run.n; i++ {
				id, err := g.AddNode(run.name, []value.V{value.Int(int64(i))})
				if err != nil {
					t.Fatal(err)
				}
				ids[run.name] = append(ids[run.name], id)
			}
		}
		type edge struct {
			et       string
			from, to tgm.NodeID
		}
		var edges []edge
		for ai, a := range ids["A"] {
			for _, b := range ids["B"] {
				if k := rng.Intn(4); k == 0 || (ai == 0 && k != 3) {
					edges = append(edges, edge{"A→B", a, b})
				}
			}
		}
		for _, b := range ids["B"] {
			for k := rng.Intn(40); k > 0; k-- {
				edges = append(edges, edge{"B→C", b, ids["C"][rng.Intn(len(ids["C"]))]})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			if err := g.AddEdge(e.et, e.from, e.to); err != nil {
				t.Fatal(err)
			}
		}
		g.Freeze()
		subset := func(all []tgm.NodeID) NodeSet {
			var keep []tgm.NodeID
			for _, id := range all {
				if rng.Intn(5) != 0 {
					keep = append(keep, id)
				}
			}
			return SetOf(keep)
		}
		rows, setB, setC := subset(ids["A"]), subset(ids["B"]), subset(ids["C"])
		narrow := SetOf(setB.IDs()[:1+rng.Intn(2)])
		ab, ba, bc, cb := g.Adjacency("A→B"), g.Adjacency("A→B_rev"), g.Adjacency("B→C"), g.Adjacency("B→C_rev")
		sc := GetScratch()
		for _, path := range []struct {
			name string
			p    Path
		}{
			{"depth1", NewPath([]NodeSet{setB}, []tgm.Adjacency{ab}, []tgm.Adjacency{ba})},
			{"depth1-narrow", NewPath([]NodeSet{narrow}, []tgm.Adjacency{ab}, []tgm.Adjacency{ba})},
			{"depth2", NewPath([]NodeSet{setB, setC}, []tgm.Adjacency{ab, bc}, []tgm.Adjacency{ba, cb})},
		} {
			if err := path.p.Ensure(); err != nil {
				t.Fatal(err)
			}
			counts, err := path.p.Counts(rows)
			if err != nil {
				t.Fatal(err)
			}
			for ai, a := range rows.IDs() {
				var want []tgm.NodeID
				for _, b := range ab.Neighbors(a) {
					if !path.p.sets[0].Has(b) {
						continue
					}
					if path.name != "depth2" {
						want = append(want, b)
						continue
					}
					for _, c := range bc.Neighbors(b) {
						if setC.Has(c) {
							want = append(want, c)
						}
					}
				}
				if path.name != "depth2" && len(want) >= 16 && !slices.IsSorted(want) {
					longUnsorted++
				}
				slices.Sort(want)
				want = slices.Compact(want)
				sc.IDs = path.p.Refs(append(sc.IDs[:0], -7), a, sc)
				if got := sc.IDs[1:]; sc.IDs[0] != -7 || !slices.Equal(got, want) {
					t.Fatalf("trial %d %s: row %d = %v, want %v", trial, path.name, a, got, want)
				}
				if int(counts[ai]) != len(want) {
					t.Fatalf("trial %d %s: row %d counts %d, want %d", trial, path.name, a, counts[ai], len(want))
				}
			}
		}
		PutScratch(sc)
	}
	if longUnsorted == 0 {
		t.Fatal("no one-hop cell of 16 or more references was out of adjacency order")
	}
}
