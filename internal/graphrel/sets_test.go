package graphrel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tgm"
)

// TestBitset pins the dense-ID set node sets are built on instead of a
// hash set: NewBitset sizes whole words and a set over a span starting
// at a non-zero ID holds exactly its members, across word boundaries.
func TestBitset(t *testing.T) {
	if len(NewBitset(130)) != 3 || NewBitset(0) != nil || NewBitset(-3) != nil {
		t.Error("NewBitset: 130 bits take 3 words, an empty bitset is nil")
	}
	ids := []tgm.NodeID{7, 8, 70, 71, 136}
	s := SetOf(ids)
	if s.Len() != len(ids) || !slices.Equal(s.IDs(), ids) {
		t.Fatalf("SetOf(%v) holds %v", ids, s.IDs())
	}
	for id := tgm.NodeID(0); id < 200; id++ {
		if s.Has(id) != slices.Contains(ids, id) {
			t.Errorf("Has(%d) = %v", id, s.Has(id))
		}
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
		g := idGraph(t, []string{"F", "A", "B", "C"},
			tgm.EdgeType{Name: "A→B", Source: "A", Target: "B", Kind: tgm.EdgeManyToMany},
			tgm.EdgeType{Name: "B→C", Source: "B", Target: "C", Kind: tgm.EdgeManyToMany})
		ids := map[string][]tgm.NodeID{}
		for _, run := range []struct {
			name string
			n    int
		}{{"F", 1 + rng.Intn(5)}, {"A", 5 + rng.Intn(20)}, {"B", 10 + rng.Intn(60)}, {"C", 50 + rng.Intn(3000)}} {
			ids[run.name] = addIDs(t, g, run.name, run.n)
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
