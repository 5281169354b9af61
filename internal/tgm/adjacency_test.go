package tgm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/value"
)

// adjacencyGraph builds papers (IDs 0..nPapers-1) and authors after
// them, with no edges yet.
func adjacencyGraph(t *testing.T, nPapers, nAuthors int) *InstanceGraph {
	t.Helper()
	g := NewInstanceGraph(paperSchema(t))
	for i := 0; i < nPapers; i++ {
		if _, err := g.AddNode("Papers", []value.V{value.Int(int64(i)), value.Str("p"), value.Int(2000)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nAuthors; i++ {
		if _, err := g.AddNode("Authors", []value.V{value.Int(int64(i)), value.Str("a")}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestAdjacencyHandleMatchesNeighbors checks the handle against the
// name-keyed accessors on every representation: AddEdge maps, CSR over
// one contiguous source run (the O(1) index), CSR with gaps (binary
// search), deferred CSR, and an edge type with no edges at all —
// including IDs outside the source run on either side.
func TestAdjacencyHandleMatchesNeighbors(t *testing.T) {
	const edge = "Papers→Authors"
	authors := func(ids ...NodeID) []NodeID { return ids } // author IDs start at 4
	forms := map[string]func(g *InstanceGraph){
		"map": func(g *InstanceGraph) {
			for _, e := range [][2]NodeID{{0, 4}, {0, 5}, {2, 6}, {3, 4}} {
				if err := g.AddEdge(edge, e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		},
		"csr dense": func(g *InstanceGraph) {
			if err := g.InstallAdjacency(edge, []NodeID{0, 1, 2, 3}, []int32{0, 2, 2, 3, 4}, authors(4, 5, 6, 4)); err != nil {
				t.Fatal(err)
			}
		},
		"csr dense, offset run": func(g *InstanceGraph) {
			if err := g.InstallAdjacency(edge, []NodeID{1, 2}, []int32{0, 1, 3}, authors(6, 4, 5)); err != nil {
				t.Fatal(err)
			}
		},
		"csr sparse": func(g *InstanceGraph) {
			if err := g.InstallAdjacency(edge, []NodeID{0, 2, 3}, []int32{0, 2, 3, 4}, authors(4, 5, 6, 4)); err != nil {
				t.Fatal(err)
			}
		},
		"csr deferred": func(g *InstanceGraph) {
			if err := g.InstallAdjacencyDeferred(edge, 4, func() ([]NodeID, []int32, []NodeID, error) {
				return []NodeID{0, 1, 2, 3}, []int32{0, 2, 2, 3, 4}, authors(4, 5, 6, 4), nil
			}); err != nil {
				t.Fatal(err)
			}
		},
		"no edges": func(*InstanceGraph) {},
	}
	for name, install := range forms {
		t.Run(name, func(t *testing.T) {
			g := adjacencyGraph(t, 4, 3)
			install(g)
			g.Freeze()
			a := g.Adjacency(edge)
			if err := a.Ensure(); err != nil {
				t.Fatal(err)
			}
			for id := NodeID(-1); id <= 8; id++ {
				want := g.Neighbors(id, edge)
				got := a.Neighbors(id)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("Neighbors(%d) = %v, want %v", id, got, want)
				}
				if a.Degree(id) != len(want) {
					t.Errorf("Degree(%d) = %d, want %d", id, a.Degree(id), len(want))
				}
			}
		})
	}
	// An edge type the schema does not know resolves to an empty handle.
	g := adjacencyGraph(t, 1, 1)
	if a := g.Adjacency("nope"); a.Ensure() != nil || a.Degree(0) != 0 {
		t.Error("unknown edge type: want an empty, loadable handle")
	}
}

// TestAdjacencyEnsureReportsLoadFailure is the bugfix's unit half: the
// name-keyed accessors keep reading a failed deferred load as "no
// edges", but the handle's Ensure returns the loader's error — every
// time, from the cached result, without re-running the loader.
func TestAdjacencyEnsureReportsLoadFailure(t *testing.T) {
	const edge = "Papers→Authors"
	boom := errors.New("section unreadable")
	g := adjacencyGraph(t, 2, 2)
	loads := 0
	if err := g.InstallAdjacencyDeferred(edge, 3, func() ([]NodeID, []int32, []NodeID, error) {
		loads++
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	a := g.Adjacency(edge)
	if loads != 0 {
		t.Fatal("resolving the handle ran the loader")
	}
	for i := 0; i < 2; i++ {
		if err := a.Ensure(); !errors.Is(err, boom) {
			t.Fatalf("Ensure = %v, want the loader's error", err)
		}
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if n := g.Neighbors(0, edge); n != nil {
		t.Fatalf("Neighbors after a failed load = %v, want none", n)
	}
	// A load that contradicts the directory's edge count fails the same way.
	g2 := adjacencyGraph(t, 2, 2)
	if err := g2.InstallAdjacencyDeferred(edge, 3, func() ([]NodeID, []int32, []NodeID, error) {
		return []NodeID{0}, []int32{0, 1}, []NodeID{2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := g2.Adjacency(edge).Ensure(); err == nil {
		t.Fatal("Ensure accepted a load with the wrong edge count")
	}
}
