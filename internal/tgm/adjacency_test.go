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

// TestAdjacencyHandleMatchesNeighbors checks the handle and the
// name-keyed accessors (Neighbors, Degree, HasEdge) against the edges
// each form was built from, on every representation: AddEdge maps, CSR
// over one gap-free source run (the installed offsets serve as they
// are), CSR with gaps (a dense offset table over the run), both of them
// deferred, and an edge type with no edges at all — probing IDs below
// the source run, inside its gaps, and above it.
func TestAdjacencyHandleMatchesNeighbors(t *testing.T) {
	const edge = "Papers→Authors"
	const nPapers, nAuthors = 8, 3 // papers 0–7, authors 8–10
	type csr struct {
		srcs    []NodeID
		offs    []int32
		targets []NodeID
	}
	eager := func(c csr) func(*testing.T, *InstanceGraph) {
		return func(t *testing.T, g *InstanceGraph) {
			if err := g.InstallAdjacency(edge, c.srcs, c.offs, c.targets); err != nil {
				t.Fatal(err)
			}
		}
	}
	deferred := func(c csr) func(*testing.T, *InstanceGraph) {
		return func(t *testing.T, g *InstanceGraph) {
			if err := g.InstallAdjacencyDeferred(edge, len(c.targets), func() ([]NodeID, []int32, []NodeID, error) {
				return c.srcs, c.offs, c.targets, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dense := csr{[]NodeID{0, 1, 2, 3, 4, 5, 6, 7}, []int32{0, 2, 2, 3, 4, 4, 4, 4, 4}, []NodeID{8, 9, 10, 8}}
	offsetRun := csr{[]NodeID{1, 2}, []int32{0, 1, 3}, []NodeID{10, 8, 9}}
	sparse := csr{[]NodeID{0, 2, 3}, []int32{0, 2, 3, 4}, []NodeID{8, 9, 10, 8}}
	wideGaps := csr{[]NodeID{1, 4, 7}, []int32{0, 1, 3, 4}, []NodeID{9, 8, 10, 9}}
	forms := []struct {
		name    string
		install func(*testing.T, *InstanceGraph)
		want    map[NodeID][]NodeID
	}{
		{"map", func(t *testing.T, g *InstanceGraph) {
			for _, e := range [][2]NodeID{{0, 8}, {0, 9}, {2, 10}, {3, 8}} {
				if err := g.AddEdge(edge, e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}, map[NodeID][]NodeID{0: {8, 9}, 2: {10}, 3: {8}}},
		{"csr dense", eager(dense), map[NodeID][]NodeID{0: {8, 9}, 2: {10}, 3: {8}}},
		{"csr dense, offset run", eager(offsetRun), map[NodeID][]NodeID{1: {10}, 2: {8, 9}}},
		{"csr sparse", eager(sparse), map[NodeID][]NodeID{0: {8, 9}, 2: {10}, 3: {8}}},
		{"csr sparse, wide gaps", eager(wideGaps), map[NodeID][]NodeID{1: {9}, 4: {8, 10}, 7: {9}}},
		{"csr deferred", deferred(dense), map[NodeID][]NodeID{0: {8, 9}, 2: {10}, 3: {8}}},
		{"csr deferred, sparse", deferred(wideGaps), map[NodeID][]NodeID{1: {9}, 4: {8, 10}, 7: {9}}},
		{"no edges", func(*testing.T, *InstanceGraph) {}, nil},
	}
	for _, form := range forms {
		t.Run(form.name, func(t *testing.T) {
			g := adjacencyGraph(t, nPapers, nAuthors)
			form.install(t, g)
			g.Freeze()
			a := g.Adjacency(edge)
			if err := a.Ensure(); err != nil {
				t.Fatal(err)
			}
			for id := NodeID(-2); id <= nPapers+nAuthors+2; id++ {
				want := form.want[id]
				for how, got := range map[string][]NodeID{"handle": a.Neighbors(id), "Neighbors": g.Neighbors(id, edge)} {
					if !reflect.DeepEqual(got, want) { // no out-edges reads as nil on every form
						t.Errorf("%s(%d) = %#v, want %#v", how, id, got, want)
					}
				}
				if a.Degree(id) != len(want) || g.Degree(id, edge) != len(want) {
					t.Errorf("Degree(%d) = %d (handle) / %d (graph), want %d", id, a.Degree(id), g.Degree(id, edge), len(want))
				}
				for dst := NodeID(nPapers); dst < nPapers+nAuthors; dst++ {
					wantEdge := false
					for _, w := range want {
						wantEdge = wantEdge || w == dst
					}
					if g.HasEdge(edge, id, dst) != wantEdge {
						t.Errorf("HasEdge(%d, %d) = %v, want %v", id, dst, !wantEdge, wantEdge)
					}
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
