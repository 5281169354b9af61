package tgm

import (
	"errors"
	"fmt"
	"math/rand"
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
// name-keyed accessors (Neighbors, Degree) against the arrays each
// install was given: CSR over one gap-free source run (the installed
// offsets serve as they are), CSR with gaps (a dense offset table over
// the run), both of them deferred, and an edge type with no edges at
// all — probing IDs below the source run, inside its gaps, and above
// it. TestAddEdgeMatchesReference covers adjacency AddEdge builds.
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

// refAdjacency is AddEdge's contract kept the plain way, as a map of
// neighbor lists with a seen-set per edge type: a new edge appends to
// its source's list, a duplicate is ignored, and a new forward edge
// adds its reverse the same way.
type refAdjacency struct {
	schema *SchemaGraph
	lists  map[string]map[NodeID][]NodeID
	seen   map[string]map[[2]NodeID]bool
}

func (r *refAdjacency) add(edgeType string, src, dst NodeID) {
	if r.insert(edgeType, src, dst) {
		if rev := r.schema.EdgeType(edgeType).Reverse; rev != "" {
			r.insert(rev, dst, src)
		}
	}
}

func (r *refAdjacency) insert(edgeType string, src, dst NodeID) bool {
	if r.seen[edgeType] == nil {
		r.seen[edgeType] = map[[2]NodeID]bool{}
		r.lists[edgeType] = map[NodeID][]NodeID{}
	}
	if r.seen[edgeType][[2]NodeID{src, dst}] {
		return false
	}
	r.seen[edgeType][[2]NodeID{src, dst}] = true
	r.lists[edgeType][src] = append(r.lists[edgeType][src], dst)
	return true
}

// TestAddEdgeMatchesReference holds the packed adjacency AddEdge builds
// to refAdjacency: duplicates, a reverse twin added directly before and
// after its forward edge, AddEdge after a read of the unfrozen graph
// (which packs, so the next read re-packs), edge types whose source or
// target type has no nodes, and an edge type the schema does not know.
// Every read — both Neighbors, both Degrees, NumEdges, EdgeTypeCount —
// is compared before and after Freeze, over IDs below,
// inside and above every type's run.
func TestAddEdgeMatchesReference(t *testing.T) {
	const nPapers, nAuthors = 10, 6 // papers 0–9, authors 10–15; no conferences or keywords
	g := adjacencyGraph(t, nPapers, nAuthors)
	ref := &refAdjacency{schema: g.Schema(), lists: map[string]map[NodeID][]NodeID{}, seen: map[string]map[[2]NodeID]bool{}}
	add := func(edgeType string, src, dst NodeID) {
		t.Helper()
		if err := g.AddEdge(edgeType, src, dst); err != nil {
			t.Fatal(err)
		}
		ref.add(edgeType, src, dst)
	}
	edgeTypes := []string{"nope"}
	for _, et := range g.Schema().EdgeTypes() {
		edgeTypes = append(edgeTypes, et.Name)
	}
	check := func(when string) {
		t.Helper()
		total := 0
		for _, et := range edgeTypes {
			a := g.Adjacency(et)
			if err := a.Ensure(); err != nil {
				t.Fatalf("%s: Ensure(%q) = %v", when, et, err)
			}
			count := 0
			for id := NodeID(-2); id < nPapers+nAuthors+2; id++ {
				want := ref.lists[et][id]
				count += len(want)
				for how, got := range map[string][]NodeID{"handle": a.Neighbors(id), "Neighbors": g.Neighbors(id, et)} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s(%d, %q) = %v, want %v", when, how, id, et, got, want)
					}
				}
				if a.Degree(id) != len(want) || g.Degree(id, et) != len(want) {
					t.Errorf("%s: Degree(%d, %q) = %d (handle) / %d (graph), want %d", when, id, et, a.Degree(id), g.Degree(id, et), len(want))
				}
			}
			total += count
			if got := g.EdgeTypeCount(et); got != count {
				t.Errorf("%s: EdgeTypeCount(%q) = %d, want %d", when, et, got, count)
			}
		}
		if g.NumEdges() != total || g.ComputeStats().Edges != total {
			t.Errorf("%s: NumEdges = %d, ComputeStats().Edges = %d, want %d", when, g.NumEdges(), g.ComputeStats().Edges, total)
		}
	}
	const fwd, rev, cite = "Papers→Authors", "Papers→Authors_rev", "Papers→Papers"
	check("empty")
	add(rev, 10, 1) // the reverse twin first: Papers→Authors gains 1→10
	add(fwd, 1, 10) // ... so its forward edge is a duplicate
	add(fwd, 2, 11)
	add(rev, 11, 2) // the forward edge first: the twin is a duplicate
	add(fwd, 2, 12)
	add(fwd, 2, 11)
	add(cite, 3, 3)
	add(cite, 3, 3)
	add(cite, 4, 3) // a self-pair type has no reverse
	check("scenarios")
	add(fwd, 0, 15) // after a read: the next read re-packs
	add(rev, 11, 0)
	check("after a read")
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			p, a := NodeID(rng.Intn(nPapers)), NodeID(nPapers+rng.Intn(nAuthors))
			switch rng.Intn(3) {
			case 0:
				add(fwd, p, a)
			case 1:
				add(rev, a, p)
			default:
				add(cite, p, NodeID(rng.Intn(nPapers)))
			}
		}
		check(fmt.Sprintf("random round %d", round))
	}
	g.Freeze()
	check("frozen")
	if err := g.AddEdge(fwd, 0, 10); err == nil {
		t.Error("AddEdge accepted on a frozen graph")
	}
	// An edge type has one adjacency: no install over AddEdge's edges.
	g2 := adjacencyGraph(t, 2, 2)
	if err := g2.AddEdge(fwd, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g2.InstallAdjacency(rev, []NodeID{2}, []int32{0, 1}, []NodeID{0}); err == nil {
		t.Error("InstallAdjacency over AddEdge's reverse edges accepted")
	}
}

// TestAddEdgeRefusesInstalledAdjacency: an edge type installed
// wholesale — eagerly or deferred, forward or through its reverse — has
// no build log, so AddEdge over it fails before anything changes: the
// installed edges and the reverse type stay as they were, also after a
// read and after Freeze.
func TestAddEdgeRefusesInstalledAdjacency(t *testing.T) {
	const fwd, rev = "Papers→Authors", "Papers→Authors_rev"
	for _, tc := range []struct {
		name    string
		install func(g *InstanceGraph) error
	}{
		{"eager forward", func(g *InstanceGraph) error {
			return g.InstallAdjacency(fwd, []NodeID{0}, []int32{0, 1}, []NodeID{2})
		}},
		{"deferred forward", func(g *InstanceGraph) error {
			return g.InstallAdjacencyDeferred(fwd, 1, func() ([]NodeID, []int32, []NodeID, error) {
				return []NodeID{0}, []int32{0, 1}, []NodeID{2}, nil
			})
		}},
		{"eager reverse", func(g *InstanceGraph) error {
			return g.InstallAdjacency(rev, []NodeID{2}, []int32{0, 1}, []NodeID{0})
		}},
	} {
		g := adjacencyGraph(t, 2, 2)
		if err := tc.install(g); err != nil {
			t.Fatal(err)
		}
		before := func() [4][]NodeID {
			return [4][]NodeID{g.Neighbors(0, fwd), g.Neighbors(1, fwd), g.Neighbors(2, rev), g.Neighbors(3, rev)}
		}
		want := before()
		if err := g.AddEdge(fwd, 1, 3); err == nil {
			t.Errorf("%s: AddEdge over installed adjacency accepted", tc.name)
		}
		if got := before(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: refused AddEdge changed the graph: %v, was %v", tc.name, got, want)
		}
		g.Freeze()
		if got := before(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frozen graph: %v, was %v", tc.name, got, want)
		}
	}
}

// TestInverseTransposes checks Inverse against the forward lists: a
// type with a registered reverse resolves to it, and a one-way
// self-loop (citations) to its transpose — each cited paper's citing
// papers ascending, none for a paper nobody cites — built at the
// handle's first Ensure, once on a frozen graph, and failing with the
// forward type's deferred-load error.
func TestInverseTransposes(t *testing.T) {
	const cites = "Papers→Papers"
	const nPapers = 40
	g := adjacencyGraph(t, nPapers, 3)
	rng := rand.New(rand.NewSource(3))
	want := map[NodeID][]NodeID{}
	for x := NodeID(0); x < nPapers; x++ {
		for _, y := range rng.Perm(nPapers)[:rng.Intn(4)] {
			if y < nPapers/2 && NodeID(y) != x { // papers past the middle are never cited
				if err := g.AddEdge(cites, x, NodeID(y)); err != nil {
					t.Fatal(err)
				}
				want[NodeID(y)] = append(want[NodeID(y)], x)
			}
		}
	}
	if err := g.AddEdge("Papers→Authors", 5, nPapers+1); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	inv := g.Inverse(cites)
	if err := inv.Ensure(); err != nil {
		t.Fatal(err)
	}
	for y := NodeID(0); y < nPapers+3; y++ {
		if got := inv.Neighbors(y); !reflect.DeepEqual(got, want[y]) {
			t.Fatalf("papers citing %d = %v, want %v", y, got, want[y])
		}
	}
	if g.Inverse(cites).csr != inv.csr {
		t.Error("a frozen graph's transpose was built twice")
	}
	if got := g.Inverse("Papers→Authors").Neighbors(nPapers + 1); !reflect.DeepEqual(got, []NodeID{5}) {
		t.Errorf("Inverse of a type with a reverse = %v, want its reverse's [5]", got)
	}

	boom := errors.New("section unreadable")
	g2 := adjacencyGraph(t, 2, 0)
	if err := g2.InstallAdjacencyDeferred(cites, 1, func() ([]NodeID, []int32, []NodeID, error) {
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	g2.Freeze()
	if err := g2.Inverse(cites).Ensure(); !errors.Is(err, boom) {
		t.Fatalf("Inverse over a failed load: Ensure = %v, want the loader's error", err)
	}
}
