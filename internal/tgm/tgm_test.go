package tgm

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

// paperSchema builds the Figure 4 schema graph by hand: Papers, Authors,
// Conferences, Institutions, plus keyword and year attribute node types.
func paperSchema(t testing.TB) *SchemaGraph {
	t.Helper()
	g := NewSchemaGraph()
	mustNT := func(nt NodeType) {
		if _, err := g.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	mustNT(NodeType{Name: "Papers", Kind: NodeEntity, SourceTable: "Papers", Label: "title",
		Attrs: []Attr{{Name: "id", Type: value.KindInt}, {Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt}}})
	mustNT(NodeType{Name: "Authors", Kind: NodeEntity, SourceTable: "Authors", Label: "name",
		Attrs: []Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}})
	mustNT(NodeType{Name: "Conferences", Kind: NodeEntity, SourceTable: "Conferences", Label: "acronym",
		Attrs: []Attr{{Name: "id", Type: value.KindInt}, {Name: "acronym", Type: value.KindString}}})
	mustNT(NodeType{Name: "Paper_Keywords: keyword", Kind: NodeMultiValued,
		SourceTable: "Paper_Keywords", Label: "keyword",
		Attrs: []Attr{{Name: "keyword", Type: value.KindString}}})

	mustET := func(et EdgeType) {
		if _, err := g.AddBidirectional(et); err != nil {
			t.Fatal(err)
		}
	}
	mustET(EdgeType{Name: "Papers→Conferences", Source: "Papers", Target: "Conferences", Kind: EdgeOneToMany})
	mustET(EdgeType{Name: "Papers→Authors", Source: "Papers", Target: "Authors", Kind: EdgeManyToMany})
	mustET(EdgeType{Name: "Papers→keyword", Source: "Papers", Target: "Paper_Keywords: keyword", Kind: EdgeMultiValued})
	// Self-loop: paper citations.
	if _, err := g.AddEdgeType(EdgeType{Name: "Papers→Papers", Source: "Papers", Target: "Papers", Kind: EdgeManyToMany}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSchemaGraphBasics(t *testing.T) {
	g := paperSchema(t)
	if got := len(g.NodeTypes()); got != 4 {
		t.Errorf("node types = %d", got)
	}
	// 3 bidirectional pairs + 1 self-loop = 7 edge types.
	if got := len(g.EdgeTypes()); got != 7 {
		t.Errorf("edge types = %d", got)
	}
	nt := g.NodeType("Papers")
	if nt == nil || nt.Label != "title" || nt.LabelIndex() != 1 {
		t.Errorf("Papers type = %+v", nt)
	}
	if nt.AttrIndex("year") != 2 || nt.AttrIndex("nope") != -1 {
		t.Error("AttrIndex")
	}
	et := g.EdgeType("Papers→Authors")
	if et == nil || et.Reverse != "Papers→Authors_rev" {
		t.Errorf("edge = %+v", et)
	}
	rev := g.EdgeType("Papers→Authors_rev")
	if rev == nil || rev.Source != "Authors" || rev.Target != "Papers" || rev.Reverse != "Papers→Authors" {
		t.Errorf("reverse edge = %+v", rev)
	}
	outs := g.OutEdges("Papers")
	if len(outs) != 4 { // Conferences, Authors, keyword, Papers (self)
		t.Errorf("Papers out edges = %d", len(outs))
	}
	if _, ok := g.EdgeBetween("Papers", "Conferences"); !ok {
		t.Error("EdgeBetween Papers→Conferences")
	}
	if _, ok := g.EdgeBetween("Conferences", "Paper_Keywords: keyword"); ok {
		t.Error("no edge Conferences→keyword expected")
	}
}

func TestSchemaGraphValidation(t *testing.T) {
	g := NewSchemaGraph()
	if _, err := g.AddNodeType(NodeType{Name: "", Label: "x", Attrs: []Attr{{Name: "x"}}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := g.AddNodeType(NodeType{Name: "A", Label: "x"}); err == nil {
		t.Error("no attrs accepted")
	}
	if _, err := g.AddNodeType(NodeType{Name: "A", Label: "y", Attrs: []Attr{{Name: "x"}}}); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := g.AddNodeType(NodeType{Name: "A", Label: "x", Attrs: []Attr{{Name: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNodeType(NodeType{Name: "A", Label: "x", Attrs: []Attr{{Name: "x"}}}); err == nil {
		t.Error("duplicate node type accepted")
	}
	if _, err := g.AddEdgeType(EdgeType{Name: "e", Source: "A", Target: "Z"}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := g.AddEdgeType(EdgeType{Name: "e", Source: "Z", Target: "A"}); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := g.AddEdgeType(EdgeType{Name: "", Source: "A", Target: "A"}); err == nil {
		t.Error("empty edge name accepted")
	}
	if _, err := g.AddEdgeType(EdgeType{Name: "e", Source: "A", Target: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdgeType(EdgeType{Name: "e", Source: "A", Target: "A"}); err == nil {
		t.Error("duplicate edge type accepted")
	}
}

func buildInstance(t testing.TB) (*InstanceGraph, map[string]NodeID) {
	t.Helper()
	g := NewInstanceGraph(paperSchema(t))
	ids := map[string]NodeID{}
	add := func(key, typ string, attrs ...value.V) {
		id, err := g.AddNode(typ, attrs)
		if err != nil {
			t.Fatal(err)
		}
		ids[key] = id
	}
	add("p1", "Papers", value.Int(1), value.Str("Making database systems usable"), value.Int(2007))
	add("p2", "Papers", value.Int(2), value.Str("SkewTune"), value.Int(2012))
	add("p3", "Papers", value.Int(3), value.Str("DataPlay"), value.Int(2012))
	add("a1", "Authors", value.Int(1), value.Str("Jagadish"))
	add("a2", "Authors", value.Int(2), value.Str("Nandi"))
	add("sigmod", "Conferences", value.Int(1), value.Str("SIGMOD"))
	add("kw1", "Paper_Keywords: keyword", value.Str("usability"))

	edge := func(et, src, dst string) {
		if err := g.AddEdge(et, ids[src], ids[dst]); err != nil {
			t.Fatal(err)
		}
	}
	edge("Papers→Conferences", "p1", "sigmod")
	edge("Papers→Conferences", "p2", "sigmod")
	edge("Papers→Authors", "p1", "a1")
	edge("Papers→Authors", "p1", "a2")
	edge("Papers→Authors", "p3", "a2")
	edge("Papers→keyword", "p1", "kw1")
	edge("Papers→Papers", "p2", "p1") // p2 cites p1
	return g, ids
}

func TestInstanceGraphBasics(t *testing.T) {
	g, ids := buildInstance(t)
	if g.NumNodes() != 7 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	// 6 bidirectional edges → 12 directed, + 1 self-loop directed = 13.
	if g.NumEdges() != 13 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	p1 := g.Node(ids["p1"])
	if p1.Label() != "Making database systems usable" {
		t.Errorf("label = %q", p1.Label())
	}
	if p1.Attr("year").AsInt() != 2007 || !p1.Attr("nope").IsNull() {
		t.Error("Attr")
	}
	if g.Node(NodeID(99)) != nil || g.Node(NodeID(-1)) != nil {
		t.Error("out-of-range Node should be nil")
	}
	if got := len(g.NodesOfType("Papers")); got != 3 {
		t.Errorf("papers = %d", got)
	}
}

func TestNeighbors(t *testing.T) {
	g, ids := buildInstance(t)
	authors := g.Neighbors(ids["p1"], "Papers→Authors")
	if len(authors) != 2 {
		t.Fatalf("p1 authors = %d", len(authors))
	}
	// Reverse direction: papers by Nandi.
	papers := g.Neighbors(ids["a2"], "Papers→Authors_rev")
	if len(papers) != 2 {
		t.Errorf("Nandi papers = %d", len(papers))
	}
	if g.Degree(ids["sigmod"], "Papers→Conferences_rev") != 2 {
		t.Error("SIGMOD paper degree")
	}
	// Self-loop has no auto-reverse.
	if got := g.Neighbors(ids["p1"], "Papers→Papers"); len(got) != 0 {
		t.Errorf("p1 cites = %v", got)
	}
	if got := g.Neighbors(ids["p2"], "Papers→Papers"); len(got) != 1 || got[0] != ids["p1"] {
		t.Errorf("p2 cites = %v", got)
	}
	if g.Neighbors(ids["p1"], "nope") != nil {
		t.Error("unknown edge type should be nil")
	}
}

func TestEdgeValidationAndDedup(t *testing.T) {
	g, ids := buildInstance(t)
	if err := g.AddEdge("nope", ids["p1"], ids["a1"]); err == nil {
		t.Error("unknown edge type accepted")
	}
	if err := g.AddEdge("Papers→Authors", ids["a1"], ids["p1"]); err == nil {
		t.Error("wrong source type accepted")
	}
	if err := g.AddEdge("Papers→Authors", ids["p1"], ids["sigmod"]); err == nil {
		t.Error("wrong target type accepted")
	}
	if err := g.AddEdge("Papers→Authors", ids["p1"], NodeID(99)); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	before := g.NumEdges()
	if err := g.AddEdge("Papers→Authors", ids["p1"], ids["a1"]); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Error("duplicate edge not deduplicated")
	}
	if !slices.Contains(g.Neighbors(ids["p1"], "Papers→Authors"), ids["a1"]) {
		t.Error("edge p1→a1 missing")
	}
	if slices.Contains(g.Neighbors(ids["p2"], "Papers→Authors"), ids["a1"]) {
		t.Error("edge p2→a1 false positive")
	}
	if g.Neighbors(ids["p1"], "nope") != nil {
		t.Error("edge of an unknown type")
	}
}

func TestAddNodeValidation(t *testing.T) {
	g, _ := buildInstance(t)
	if _, err := g.AddNode("nope", nil); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := g.AddNode("Papers", []value.V{value.Int(9)}); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestOneRunPerType pins the graph's row-address invariant: each node
// type's IDs are one run [lo, hi], so a node's row is id − lo. AddNode
// into a type whose run a later type closed fails and leaves the graph
// as it was, InstallNodes rejects an owner array that reopens a type,
// and a type with no nodes has the empty run [0, -1].
func TestOneRunPerType(t *testing.T) {
	g, ids := buildInstance(t)
	before := g.NumNodes()
	if _, err := g.AddNode("Papers", []value.V{value.Int(4), value.Str("late"), value.Int(2020)}); err == nil {
		t.Fatal("AddNode reopened the closed Papers run")
	}
	if g.NumNodes() != before || len(g.NodesOfType("Papers")) != 3 {
		t.Fatalf("failed AddNode changed the graph: %d nodes, %d papers", g.NumNodes(), len(g.NodesOfType("Papers")))
	}
	if col, err := g.AttrColumn("Papers", 1); err != nil || col.Len() != 3 {
		t.Fatalf("failed AddNode changed the title column: %d values, %v", col.Len(), err)
	}
	if lo, hi := g.TypeIDRange("Papers"); lo != 0 || hi != 2 {
		t.Fatalf("Papers run [%d, %d], want [0, 2]", lo, hi)
	}
	// The open run still grows, and rows are read at id − lo.
	id, err := g.AddNode("Paper_Keywords: keyword", []value.V{value.Str("provenance")})
	if err != nil || id != NodeID(before) {
		t.Fatalf("AddNode to the open run = %d, %v; want %d", id, err, before)
	}
	if got := g.Node(id).Attr("keyword").AsString(); got != "provenance" {
		t.Fatalf("new keyword reads %q", got)
	}
	if got := g.Node(ids["a2"]).Attr("name").AsString(); got != "Nandi" {
		t.Fatalf("a2 (row 1 of a run at %d) reads %q", ids["a1"], got)
	}

	empty := NewInstanceGraph(paperSchema(t))
	if lo, hi := empty.TypeIDRange("Authors"); lo != 0 || hi != -1 {
		t.Fatalf("empty type's run [%d, %d], want [0, -1]", lo, hi)
	}
	if err := empty.InstallNodes([]int32{0, 0, 1, 0}); err == nil {
		t.Fatal("InstallNodes accepted an interleaved owner array")
	}
	if empty.NumNodes() != 0 || len(empty.NodesOfType("Papers")) != 0 {
		t.Fatalf("rejected InstallNodes left %d nodes", empty.NumNodes())
	}
	if err := empty.InstallNodes([]int32{2, 2, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	for typ, want := range map[string][2]NodeID{"Conferences": {0, 1}, "Papers": {2, 4}, "Authors": {5, 5}} {
		if lo, hi := empty.TypeIDRange(typ); lo != want[0] || hi != want[1] {
			t.Errorf("%s run [%d, %d], want %v", typ, lo, hi, want)
		}
	}
}

func TestFindNode(t *testing.T) {
	g, ids := buildInstance(t)
	n, ok := g.FindNode("Authors", "name", value.Str("Nandi"))
	if !ok || n.ID != ids["a2"] {
		t.Errorf("FindNode = %v, %v", n, ok)
	}
	if _, ok := g.FindNode("Authors", "name", value.Str("Nobody")); ok {
		t.Error("FindNode should miss")
	}
	if _, ok := g.FindNode("nope", "name", value.Str("x")); ok {
		t.Error("unknown type should miss")
	}
	if _, ok := g.FindNode("Authors", "nope", value.Str("x")); ok {
		t.Error("unknown attr should miss")
	}
}

func TestStats(t *testing.T) {
	g, _ := buildInstance(t)
	s := g.ComputeStats()
	if s.Nodes != 7 || s.Edges != 13 {
		t.Errorf("stats = %+v", s)
	}
	if s.NodesByType["Papers"] != 3 || s.EdgesByType["Papers→Authors"] != 3 {
		t.Errorf("per-type stats = %+v", s)
	}
	names := g.SortedTypeNames()
	if len(names) != 4 || names[0] != "Authors" {
		t.Errorf("type names = %v", names)
	}
}

func TestKindStrings(t *testing.T) {
	if NodeEntity.String() != "entity table" || NodeCategorical.String() == "?" {
		t.Error("NodeTypeKind.String")
	}
	if EdgeManyToMany.String() != "many-to-many relationship" || EdgeTypeKind(9).String() != "?" {
		t.Error("EdgeTypeKind.String")
	}
	if NodeTypeKind(9).String() != "?" {
		t.Error("unknown NodeTypeKind")
	}
}

func TestDegreeStatistics(t *testing.T) {
	g, _ := buildInstance(t)
	// 3 Papers→Authors edges over 3 Papers nodes.
	if got := g.EdgeTypeCount("Papers→Authors"); got != 3 {
		t.Errorf("EdgeTypeCount = %d, want 3", got)
	}
	// Reverse direction: the same 3 edges.
	if got := g.EdgeTypeCount("Papers→Authors_rev"); got != 3 {
		t.Errorf("EdgeTypeCount(Papers→Authors_rev) = %d, want 3", got)
	}
	if got := g.EdgeTypeCount("nope"); got != 0 {
		t.Errorf("EdgeTypeCount(unknown) = %d, want 0", got)
	}
	// Statistics agree with the full recount in ComputeStats.
	s := g.ComputeStats()
	for et, n := range s.EdgesByType {
		if g.EdgeTypeCount(et) != n {
			t.Errorf("EdgeTypeCount(%s) = %d, stats say %d", et, g.EdgeTypeCount(et), n)
		}
	}
}

func TestFreeze(t *testing.T) {
	g, ids := buildInstance(t)
	if g.Frozen() {
		t.Error("graph frozen before Freeze")
	}
	g.Freeze()
	g.Freeze() // idempotent
	if !g.Frozen() {
		t.Error("graph not frozen after Freeze")
	}
	if _, err := g.AddNode("Papers", []value.V{value.Int(9), value.Str("x"), value.Int(2020)}); err == nil {
		t.Error("AddNode accepted on a frozen graph")
	}
	if err := g.AddEdge("Papers→Authors", ids["p2"], ids["a1"]); err == nil {
		t.Error("AddEdge accepted on a frozen graph")
	}
	// Reads still work and see the pre-freeze state.
	if g.NumNodes() != 7 || g.NumEdges() != 13 {
		t.Errorf("frozen graph reads changed: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

// TestConcurrentReads exercises every read accessor from many
// goroutines on a frozen graph; with -race this verifies the
// immutability contract the shared execution cache depends on.
func TestConcurrentReads(t *testing.T) {
	g, ids := buildInstance(t)
	g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g.EdgeTypeCount("Papers→Authors_rev") != 3 {
					t.Error("EdgeTypeCount changed under concurrency")
					return
				}
				if len(g.Neighbors(ids["p1"], "Papers→Authors")) != 2 {
					t.Error("Neighbors changed under concurrency")
					return
				}
				if a := g.Adjacency("Papers→Conferences"); a.Ensure() != nil || !slices.Contains(a.Neighbors(ids["p1"]), ids["sigmod"]) {
					t.Error("Adjacency changed under concurrency")
					return
				}
				if g.Degree(ids["p1"], "Papers→keyword") != 1 {
					t.Error("Degree changed under concurrency")
					return
				}
				if _, ok := g.FindNode("Authors", "name", value.Str("Nandi")); !ok {
					t.Error("FindNode missed under concurrency")
					return
				}
				if g.Node(ids["p1"]).Label() != "Making database systems usable" {
					t.Error("Node/Label changed under concurrency")
					return
				}
				s := g.ComputeStats()
				if s.Nodes != 7 || s.Edges != 13 {
					t.Error("ComputeStats changed under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}
