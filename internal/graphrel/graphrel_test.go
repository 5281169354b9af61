package graphrel

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/tgm"
	"repro/internal/value"
)

// figure8Graph builds a small graph mirroring the paper's Figure 8
// pipeline: Conferences ← Papers ← Authors ← Institutions.
func figure8Graph(t testing.TB) (*tgm.InstanceGraph, map[string]tgm.NodeID) {
	t.Helper()
	s := tgm.NewSchemaGraph()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.AddNodeType(tgm.NodeType{Name: "Conferences", Label: "acronym",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "acronym", Type: value.KindString}}})
	must(err)
	_, err = s.AddNodeType(tgm.NodeType{Name: "Papers", Label: "title",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt}}})
	must(err)
	_, err = s.AddNodeType(tgm.NodeType{Name: "Authors", Label: "name",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}})
	must(err)
	_, err = s.AddNodeType(tgm.NodeType{Name: "Institutions", Label: "name",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString},
			{Name: "country", Type: value.KindString}}})
	must(err)
	_, err = s.AddBidirectional(tgm.EdgeType{Name: "Conf-Papers", Source: "Conferences", Target: "Papers"})
	must(err)
	_, err = s.AddBidirectional(tgm.EdgeType{Name: "Papers-Authors", Source: "Papers", Target: "Authors"})
	must(err)
	_, err = s.AddBidirectional(tgm.EdgeType{Name: "Authors-Inst", Source: "Authors", Target: "Institutions"})
	must(err)

	g := tgm.NewInstanceGraph(s)
	ids := map[string]tgm.NodeID{}
	add := func(key, typ string, attrs ...value.V) {
		id, err := g.AddNode(typ, attrs)
		must(err)
		ids[key] = id
	}
	add("sigmod", "Conferences", value.Int(1), value.Str("SIGMOD"))
	add("kdd", "Conferences", value.Int(2), value.Str("KDD"))
	add("p1", "Papers", value.Int(1), value.Str("usable databases"), value.Int(2007))
	add("p4", "Papers", value.Int(4), value.Str("skew handling"), value.Int(2012))
	add("p5", "Papers", value.Int(5), value.Str("query steering"), value.Int(2013))
	add("p8", "Papers", value.Int(8), value.Str("old paper"), value.Int(2003))
	add("p9", "Papers", value.Int(9), value.Str("kdd paper"), value.Int(2010))
	add("bob", "Authors", value.Int(1), value.Str("Bob"))
	add("mark", "Authors", value.Int(4), value.Str("Mark"))
	add("chad", "Authors", value.Int(11), value.Str("Chad"))
	add("inst3", "Institutions", value.Int(3), value.Str("Seoul National Univ."), value.Str("South Korea"))
	add("inst8", "Institutions", value.Int(8), value.Str("Univ. of Washington"), value.Str("USA"))

	edge := func(et, a, b string) { must(g.AddEdge(et, ids[a], ids[b])) }
	edge("Conf-Papers", "sigmod", "p1")
	edge("Conf-Papers", "sigmod", "p4")
	edge("Conf-Papers", "sigmod", "p5")
	edge("Conf-Papers", "sigmod", "p8")
	edge("Conf-Papers", "kdd", "p9")
	edge("Papers-Authors", "p1", "bob")
	edge("Papers-Authors", "p4", "bob")
	edge("Papers-Authors", "p4", "mark")
	edge("Papers-Authors", "p4", "chad")
	edge("Papers-Authors", "p5", "bob")
	edge("Papers-Authors", "p8", "bob")
	edge("Papers-Authors", "p8", "mark")
	edge("Authors-Inst", "bob", "inst3")
	edge("Authors-Inst", "mark", "inst3")
	edge("Authors-Inst", "chad", "inst8")
	return g, ids
}

// attrsOf names one attribute per node type, by the type's name.
func attrsOf(g *tgm.InstanceGraph, types ...string) []attr {
	out := make([]attr, len(types))
	for i, name := range types {
		out[i] = attr{Name: name, Type: g.Schema().NodeType(name)}
	}
	return out
}

// edgeTo places a tree node under parent, walked from it along
// edgeType (Down) and back along the type's transpose (Up).
func edgeTo(g *tgm.InstanceGraph, parent int, edgeType string) TreeEdge {
	return TreeEdge{Parent: parent, Down: g.Adjacency(edgeType), Up: g.Inverse(edgeType)}
}

// selected is the set of typeName's nodes satisfying cond (every node
// for an empty cond).
func selected(t testing.TB, g *tgm.InstanceGraph, typeName, cond string) NodeSet {
	t.Helper()
	var pred *expr.Pred
	if cond != "" {
		var err error
		if pred, err = expr.Compile(expr.MustParse(cond), g.Schema().NodeType(typeName)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := SelectSet(nil, g, g.NodesOfType(typeName), pred)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBase: a one-node relation over a type's every node is its base
// relation — one tuple per node, which Len counts — and the fixtures'
// walk lists them ascending under the given name.
func TestBase(t *testing.T) {
	g, _ := figure8Graph(t)
	r, err := base(g, "Papers", "Papers#2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 || len(r.Attrs) != 1 || r.Attrs[0].Name != "Papers#2" || !slices.Equal(r.ColumnNamed("Papers#2"), g.NodesOfType("Papers")) {
		t.Errorf("base = %d tuples, attrs %v", r.Len(), r.Attrs)
	}
	if r.AttrIndex("Papers#2") != 0 || r.AttrIndex("zzz") != -1 || r.ColumnNamed("zzz") != nil {
		t.Error("AttrIndex/ColumnNamed")
	}
	if n := relationOf(t, []string{"Papers#2"}, []NodeSet{selected(t, g, "Papers", "")}, []TreeEdge{{}}).Len(); n != 5 {
		t.Errorf("one-node relation: Len %d, want 5", n)
	}
}

func TestSelect(t *testing.T) {
	g, _ := figure8Graph(t)
	papers, _ := base(g, "Papers", "Papers")
	recent, err := selectCond(papers, "Papers", expr.MustParse("year > 2005"))
	if err != nil {
		t.Fatal(err)
	}
	if recent.Len() != 4 {
		t.Errorf("year > 2005 papers = %d, want 4", recent.Len())
	}
	// Qualified condition names resolve too.
	recent2, err := selectCond(papers, "Papers", expr.MustParse("Papers.year > 2005"))
	if err != nil {
		t.Fatal(err)
	}
	if recent2.Len() != recent.Len() {
		t.Error("qualified condition mismatch")
	}
	same, err := Select(papers, "Papers", nil)
	if err != nil || same != papers {
		t.Error("nil predicate should return input")
	}
	pred, err := compileCond(papers, "Papers", expr.MustParse("year > 2005"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(papers, "Nope", pred); err == nil {
		t.Error("bad attribute accepted")
	}
	if _, err := compileCond(papers, "Papers", expr.MustParse("nope = 1")); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := SelectSet(nil, g, g.NodesOfType("Authors"), pred); err == nil {
		t.Error("SelectSet ran a Papers condition over Authors")
	}
}

// TestJoinErrors: NewRelation refuses arguments that do not describe
// one tree — no nodes, keys, sets and tree nodes of different counts,
// or a node whose parent does not come before it — so Len never walks
// them.
func TestJoinErrors(t *testing.T) {
	g, _ := figure8Graph(t)
	confs, papers := selected(t, g, "Conferences", ""), selected(t, g, "Papers", "")
	sets, keys := []NodeSet{confs, papers}, []string{"Conferences", "Papers"}
	for name, tc := range map[string]struct {
		keys []string
		sets []NodeSet
		tree []TreeEdge
	}{
		"no nodes":        {nil, nil, nil},
		"keys short":      {keys[:1], sets, []TreeEdge{{}, edgeTo(g, 0, "Conf-Papers")}},
		"tree short":      {keys, sets, []TreeEdge{{}}},
		"sets short":      {keys, sets[:1], []TreeEdge{{}, edgeTo(g, 0, "Conf-Papers")}},
		"parent itself":   {keys, sets, []TreeEdge{{}, edgeTo(g, 1, "Conf-Papers")}},
		"parent negative": {keys, sets, []TreeEdge{{}, edgeTo(g, -1, "Conf-Papers")}},
	} {
		if r, err := NewRelation(tc.keys, tc.sets, tc.tree); err == nil {
			t.Errorf("%s: accepted, %d tuples", name, r.Len())
		}
	}
}

// canonTuples renders a relation's tuple set order-insensitively.
func canonTuples(r *tuples) []string {
	out := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		key := ""
		for c := range r.Attrs {
			key += string(rune(r.cols[c][i])) + ","
		}
		out[i] = key
	}
	sort.Strings(out)
	return out
}

// TestFigure8Pipeline runs the full Figure 8 instance matching:
// σ_{acronym='SIGMOD'}(Conf) ∗ σ_{year>2005}(Papers) ∗ Authors
// ∗ σ_{country like '%Korea%'}(Inst) — selected sets, reduced — and
// checks the reduced sets, Len and the join walked through them as
// tuples against the JoinScan chain over the reference selections.
func TestFigure8Pipeline(t *testing.T) {
	g, _ := figure8Graph(t)
	types := []string{"Conferences", "Papers", "Authors", "Institutions"}
	conds := []string{"acronym = 'SIGMOD'", "year > 2005", "", "country like '%Korea%'"}
	edges := []string{"", "Conf-Papers", "Papers-Authors", "Authors-Inst"}
	sets, tree := make([]NodeSet, 4), make([]TreeEdge, 4)
	var chain *tuples
	for i, typ := range types {
		sets[i] = selected(t, g, typ, conds[i])
		rel, _ := base(g, typ, typ)
		if conds[i] != "" {
			rel, _ = selectCond(rel, typ, expr.MustParse(conds[i]))
		}
		if i == 0 {
			chain = rel
			continue
		}
		tree[i] = edgeTo(g, i-1, edges[i])
		var err error
		if chain, err = JoinScan(chain, rel, edges[i], types[i-1], typ); err != nil {
			t.Fatal(err)
		}
	}
	red, err := Reduce(context.Background(), sets, tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enumerate(g, attrsOf(g, types...), red, tree)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, 0, "figure 8", got, chain)
	assertReduced(t, "figure 8", relationOf(t, types, red, tree), chain)
	// Authors in Korea with recent SIGMOD papers: bob (p1, p4, p5) and
	// mark (p4) — chad is at UW.
	names := map[string]bool{}
	for _, id := range red[2].IDs() {
		names[g.Node(id).Label()] = true
	}
	if len(names) != 2 || !names["Bob"] || !names["Mark"] {
		t.Errorf("Korea authors = %v", names)
	}
}

// TestConcurrentOperatorsOnSharedRelation runs SelectSet, Reduce,
// Relation.Len and Set, and the reference Select from many goroutines
// over the same shared relations and node sets; with -race this
// verifies the package's immutability and sharing contract (cached
// relations are handed to every session without copying).
func TestConcurrentOperatorsOnSharedRelation(t *testing.T) {
	g, _ := figure8Graph(t)
	g.Freeze()
	papers, err := base(g, "Papers", "Papers")
	if err != nil {
		t.Fatal(err)
	}
	authors := selected(t, g, "Authors", "")
	tree := []TreeEdge{{}, edgeTo(g, 0, "Papers-Authors")}
	cond := expr.MustParse("year > 2005")
	pred, err := compileCond(papers, "Papers", cond)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	type seen struct{ authors, tuples int }
	lens := make([]seen, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				recent, err := selectCond(papers, "Papers", cond)
				if err != nil {
					t.Error(err)
					return
				}
				set, err := SelectSet(nil, g, papers.ColumnNamed("Papers"), pred)
				if err != nil || set.Len() != recent.Len() {
					t.Errorf("SelectSet: %d members (err %v), Select kept %d", set.Len(), err, recent.Len())
					return
				}
				red, err := Reduce(nil, []NodeSet{set, authors}, tree)
				if err != nil {
					t.Error(err)
					return
				}
				rel, err := NewRelation([]string{"Papers", "Authors"}, red, tree)
				if err != nil {
					t.Error(err)
					return
				}
				authors, _ := rel.Set("Authors")
				lens[w] = seen{authors.Len(), rel.Len()}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		if lens[w] != lens[0] {
			t.Errorf("goroutine %d saw %+v, goroutine 0 saw %+v", w, lens[w], lens[0])
		}
	}
}
