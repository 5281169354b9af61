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

func TestBase(t *testing.T) {
	g, _ := figure8Graph(t)
	r, err := Base(g, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 || len(r.Attrs) != 1 || r.Attrs[0].Name != "Papers" {
		t.Errorf("base = %d tuples, attrs %v", r.Len(), r.Attrs)
	}
	if _, err := Base(g, "Nope"); err == nil {
		t.Error("unknown type accepted")
	}
	named, _ := BaseNamed(g, "Papers", "Papers#2")
	if named.Attrs[0].Name != "Papers#2" || named.AttrIndex("Papers#2") != 0 {
		t.Error("BaseNamed")
	}
	if named.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex miss")
	}
	if named.Graph() != g {
		t.Error("Graph()")
	}
}

func TestSelect(t *testing.T) {
	g, _ := figure8Graph(t)
	papers, _ := Base(g, "Papers")
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
	same, err := Select(nil, nil, 1, papers, "Papers", nil)
	if err != nil || same != papers {
		t.Error("nil predicate should return input")
	}
	pred, err := compileCond(papers, "Papers", expr.MustParse("year > 2005"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(nil, nil, 1, papers, "Nope", pred); err == nil {
		t.Error("bad attribute accepted")
	}
	if _, err := compileCond(papers, "Papers", expr.MustParse("nope = 1")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestJoin(t *testing.T) {
	g, ids := figure8Graph(t)
	confs, _ := Base(g, "Conferences")
	sigmod, _ := selectCond(confs, "Conferences", expr.MustParse("acronym = 'SIGMOD'"))
	papers, _ := Base(g, "Papers")

	j, err := Join(sigmod, papers, "Conf-Papers", "Conferences", "Papers")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Errorf("SIGMOD papers = %d, want 4", j.Len())
	}
	if len(j.Attrs) != 2 || j.Attrs[0].Name != "Conferences" || j.Attrs[1].Name != "Papers" {
		t.Errorf("join attrs = %v", j.Attrs)
	}
	for _, id := range j.Column(0) {
		if id != ids["sigmod"] {
			t.Errorf("joined tuple with wrong conference: %v", id)
		}
	}
	// Chain: filter papers by year, join to authors (Figure 8).
	recent, _ := selectCond(j, "Papers", expr.MustParse("year > 2005"))
	authors, _ := Base(g, "Authors")
	j2, err := Join(recent, authors, "Papers-Authors", "Papers", "Authors")
	if err != nil {
		t.Fatal(err)
	}
	// p1→bob, p4→bob/mark/chad, p5→bob = 5 tuples.
	if j2.Len() != 5 {
		t.Errorf("paper-author tuples = %d, want 5", j2.Len())
	}
}

func TestJoinErrors(t *testing.T) {
	g, _ := figure8Graph(t)
	confs, _ := Base(g, "Conferences")
	papers, _ := Base(g, "Papers")
	if _, err := Join(confs, papers, "nope", "Conferences", "Papers"); err == nil {
		t.Error("unknown edge type accepted")
	}
	if _, err := Join(confs, papers, "Conf-Papers", "nope", "Papers"); err == nil {
		t.Error("bad left attr accepted")
	}
	if _, err := Join(confs, papers, "Conf-Papers", "Conferences", "nope"); err == nil {
		t.Error("bad right attr accepted")
	}
	// Type mismatch: edge source must match left attr type.
	if _, err := Join(papers, confs, "Conf-Papers", "Papers", "Conferences"); err == nil {
		t.Error("source type mismatch accepted")
	}
	other := tgm.NewInstanceGraph(g.Schema())
	otherPapers, _ := Base(other, "Papers")
	if _, err := Join(confs, otherPapers, "Conf-Papers", "Conferences", "Papers"); err == nil {
		t.Error("cross-graph join accepted")
	}
}

func TestJoinScanEquivalence(t *testing.T) {
	g, _ := figure8Graph(t)
	confs, _ := Base(g, "Conferences")
	papers, _ := Base(g, "Papers")
	a, err := Join(confs, papers, "Conf-Papers", "Conferences", "Papers")
	if err != nil {
		t.Fatal(err)
	}
	b, err := JoinScan(confs, papers, "Conf-Papers", "Conferences", "Papers")
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := canonTuples(a), canonTuples(b)
	if len(ca) != len(cb) {
		t.Fatalf("lengths differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

// distinctCount is the number of distinct IDs in ids.
func distinctCount(ids []tgm.NodeID) int {
	seen := map[tgm.NodeID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	return len(seen)
}

// canonTuples renders a relation's tuple set order-insensitively.
func canonTuples(r *Relation) []string {
	out := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		key := ""
		for c := range r.Attrs {
			key += string(rune(r.At(i, c))) + ","
		}
		out[i] = key
	}
	sort.Strings(out)
	return out
}

func TestDistinctNodes(t *testing.T) {
	g, ids := figure8Graph(t)
	papers, _ := Base(g, "Papers")
	authors, _ := Base(g, "Authors")
	j, _ := Join(papers, authors, "Papers-Authors", "Papers", "Authors")
	rows, err := DistinctSorted(j, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // p9 has no authors
		t.Errorf("papers with authors = %d, want 4", len(rows))
	}
	if !slices.IsSorted(rows) || rows[0] != ids["p1"] {
		t.Errorf("rows = %v, want ascending from p1", rows)
	}
	if !slices.Equal(rows, distinctOracle(j.ColumnNamed("Papers"))) {
		t.Errorf("rows = %v, oracle %v", rows, distinctOracle(j.ColumnNamed("Papers")))
	}
	// The reverse join reaches the same papers in another row order.
	rev, _ := Join(authors, papers, "Papers-Authors_rev", "Authors", "Papers")
	if back, _ := DistinctSorted(rev, "Papers"); !slices.Equal(back, rows) {
		t.Errorf("reverse join rows = %v, want %v", back, rows)
	}
	if _, err := DistinctSorted(j, "Nope"); err == nil {
		t.Error("bad attribute accepted")
	}
}

func TestGroupNeighbors(t *testing.T) {
	g, ids := figure8Graph(t)
	papers, _ := Base(g, "Papers")
	authors, _ := Base(g, "Authors")
	j, _ := Join(papers, authors, "Papers-Authors", "Papers", "Authors")
	groups := groupBoth(t, "papers→authors", j, "Papers", "Authors")
	if groups.Count(ids["p4"]) != 3 {
		t.Errorf("p4 has %d authors, want 3", groups.Count(ids["p4"]))
	}
	if refs := groups.Refs(ids["p1"]); len(refs) != 1 || refs[0] != ids["bob"] {
		t.Errorf("p1 authors = %v", refs)
	}
	if groups.Count(ids["p9"]) != 0 { // p9 has no authors: not a row
		t.Errorf("p9 has %d authors, want none", groups.Count(ids["p9"]))
	}
	if _, err := GroupNeighbors(context.Background(), j, groups.keys, "Nope", "Authors"); err == nil {
		t.Error("bad group attr accepted")
	}
	if _, err := GroupNeighbors(context.Background(), j, groups.keys, "Papers", "Nope"); err == nil {
		t.Error("bad value attr accepted")
	}
}

func TestFigure8Pipeline(t *testing.T) {
	// The full Figure 8 instance-matching chain:
	// σ_{acronym='SIGMOD'}(Conf) ∗ σ_{year>2005}(Papers) ∗ Authors
	// ∗ σ_{country like '%Korea%'}(Inst)
	g, ids := figure8Graph(t)
	confs, _ := Base(g, "Conferences")
	sigmod, _ := selectCond(confs, "Conferences", expr.MustParse("acronym = 'SIGMOD'"))
	papers, _ := Base(g, "Papers")
	recent, _ := selectCond(papers, "Papers", expr.MustParse("year > 2005"))
	j1, err := Join(sigmod, recent, "Conf-Papers", "Conferences", "Papers")
	if err != nil {
		t.Fatal(err)
	}
	authors, _ := Base(g, "Authors")
	j2, err := Join(j1, authors, "Papers-Authors", "Papers", "Authors")
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := Base(g, "Institutions")
	korea, _ := selectCond(insts, "Institutions", expr.MustParse("country like '%Korea%'"))
	j3, err := Join(j2, korea, "Authors-Inst", "Authors", "Institutions")
	if err != nil {
		t.Fatal(err)
	}
	// Authors in Korea with recent SIGMOD papers: bob (p1, p4, p5) and
	// mark (p4) — chad is at UW.
	got, _ := DistinctSorted(j3, "Authors")
	names := map[string]bool{}
	for _, id := range got {
		names[g.Node(id).Label()] = true
	}
	if len(names) != 2 || !names["Bob"] || !names["Mark"] {
		t.Errorf("Korea authors = %v", names)
	}
	_ = ids
}

// TestConcurrentOperatorsOnSharedRelation runs Select/Join/Retain
// from many goroutines over the same shared relations; with
// -race this verifies the package's immutability and sharing contract
// (cached relations are handed to every session without copying).
func TestConcurrentOperatorsOnSharedRelation(t *testing.T) {
	g, _ := figure8Graph(t)
	g.Freeze()
	papers, err := Base(g, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	authors, err := Base(g, "Authors")
	if err != nil {
		t.Fatal(err)
	}
	cond := expr.MustParse("year > 2005")
	var wg sync.WaitGroup
	lens := make([]int, 8)
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
				joined, err := Join(recent, authors, "Papers-Authors", "Papers", "Authors")
				if err != nil {
					t.Error(err)
					return
				}
				narrowed, err := joined.Retain("Authors")
				if err != nil {
					t.Error(err)
					return
				}
				lens[w] = distinctCount(narrowed.ColumnNamed("Authors"))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		if lens[w] != lens[0] {
			t.Errorf("goroutine %d saw %d distinct authors, goroutine 0 saw %d", w, lens[w], lens[0])
		}
	}
}
