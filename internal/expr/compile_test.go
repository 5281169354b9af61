package expr

import (
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

func compileFixture(t testing.TB) (*tgm.InstanceGraph, *tgm.NodeType, *tgm.Node, *tgm.Node) {
	t.Helper()
	s := tgm.NewSchemaGraph()
	nt, err := s.AddNodeType(tgm.NodeType{Name: "Papers", Label: "title",
		Attrs: []tgm.Attr{
			{Name: "id", Type: value.KindInt},
			{Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt},
			{Name: "score", Type: value.KindFloat},
		}})
	if err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	id1, err := g.AddNode("Papers", []value.V{
		value.Int(1), value.Str("usable databases"), value.Int(2007), value.Float(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := g.AddNode("Papers", []value.V{
		value.Int(2), value.Str("SkewTune"), value.Null, value.Null})
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g, nt, g.Node(id1), g.Node(id2)
}

// selected runs pred over nodes and reports, per node, whether it was
// kept.
func selected(t *testing.T, pred *Pred, g *tgm.InstanceGraph, nodes ...*tgm.Node) []bool {
	t.Helper()
	ids := make([]tgm.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	b, err := pred.Bind(g)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	keep, err := b.Select(ids, 0, len(ids), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(nodes))
	for _, i := range keep {
		out[i] = true
	}
	return out
}

// TestCompileParityWithEval asserts the compiled predicate keeps exactly
// the nodes on which the interpreted Truthy path holds, across the
// operator surface, including three-valued logic over NULL attributes,
// NOT pushed through every connective and leaf, and constants on either
// side of a comparison.
func TestCompileParityWithEval(t *testing.T) {
	g, nt, n1, n2 := compileFixture(t)
	conds := []string{
		"year > 2005",
		"Papers.year > 2005",
		"year = 2007 AND title like '%data%'",
		"year = 2007 OR title like 'Skew%'",
		"NOT (year < 2000)",
		"title ilike '%USABLE%'",
		"title not like 'x%'",
		"year in (2007, 2012)",
		"year not in (1999)",
		"year between 2000 and 2010",
		"year not between 2000 and 2010",
		"year is null",
		"year is not null",
		"year + 1 = 2008",
		"year % 2 = 1",
		"score * 2 = 1",
		"year > 2005 AND score is null",
		// Constant on the left, NOT over each leaf kind and connective.
		"2005 < year",
		"0.5 >= score",
		"NOT (title like '%data%')",
		"NOT (year in (2007))",
		"NOT (year between 2000 and 2010)",
		"NOT (year is null)",
		"NOT (year = 2007 AND score > 0.1)",
		"NOT (year = 2007 OR title = 'SkewTune')",
		"NOT (NOT (year = 2007))",
		"NOT (year + 1 = 2008)",
		// NULL in an IN list: no match is UNKNOWN, so NOT IN never holds.
		"year in (1999, null)",
		"year not in (1999, null)",
		"NOT (year in (1999, null))",
		// Cross-kind and NULL constants.
		"year = 2007.0",
		"score < 1",
		"title > 5",
		"year = null",
		"title like null",
		"year between null and 2010",
		"year = id",
	}
	for _, src := range conds {
		e := MustParse(src)
		pred, err := Compile(e, nt)
		if err != nil {
			t.Fatalf("%s: compile: %v", src, err)
		}
		got := selected(t, pred, g, n1, n2)
		for i, n := range []*tgm.Node{n1, n2} {
			want, err := Truthy(e, mapEnvFor(n))
			if err != nil {
				t.Fatalf("%s on node %d: %v", src, n.ID, err)
			}
			if want != got[i] {
				t.Errorf("%s on node %d: compiled %v, interpreted %v", src, n.ID, got[i], want)
			}
		}
	}
}

// mapEnvFor mirrors the interpreted lookup used before compilation.
func mapEnvFor(n *tgm.Node) Env {
	m := MapEnv{}
	for i, a := range n.Type.Attrs {
		m[a.Name] = n.AttrAt(i)
	}
	return m
}

func TestCompileUnknownColumn(t *testing.T) {
	_, nt, _, _ := compileFixture(t)
	if _, err := Compile(MustParse("nope = 1"), nt); err == nil {
		t.Error("unknown column compiled")
	}
	if _, err := Compile(MustParse("year in (1, nope)"), nt); err == nil {
		t.Error("unknown column in IN list compiled")
	}
	// Qualified names resolve through the dotted-suffix fallback.
	if _, err := Compile(MustParse("Whatever.year = 2007"), nt); err != nil {
		t.Errorf("dotted fallback: %v", err)
	}
}

// stubExpr is an expression type Compile does not know, forcing the
// interpreted fallback.
type stubExpr struct{}

func (stubExpr) Eval(env Env) (value.V, error) {
	v, _ := env.Lookup("year")
	return Cmp{Op: OpGt, Left: Const{Val: v}, Right: Const{Val: value.Int(2005)}}.Eval(env)
}
func (stubExpr) String() string                { return "stub" }
func (stubExpr) Columns(dst []string) []string { return append(dst, "year") }

func TestCompileFallback(t *testing.T) {
	g, nt, n1, n2 := compileFixture(t)
	pred, err := Compile(stubExpr{}, nt)
	if err != nil {
		t.Fatal(err)
	}
	got := selected(t, pred, g, n1, n2)
	if !got[0] {
		t.Error("fallback on n1 = false, want true")
	}
	if got[1] {
		t.Error("fallback on n2 = true (NULL year must be false)")
	}
	// NOT over an unknown type has no exact negation to push down: it
	// runs per row too, and NOT NULL stays not-TRUE.
	pred, err = Compile(Not{stubExpr{}}, nt)
	if err != nil {
		t.Fatal(err)
	}
	if got := selected(t, pred, g, n1, n2); got[0] || got[1] {
		t.Errorf("NOT fallback = %v, want neither node", got)
	}
}
