package etable

import (
	"strings"
	"testing"

	"repro/internal/testdb"
	"repro/internal/translate"
)

func fixture(t testing.TB) *translate.Result {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInitiate(t *testing.T) {
	res := fixture(t)
	p, err := Initiate(res.Schema, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	if p.Primary != "Papers" || len(p.Nodes) != 1 || len(p.Edges) != 0 {
		t.Errorf("pattern = %+v", p)
	}
	if _, err := Initiate(res.Schema, "Nope"); err == nil {
		t.Error("unknown type accepted")
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 6 {
		t.Errorf("papers = %d, want 6", out.NumRows())
	}
	// Columns: 6 base attrs + neighbor columns (Conferences, Papers
	// referenced, Papers referencing, keyword, year).
	baseCount := 0
	for _, c := range out.Columns {
		if c.Kind == ColBase {
			baseCount++
		}
	}
	if baseCount != 6 {
		t.Errorf("base columns = %d, want 6", baseCount)
	}
	if out.ColumnIndex("Papers (referenced)") < 0 || out.ColumnIndex("Papers (referencing)") < 0 {
		t.Errorf("citation neighbor columns missing: %v", colNames(out))
	}
}

func colNames(r *Result) []string {
	var out []string
	for _, c := range r.Columns {
		out = append(out, c.Name)
	}
	return out
}

func TestSelectConjunction(t *testing.T) {
	res := fixture(t)
	p, _ := Initiate(res.Schema, "Papers")
	p1, err := Select(p, "year > 2008")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Select(p1, "year < 2014")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Instance, p2)
	if err != nil {
		t.Fatal(err)
	}
	// Papers in (2008, 2014): 2011 ×3, 2009 ×1 = 4.
	if out.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", out.NumRows())
	}
	// Original pattern unchanged (immutability).
	if p.PrimaryNode().Cond != nil {
		t.Error("Select mutated its input")
	}
	if p1.PrimaryNode().CondSrc != "year > 2008" {
		t.Errorf("cond src = %q", p1.PrimaryNode().CondSrc)
	}
	if !strings.Contains(p2.PrimaryNode().CondSrc, "AND") {
		t.Errorf("conjoined src = %q", p2.PrimaryNode().CondSrc)
	}
	if _, err := Select(p, "bad syntax ((("); err == nil {
		t.Error("bad condition accepted")
	}
}

func TestAddShift(t *testing.T) {
	res := fixture(t)
	p, _ := Initiate(res.Schema, "Conferences")
	p, err := Select(p, "acronym = 'SIGMOD'")
	if err != nil {
		t.Fatal(err)
	}
	// Add papers: primary becomes Papers.
	p, err = Add(res.Schema, p, "Papers→Conferences_rev")
	if err != nil {
		t.Fatal(err)
	}
	if p.Primary != "Papers" {
		t.Errorf("primary = %q", p.Primary)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 { // SIGMOD papers: 1, 2, 5, 6
		t.Errorf("SIGMOD papers = %d, want 4", out.NumRows())
	}
	// The Conferences participating column shows SIGMOD for each row.
	ci := out.ColumnIndex("Conferences")
	if ci < 0 {
		t.Fatalf("no Conferences column: %v", colNames(out))
	}
	if out.Columns[ci].Kind != ColParticipating {
		t.Errorf("Conferences column kind = %v", out.Columns[ci].Kind)
	}
	for _, row := range out.Rows {
		if len(row.Cells[ci].Refs) != 1 || row.Cells[ci].Refs[0].Label != "SIGMOD" {
			t.Errorf("row %s conferences = %v", row.Label, row.Cells[ci].Refs)
		}
	}
	// Shift back to Conferences.
	ps, err := Shift(p, "Conferences")
	if err != nil {
		t.Fatal(err)
	}
	outc, err := Execute(res.Instance, ps)
	if err != nil {
		t.Fatal(err)
	}
	if outc.NumRows() != 1 || outc.Rows[0].Label != "SIGMOD" {
		t.Errorf("shifted rows = %+v", outc.Rows)
	}
	// Error paths.
	if _, err := Add(res.Schema, p, "nope"); err == nil {
		t.Error("unknown edge accepted")
	}
	if _, err := Add(res.Schema, p, "Authors→Institutions"); err == nil {
		t.Error("edge not anchored at primary accepted")
	}
	if _, err := Shift(p, "nope"); err == nil {
		t.Error("unknown shift target accepted")
	}
}

// TestFigure7_IncrementalConstruction follows the paper's Figure 7
// P1–P8: researchers with SIGMOD papers after 2005 at Korean
// institutions.
func TestFigure7_IncrementalConstruction(t *testing.T) {
	res := fixture(t)
	schema := res.Schema
	p := figure7PlanPattern(t, res) // P1–P8

	if err := p.Validate(schema); err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	// Korean-institution authors of SIGMOD papers after 2005:
	// Minsuk Kahng is at Seoul National Univ. but his paper is at KDD;
	// Sang Kim (KAIST) co-authored paper 6 (SIGMOD 2011). So: Sang Kim.
	if out.NumRows() != 1 || out.Rows[0].Label != "Sang Kim" {
		var labels []string
		for _, r := range out.Rows {
			labels = append(labels, r.Label)
		}
		t.Errorf("rows = %v, want [Sang Kim]", labels)
	}
	if got := len(p.Nodes); got != 4 {
		t.Errorf("pattern nodes = %d, want 4", got)
	}
	if s := p.String(); !strings.Contains(s, "*Authors") {
		t.Errorf("pattern string = %q", s)
	}
}

// TestFigure1_EnrichedTable reproduces the Figure 1 query: papers with
// keyword like '%user%' at SIGMOD, as an enriched table.
func TestFigure1_EnrichedTable(t *testing.T) {
	res := fixture(t)
	p := figure1PlanPattern(t, res)
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	// SIGMOD papers with a %user% keyword: papers 1, 2, 6.
	if out.NumRows() != 3 {
		var labels []string
		for _, r := range out.Rows {
			labels = append(labels, r.Label)
		}
		t.Fatalf("rows = %v, want 3", labels)
	}
	// Neighbor column for authors exists and carries counts.
	ai := out.ColumnIndex("Authors")
	if ai < 0 {
		t.Fatalf("no Authors column: %v", colNames(out))
	}
	row0 := out.Rows[0] // paper 1
	if row0.Cells[ai].Count() != 2 {
		t.Errorf("paper 1 author count = %d, want 2", row0.Cells[ai].Count())
	}
	// The keyword participating column shows only matching keywords.
	ki := -1
	for i, c := range out.Columns {
		if c.Kind == ColParticipating && c.TargetType == "Paper_Keywords: keyword" {
			ki = i
			break
		}
	}
	if ki < 0 {
		t.Fatalf("no keyword participating column: %v", colNames(out))
	}
	for _, row := range out.Rows {
		for _, ref := range row.Cells[ki].Refs {
			if !strings.Contains(ref.Label, "user") {
				t.Errorf("non-matching keyword ref %q", ref.Label)
			}
		}
	}
}

func TestSortByAttrAndCount(t *testing.T) {
	res := fixture(t)
	p, _ := Initiate(res.Schema, "Papers")
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sort(SortSpec{Attr: "year", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Cells[3].Value.AsInt() != 2014 {
		t.Errorf("top year = %v", out.Rows[0].Cells[3].Value)
	}
	// Sort by citation count (# of Papers (referencing)).
	if err := out.Sort(SortSpec{Column: "Papers (referencing)", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Label != "Making database systems usable" {
		t.Errorf("most cited = %q", out.Rows[0].Label)
	}
	if err := out.Sort(SortSpec{Attr: "nope"}); err == nil {
		t.Error("bad sort attr accepted")
	}
	if err := out.Sort(SortSpec{Column: "nope"}); err == nil {
		t.Error("bad sort column accepted")
	}
	if err := out.Sort(SortSpec{}); err == nil {
		t.Error("empty sort accepted")
	}
	if err := out.Sort(SortSpec{Column: "year"}); err == nil {
		t.Error("sorting base column by count accepted")
	}
}

func TestCategoricalPivot(t *testing.T) {
	res := fixture(t)
	// Open papers, pivot to year (categorical node type).
	p, _ := Initiate(res.Schema, "Papers")
	p, err := Add(res.Schema, p, "Papers→Papers: year")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct years: 2007, 2014, 2011, 2009 → 4 rows.
	if out.NumRows() != 4 {
		t.Errorf("year rows = %d, want 4", out.NumRows())
	}
	// Sort years by paper count: 2011 has 3 papers.
	pi := out.ColumnIndex("Papers")
	if pi < 0 {
		t.Fatalf("columns = %v", colNames(out))
	}
	if err := out.Sort(SortSpec{Column: "Papers", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Label != "2011" || out.Rows[0].Cells[pi].Count() != 3 {
		t.Errorf("top year = %q with %d papers", out.Rows[0].Label, out.Rows[0].Cells[pi].Count())
	}
}

func TestValidate(t *testing.T) {
	res := fixture(t)
	schema := res.Schema
	cases := []struct {
		name string
		p    *Pattern
	}{
		{"empty", &Pattern{}},
		{"dup keys", &Pattern{Primary: "A", Nodes: []PatternNode{
			{Key: "A", Type: "Papers"}, {Key: "A", Type: "Papers"}}}},
		{"unknown type", &Pattern{Primary: "A", Nodes: []PatternNode{{Key: "A", Type: "Nope"}}}},
		{"missing primary", &Pattern{Primary: "B", Nodes: []PatternNode{{Key: "A", Type: "Papers"}}}},
		{"not a tree", &Pattern{Primary: "A", Nodes: []PatternNode{
			{Key: "A", Type: "Papers"}, {Key: "B", Type: "Conferences"}}}},
		{"unknown edge", &Pattern{Primary: "A",
			Nodes: []PatternNode{{Key: "A", Type: "Papers"}, {Key: "B", Type: "Conferences"}},
			Edges: []PatternEdge{{EdgeType: "nope", From: "A", To: "B"}}}},
		{"edge endpoints missing", &Pattern{Primary: "A",
			Nodes: []PatternNode{{Key: "A", Type: "Papers"}, {Key: "B", Type: "Conferences"}},
			Edges: []PatternEdge{{EdgeType: "Papers→Conferences", From: "A", To: "Z"}}}},
		{"edge type mismatch", &Pattern{Primary: "A",
			Nodes: []PatternNode{{Key: "A", Type: "Authors"}, {Key: "B", Type: "Conferences"}},
			Edges: []PatternEdge{{EdgeType: "Papers→Conferences", From: "A", To: "B"}}}},
		{"disconnected", &Pattern{Primary: "A",
			Nodes: []PatternNode{
				{Key: "A", Type: "Papers"}, {Key: "B", Type: "Conferences"},
				{Key: "C", Type: "Authors"}, {Key: "D", Type: "Institutions"}},
			Edges: []PatternEdge{
				{EdgeType: "Papers→Conferences", From: "A", To: "B"},
				{EdgeType: "Papers→Conferences", From: "A", To: "B"},
				{EdgeType: "Authors→Institutions", From: "C", To: "D"}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(schema); err == nil {
			t.Errorf("%s: invalid pattern accepted", c.name)
		}
	}
}

func TestDuplicateTypeInPattern(t *testing.T) {
	res := fixture(t)
	schema := res.Schema
	// Papers → referenced Papers: the same type twice.
	p, _ := Initiate(schema, "Papers")
	p, err := Add(schema, p, "Paper_References")
	if err != nil {
		t.Fatal(err)
	}
	if p.Primary != "Papers#2" {
		t.Errorf("second occurrence key = %q", p.Primary)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	// Referenced papers: 1, 3, 5 → 3 rows.
	if out.NumRows() != 3 {
		t.Errorf("referenced papers = %d, want 3", out.NumRows())
	}
	// Participating column for the original Papers node shows the
	// referencing papers.
	ci := out.ColumnIndex("Papers")
	if ci < 0 || out.Columns[ci].Kind != ColParticipating {
		t.Fatalf("columns = %v", colNames(out))
	}
	for _, row := range out.Rows {
		if row.Label == "Making database systems usable" && row.Cells[ci].Count() != 4 {
			t.Errorf("paper 1 referencing count = %d, want 4", row.Cells[ci].Count())
		}
	}
}

func TestSelectNodeAndAddBetween(t *testing.T) {
	res := fixture(t)
	schema := res.Schema
	p, _ := Initiate(schema, "Papers")
	p, _ = Add(schema, p, "Papers→Conferences")
	p, _ = Shift(p, "Papers")
	// Condition on the non-primary Conferences node.
	p, err := SelectNode(p, "Conferences", "acronym = 'SIGMOD'")
	if err != nil {
		t.Fatal(err)
	}
	p, err = SelectNode(p, "Conferences", "id = 1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", out.NumRows())
	}
	if _, err := SelectNode(p, "nope", "id = 1"); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := SelectNode(p, "Conferences", "((("); err == nil {
		t.Error("bad condition accepted")
	}
	// AddBetween anchored at non-primary node.
	p2, key, err := AddBetween(schema, p, "Papers", "Papers→Paper_Keywords: keyword")
	if err != nil {
		t.Fatal(err)
	}
	if key != "Paper_Keywords: keyword" || p2.Primary != "Papers" {
		t.Errorf("AddBetween key=%q primary=%q", key, p2.Primary)
	}
	if _, _, err := AddBetween(schema, p, "nope", "Papers→Paper_Keywords: keyword"); err == nil {
		t.Error("unknown anchor accepted")
	}
	if _, _, err := AddBetween(schema, p, "Conferences", "Papers→Paper_Keywords: keyword"); err == nil {
		t.Error("type-mismatched anchor accepted")
	}
	if _, _, err := AddBetween(schema, p, "Papers", "nope"); err == nil {
		t.Error("unknown edge accepted")
	}
}

func TestMatchRelationShape(t *testing.T) {
	res := fixture(t)
	schema := res.Schema
	p, _ := Initiate(schema, "Conferences")
	p, _ = Select(p, "acronym = 'SIGMOD'")
	p, _ = Add(schema, p, "Papers→Conferences_rev")
	m, err := MatchOpts(res.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Nodes {
		if s, ok := m.Set(n.Key); !ok || s.Len() == 0 {
			t.Errorf("set %q: %d members, found %v", n.Key, s.Len(), ok)
		}
	}
	if _, ok := m.Set("Authors"); ok {
		t.Error("a set for a key outside the pattern")
	}
	if m.Len() != 4 {
		t.Errorf("matched tuples = %d, want 4", m.Len())
	}
}

func TestEmptyResult(t *testing.T) {
	res := fixture(t)
	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 3000")
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", out.NumRows())
	}
}

func TestColumnKindString(t *testing.T) {
	if ColBase.String() != "base attribute" || ColumnKind(9).String() != "?" {
		t.Error("ColumnKind.String")
	}
	c := Column{Kind: ColNeighbor}
	if !c.IsEntityRef() {
		t.Error("neighbor column is entity ref")
	}
	b := Column{Kind: ColBase}
	if b.IsEntityRef() {
		t.Error("base column is not entity ref")
	}
}

func TestRefsCarryLabels(t *testing.T) {
	res := fixture(t)
	p, _ := Initiate(res.Schema, "Authors")
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	ii := -1
	for i, c := range out.Columns {
		if c.Kind == ColNeighbor && c.TargetType == "Institutions" {
			ii = i
			break
		}
	}
	if ii < 0 {
		t.Fatalf("no Institutions column: %v", colNames(out))
	}
	var kahng *Row
	for i := range out.Rows {
		if out.Rows[i].Label == "Minsuk Kahng" {
			kahng = &out.Rows[i]
		}
	}
	if kahng == nil {
		t.Fatal("Kahng row missing")
	}
	refs := kahng.Cells[ii].Refs
	if len(refs) != 1 || refs[0].Label != "Seoul National Univ." {
		t.Errorf("Kahng institutions = %v", refs)
	}
	if node := res.Instance.Node(refs[0].ID); node.Attr("country").AsString() != "South Korea" {
		t.Error("ref ID does not resolve")
	}
}

func TestMultiplePathsSameTypes(t *testing.T) {
	// A pattern can hold the keyword type reached from Papers while the
	// primary is Authors several hops away; checks deep grouping.
	res := fixture(t)
	schema := res.Schema
	p, _ := Initiate(schema, "Paper_Keywords: keyword")
	p, _ = Select(p, "keyword = 'user interface'")
	p, err := Add(schema, p, "Papers→Paper_Keywords: keyword_rev")
	if err != nil {
		t.Fatal(err)
	}
	p, err = Add(schema, p, "Paper_Authors")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	// Authors of papers with keyword "user interface": papers 1, 2, 6 →
	// authors Jagadish, Nandi, Sang Kim.
	if out.NumRows() != 3 {
		var labels []string
		for _, r := range out.Rows {
			labels = append(labels, r.Label)
		}
		t.Errorf("authors = %v, want 3", labels)
	}
}
