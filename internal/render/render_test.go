package render

import (
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/testdb"
)

func TestTruncate(t *testing.T) {
	if got := Truncate("H. V. Jagadish", 10); got != "H. V. Jaga…" {
		t.Errorf("Truncate = %q", got)
	}
	if got := Truncate("short", 10); got != "short" {
		t.Errorf("no-op truncate = %q", got)
	}
	if got := Truncate("ünïcödé strings", 7); got != "ünïcödé…" {
		t.Errorf("unicode truncate = %q", got)
	}
	if got := Truncate("x", 0); got != "x" {
		t.Errorf("zero max = %q", got)
	}
}

func TestRefCell(t *testing.T) {
	c := &etable.Cell{Refs: []etable.EntityRef{
		{Label: "H. V. Jagadish"}, {Label: "Adriane Chapman"}, {Label: "Aaron Elkiss"},
		{Label: "Magesh Jayapandian"}, {Label: "Yunyao Li"}, {Label: "Arnab Nandi"},
		{Label: "Cong Yu"},
	}}
	got := RefCell(c, Options{})
	if !strings.HasPrefix(got, "7· H. V. Jaga…") {
		t.Errorf("RefCell = %q", got)
	}
	if !strings.HasSuffix(got, ", …") {
		t.Errorf("RefCell should mark truncation: %q", got)
	}
	empty := &etable.Cell{}
	if RefCell(empty, Options{}) != "-" {
		t.Error("empty cell should render as -")
	}
}

func TestResultRendering(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := etable.Initiate(tr.Schema, "Papers")
	res, err := etable.Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Result(&sb, res, Options{MaxRows: 3})
	out := sb.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "[Authors]") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "(3 more rows)") {
		t.Errorf("missing truncation notice:\n%s", out)
	}
	if !strings.Contains(out, "Making database systems usable") {
		t.Errorf("missing row content:\n%s", out)
	}
}

func TestPatternRendering(t *testing.T) {
	tr, _ := testdb.Figure3Translation()
	p, _ := etable.Initiate(tr.Schema, "Conferences")
	p, _ = etable.Select(p, "acronym = 'SIGMOD'")
	p, _ = etable.Add(tr.Schema, p, "Papers→Conferences_rev")
	var sb strings.Builder
	Pattern(&sb, p)
	out := sb.String()
	if !strings.Contains(out, "* Papers") {
		t.Errorf("primary not marked:\n%s", out)
	}
	if !strings.Contains(out, "[acronym = 'SIGMOD']") {
		t.Errorf("condition missing:\n%s", out)
	}
	if !strings.Contains(out, "--Papers→Conferences_rev-->") {
		t.Errorf("edge missing:\n%s", out)
	}
}

func TestSchemaGraphRendering(t *testing.T) {
	tr, _ := testdb.Figure3Translation()
	var sb strings.Builder
	SchemaGraph(&sb, tr.Schema)
	out := sb.String()
	for _, frag := range []string{"Node types:", "Edge types:", "Papers", "label=title",
		"Institutions: country"} {
		if !strings.Contains(out, frag) {
			t.Errorf("schema graph missing %q:\n%s", frag, out)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	tr, _ := testdb.Figure3Translation()
	var sb strings.Builder
	Table1(&sb, tr)
	out := sb.String()
	for _, frag := range []string{
		"entity table", "multi-valued attribute",
		"single-valued categorical attribute", "many-to-many relationship",
		"one-to-many relationship", "Paper_Keywords",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 missing %q:\n%s", frag, out)
		}
	}
}

func TestHistoryRendering(t *testing.T) {
	var sb strings.Builder
	History(&sb, []string{"Open 'Papers' table", "Filter"}, 1)
	out := sb.String()
	if !strings.Contains(out, ">  2. Filter") || !strings.Contains(out, "   1. Open") {
		t.Errorf("history:\n%s", out)
	}
}
