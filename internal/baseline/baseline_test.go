package baseline

import (
	"strings"
	"testing"

	"repro/internal/testdb"
)

func newBuilder(t testing.TB) *Builder {
	t.Helper()
	db, err := testdb.Figure3DB()
	if err != nil {
		t.Fatal(err)
	}
	return New(db)
}

func TestSimpleSelect(t *testing.T) {
	b := newBuilder(t)
	if err := b.AddTable("Papers"); err != nil {
		t.Fatal(err)
	}
	b.AddOutput("Papers.year")
	b.AddWhere("Papers.title = 'Making database systems usable'")
	sql, err := b.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SELECT Papers.year FROM Papers WHERE") {
		t.Errorf("sql = %q", sql)
	}
	rel, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || rel.Rows[0][0].AsInt() != 2007 {
		t.Errorf("result = %v", rel.Rows)
	}
}

func TestJoinQuery(t *testing.T) {
	b := newBuilder(t)
	for _, tbl := range []string{"Papers", "Conferences"} {
		if err := b.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddJoin("Papers", "conference_id", "Conferences", "id"); err != nil {
		t.Fatal(err)
	}
	b.AddOutput("Papers.title")
	b.AddWhere("Conferences.acronym = 'SIGMOD'")
	rel, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 4 {
		t.Errorf("SIGMOD papers = %d", len(rel.Rows))
	}
}

func TestGroupByOrderLimit(t *testing.T) {
	b := newBuilder(t)
	b.AddTable("Authors")
	b.AddTable("Paper_Authors")
	b.AddJoin("Authors", "id", "Paper_Authors", "author_id")
	b.AddOutput("Authors.name")
	b.AddOutput("COUNT(*) AS n")
	b.SetGroupBy("Authors.name")
	b.SetOrderBy("n", true)
	b.SetLimit(1)
	rel, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || rel.Rows[0][0].AsString() != "H. V. Jagadish" {
		t.Errorf("top author = %v", rel.Rows)
	}
	if rel.Rows[0][1].AsInt() != 3 {
		t.Errorf("count = %v", rel.Rows[0][1])
	}
}

func TestValidation(t *testing.T) {
	b := newBuilder(t)
	if err := b.AddTable("Nope"); err == nil {
		t.Error("unknown table accepted")
	}
	b.AddTable("Papers")
	if err := b.AddTable("Papers"); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := b.AddJoin("Papers", "nope", "Conferences", "id"); err == nil {
		t.Error("bad join column accepted")
	}
	if err := b.AddJoin("Nope", "id", "Papers", "id"); err == nil {
		t.Error("bad join table accepted")
	}
	empty := newBuilder(t)
	if _, err := empty.SQL(); err == nil {
		t.Error("empty canvas accepted")
	}
	if _, err := empty.Run(); err == nil {
		t.Error("empty canvas ran")
	}
}

func TestComplexity(t *testing.T) {
	b := newBuilder(t)
	b.AddTable("Papers")
	b.AddTable("Conferences")
	b.AddJoin("Papers", "conference_id", "Conferences", "id")
	b.AddOutput("COUNT(*) AS n")
	b.AddWhere("Conferences.acronym LIKE '%SIG%'")
	c := b.Complexity()
	if c.Tables != 2 || c.Joins != 1 || !c.HasAgg || !c.HasLike {
		t.Errorf("complexity = %+v", c)
	}
	plain := newBuilder(t)
	plain.AddTable("Papers")
	pc := plain.Complexity()
	if pc.HasAgg || pc.HasLike || pc.Joins != 0 {
		t.Errorf("plain complexity = %+v", pc)
	}
}

func TestDefaultStarOutput(t *testing.T) {
	b := newBuilder(t)
	b.AddTable("Conferences")
	rel, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 || len(rel.Cols) != 3 {
		t.Errorf("star shape = %dx%d", len(rel.Rows), len(rel.Cols))
	}
}
