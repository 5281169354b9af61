package relational

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

func testSchema() Schema {
	return Schema{
		Name: "Papers",
		Columns: []Column{
			{Name: "id", Type: value.KindInt},
			{Name: "conference_id", Type: value.KindInt},
			{Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Col: "conference_id", RefTable: "Conferences", RefCol: "id"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{},
		{Name: "T"},
		{Name: "T", Columns: []Column{{Name: "a"}, {Name: "a"}}},
		{Name: "T", Columns: []Column{{Name: ""}}},
		{Name: "T", Columns: []Column{{Name: "a"}}, PrimaryKey: []string{"b"}},
		{Name: "T", Columns: []Column{{Name: "a"}},
			ForeignKeys: []ForeignKey{{Col: "z", RefTable: "X", RefCol: "id"}}},
		{Name: "T", Columns: []Column{{Name: "a"}},
			ForeignKeys: []ForeignKey{{Col: "a"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("title") != 2 || s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex")
	}
	if !s.HasColumn("year") || s.HasColumn("nope") {
		t.Error("HasColumn")
	}
	if !s.InPrimaryKey("id") || s.InPrimaryKey("year") {
		t.Error("InPrimaryKey")
	}
	if fk, ok := s.IsForeignKey("conference_id"); !ok || fk.RefTable != "Conferences" {
		t.Error("IsForeignKey")
	}
	if _, ok := s.IsForeignKey("title"); ok {
		t.Error("title is not a FK")
	}
}

func newPapers(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{value.Int(1), value.Int(1), value.Str("Making database systems usable"), value.Int(2007)},
		{value.Int(2), value.Int(1), value.Str("SkewTune"), value.Int(2012)},
		{value.Int(3), value.Int(2), value.Str("NetLens"), value.Int(2007)},
		{value.Int(4), value.Int(2), value.Str("GraphTrail"), value.Int(2012)},
		{value.Int(5), value.Int(1), value.Str("DataPlay"), value.Int(2012)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestInsertAndPK(t *testing.T) {
	tbl := newPapers(t)
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if _, err := tbl.Insert(Row{value.Int(1), value.Int(1), value.Str("dup"), value.Int(2000)}); err == nil {
		t.Error("duplicate PK accepted")
	}
	if _, err := tbl.Insert(Row{value.Int(9)}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestCoerce(t *testing.T) {
	tbl, _ := NewTable(Schema{Name: "T", Columns: []Column{
		{Name: "f", Type: value.KindFloat},
		{Name: "i", Type: value.KindInt},
	}})
	if _, err := tbl.Insert(Row{value.Int(3), value.Float(4)}); err != nil {
		t.Fatal(err)
	}
	r := tbl.Rows()[0]
	if r[0].Kind() != value.KindFloat || r[1].Kind() != value.KindInt {
		t.Errorf("coercion failed: %v %v", r[0].Kind(), r[1].Kind())
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	db.MustCreateTable(testSchema())
	if _, err := db.CreateTable(testSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Table("Papers"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("Nope"); err == nil {
		t.Error("missing table should error")
	}
	if !db.HasTable("Papers") || db.HasTable("Nope") {
		t.Error("HasTable")
	}
	db.MustCreateTable(Schema{Name: "A", Columns: []Column{{Name: "x"}}})
	names := db.TableNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "Papers" {
		t.Errorf("TableNames = %v", names)
	}
	stats := db.Stats()
	if stats["Papers"] != 0 {
		t.Errorf("Stats = %v", stats)
	}
}

func TestCheckForeignKeys(t *testing.T) {
	db := NewDB()
	confs := db.MustCreateTable(Schema{
		Name:       "Conferences",
		Columns:    []Column{{Name: "id", Type: value.KindInt}, {Name: "acronym", Type: value.KindString}},
		PrimaryKey: []string{"id"},
	})
	confs.InsertValues(value.Int(1), value.Str("SIGMOD"))
	confs.InsertValues(value.Int(2), value.Str("CHI"))
	papers := db.MustCreateTable(testSchema())
	papers.InsertValues(value.Int(1), value.Int(1), value.Str("p1"), value.Int(2007))
	papers.InsertValues(value.Int(2), value.Null, value.Str("p2"), value.Int(2008))
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatalf("valid FKs rejected: %v", err)
	}
	papers.InsertValues(value.Int(3), value.Int(99), value.Str("orphan"), value.Int(2009))
	if err := db.CheckForeignKeys(); err == nil {
		t.Error("dangling FK accepted")
	}
}

func relOf(t *testing.T) *Rel {
	t.Helper()
	return newPapers(t).Rel()
}

func TestSelect(t *testing.T) {
	r := relOf(t)
	out, err := Select(r, expr.MustParse("year = 2012"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Errorf("select rows = %d", len(out.Rows))
	}
	same, err := Select(r, nil)
	if err != nil || same != r {
		t.Error("nil condition should return input")
	}
	if _, err := Select(r, expr.MustParse("nope = 1")); err == nil {
		t.Error("unknown column should error")
	}
}

func TestEquiJoin(t *testing.T) {
	db := NewDB()
	confs := db.MustCreateTable(Schema{
		Name:       "Conferences",
		Columns:    []Column{{Name: "id", Type: value.KindInt}, {Name: "acronym", Type: value.KindString}},
		PrimaryKey: []string{"id"},
	})
	confs.InsertValues(value.Int(1), value.Str("SIGMOD"))
	confs.InsertValues(value.Int(2), value.Str("CHI"))
	confs.InsertValues(value.Int(3), value.Str("KDD")) // no papers
	papers := newPapers(t)

	j, err := EquiJoin(papers.Rel(), confs.Rel(), "conference_id", "Conferences.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Rows) != 5 {
		t.Errorf("join rows = %d, want 5", len(j.Rows))
	}
	if len(j.Cols) != 6 {
		t.Errorf("join cols = %d, want 6", len(j.Cols))
	}
	// Filter joined result on the conference acronym.
	f, err := Select(j, expr.MustParse("acronym = 'SIGMOD'"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 3 {
		t.Errorf("SIGMOD papers = %d, want 3", len(f.Rows))
	}
	// Join in the other direction produces the same number of rows.
	j2, err := EquiJoin(confs.Rel(), papers.Rel(), "id", "conference_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Rows) != len(j.Rows) {
		t.Errorf("join direction changed cardinality: %d vs %d", len(j2.Rows), len(j.Rows))
	}
	if _, err := EquiJoin(papers.Rel(), confs.Rel(), "nope", "id"); err == nil {
		t.Error("bad left column accepted")
	}
	if _, err := EquiJoin(papers.Rel(), confs.Rel(), "id", "nope"); err == nil {
		t.Error("bad right column accepted")
	}
}

func TestJoinSkipsNulls(t *testing.T) {
	l := &Rel{Cols: []ColRef{{Name: "k"}}, Rows: []Row{{value.Null}, {value.Int(1)}}}
	r := &Rel{Cols: []ColRef{{Name: "k2"}}, Rows: []Row{{value.Null}, {value.Int(1)}}}
	j, err := EquiJoin(l, r, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Rows) != 1 {
		t.Errorf("NULL keys must not join: rows = %d", len(j.Rows))
	}
}

func TestThetaAndCrossJoin(t *testing.T) {
	a := &Rel{Cols: []ColRef{{Name: "x"}}, Rows: []Row{{value.Int(1)}, {value.Int(2)}}}
	b := &Rel{Cols: []ColRef{{Name: "y"}}, Rows: []Row{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}}}
	cross := CrossJoin(a, b)
	if len(cross.Rows) != 6 {
		t.Errorf("cross join = %d rows", len(cross.Rows))
	}
	lt, err := ThetaJoin(a, b, expr.MustParse("x < y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Rows) != 3 { // (1,2) (1,3) (2,3)
		t.Errorf("theta join = %d rows, want 3", len(lt.Rows))
	}
}

func TestSortAndLimit(t *testing.T) {
	s := relOf(t)
	top2 := Limit(s, 0, 2)
	if len(top2.Rows) != 2 {
		t.Error("limit")
	}
	if got := Limit(s, 4, 10); len(got.Rows) != 1 {
		t.Errorf("offset limit = %d", len(got.Rows))
	}
	if got := Limit(s, 99, 1); len(got.Rows) != 0 {
		t.Error("past-end limit should be empty")
	}
	if got := Limit(s, -5, -1); len(got.Rows) != 5 {
		t.Error("negative offset/limit should pass through")
	}
}

func TestGroupBy(t *testing.T) {
	r := relOf(t)
	out, err := GroupBy(r,
		[]expr.Expr{expr.Col{Name: "year"}}, []string{"year"},
		[]Aggregate{
			{Func: AggCount, As: "n"},
			{Func: AggMin, Arg: expr.Col{Name: "title"}, As: "first_title"},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("groups = %d", len(out.Rows))
	}
	byYear := map[int64]Row{}
	for _, row := range out.Rows {
		byYear[row[0].AsInt()] = row
	}
	if byYear[2007][1].AsInt() != 2 || byYear[2012][1].AsInt() != 3 {
		t.Errorf("counts wrong: %v", byYear)
	}
	if byYear[2007][2].AsString() != "Making database systems usable" {
		t.Errorf("min title = %v", byYear[2007][2])
	}
}

func TestGlobalAggregates(t *testing.T) {
	r := relOf(t)
	out, err := GroupBy(r, nil, nil, []Aggregate{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Arg: expr.Col{Name: "year"}, As: "sum_year"},
		{Func: AggAvg, Arg: expr.Col{Name: "year"}, As: "avg_year"},
		{Func: AggMin, Arg: expr.Col{Name: "year"}, As: "min_year"},
		{Func: AggMax, Arg: expr.Col{Name: "year"}, As: "max_year"},
		{Func: AggCountDistinct, Arg: expr.Col{Name: "year"}, As: "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("global aggregate rows = %d", len(out.Rows))
	}
	row := out.Rows[0]
	if row[0].AsInt() != 5 || row[1].AsInt() != 2007+2012*3+2007 ||
		row[3].AsInt() != 2007 || row[4].AsInt() != 2012 || row[5].AsInt() != 2 {
		t.Errorf("aggregates = %v", row)
	}
	wantAvg := float64(2007+2012*3+2007) / 5
	if row[2].AsFloat() != wantAvg {
		t.Errorf("avg = %v, want %v", row[2], wantAvg)
	}
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	empty := &Rel{Cols: []ColRef{{Name: "x"}}}
	out, err := GroupBy(empty, nil, nil, []Aggregate{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Arg: expr.Col{Name: "x"}, As: "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].AsInt() != 0 || !out.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", out.Rows)
	}
	// Grouped aggregate over empty input yields zero rows.
	out2, err := GroupBy(empty, []expr.Expr{expr.Col{Name: "x"}}, []string{"x"},
		[]Aggregate{{Func: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Rows) != 0 {
		t.Errorf("grouped empty = %v", out2.Rows)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	r := &Rel{
		Cols: []ColRef{{Name: "x"}},
		Rows: []Row{{value.Int(1)}, {value.Null}, {value.Int(3)}},
	}
	out, err := GroupBy(r, nil, nil, []Aggregate{
		{Func: AggCount, As: "star"},                          // COUNT(*) = 3
		{Func: AggCount, Arg: expr.Col{Name: "x"}, As: "cnt"}, // COUNT(x) = 2
		{Func: AggAvg, Arg: expr.Col{Name: "x"}, As: "avg"},   // AVG = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	row := out.Rows[0]
	if row[0].AsInt() != 3 || row[1].AsInt() != 2 || row[2].AsFloat() != 2 {
		t.Errorf("null handling = %v", row)
	}
}

func TestColIndexResolution(t *testing.T) {
	r := &Rel{Cols: []ColRef{
		{Table: "a", Name: "id"}, {Table: "b", Name: "id"}, {Table: "a", Name: "x"},
	}}
	if got := r.ColIndex("a.id"); got != 0 {
		t.Errorf("a.id = %d", got)
	}
	if got := r.ColIndex("b.id"); got != 1 {
		t.Errorf("b.id = %d", got)
	}
	if got := r.ColIndex("id"); got != -2 {
		t.Errorf("bare ambiguous id = %d, want -2", got)
	}
	if got := r.ColIndex("x"); got != 2 {
		t.Errorf("x = %d", got)
	}
	if got := r.ColIndex("nope"); got != -1 {
		t.Errorf("nope = %d", got)
	}
}

func TestRename(t *testing.T) {
	r := relOf(t)
	out := Rename(r, "p")
	if out.Cols[0].Table != "p" {
		t.Errorf("Rename = %v", out.Cols[0])
	}
	if got := out.ColIndex("p.year"); got != 3 {
		t.Errorf("p.year = %d", got)
	}
}

func TestSingleValue(t *testing.T) {
	r := &Rel{Cols: []ColRef{{Name: "n"}}, Rows: []Row{{value.Int(7)}}}
	v, err := SingleValue(r)
	if err != nil || v.AsInt() != 7 {
		t.Errorf("SingleValue = %v, %v", v, err)
	}
	if _, err := SingleValue(relOf(t)); err == nil {
		t.Error("non-1x1 should error")
	}
}
