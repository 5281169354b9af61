package sqlexec

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/relational"
	"repro/internal/value"
)

// miniDB builds a small academic database following the paper's Figure 3
// schema (subset): Conferences, Papers, Authors, Paper_Authors.
func miniDB(t testing.TB) *relational.DB {
	t.Helper()
	db := relational.NewDB()
	confs := db.MustCreateTable(relational.Schema{
		Name: "Conferences",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "acronym", Type: value.KindString},
		},
		PrimaryKey: []string{"id"},
	})
	papers := db.MustCreateTable(relational.Schema{
		Name: "Papers",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "conference_id", Type: value.KindInt},
			{Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "conference_id", RefTable: "Conferences", RefCol: "id"},
		},
	})
	authors := db.MustCreateTable(relational.Schema{
		Name: "Authors",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "name", Type: value.KindString},
		},
		PrimaryKey: []string{"id"},
	})
	pa := db.MustCreateTable(relational.Schema{
		Name: "Paper_Authors",
		Columns: []relational.Column{
			{Name: "paper_id", Type: value.KindInt},
			{Name: "author_id", Type: value.KindInt},
		},
		PrimaryKey: []string{"paper_id", "author_id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
			{Col: "author_id", RefTable: "Authors", RefCol: "id"},
		},
	})

	for _, c := range []struct {
		id int64
		ac string
	}{{1, "SIGMOD"}, {2, "KDD"}, {3, "CHI"}} {
		confs.InsertValues(value.Int(c.id), value.Str(c.ac))
	}
	for _, p := range []struct {
		id, conf int64
		title    string
		year     int64
	}{
		{1, 1, "Making database systems usable", 2007},
		{2, 1, "SkewTune", 2012},
		{3, 2, "Collaborative filtering", 2009},
		{4, 3, "NetLens", 2007},
		{5, 1, "DataPlay", 2012},
		{6, 2, "GraphTrail views", 2012},
	} {
		papers.InsertValues(value.Int(p.id), value.Int(p.conf), value.Str(p.title), value.Int(p.year))
	}
	for _, a := range []struct {
		id   int64
		name string
	}{
		{1, "Jagadish"}, {2, "Nandi"}, {3, "Madden"}, {4, "Koren"},
	} {
		authors.InsertValues(value.Int(a.id), value.Str(a.name))
	}
	for _, l := range [][2]int64{
		{1, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 2}, {5, 1}, {6, 3},
	} {
		pa.InsertValues(value.Int(l[0]), value.Int(l[1]))
	}
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *relational.DB, sql string) *relational.Rel {
	t.Helper()
	r, err := ExecSQL(db, sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	return r
}

func TestSimpleScanFilter(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT title FROM Papers WHERE year = 2012")
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(r.Rows))
	}
	if len(r.Cols) != 1 || r.Cols[0].Name != "title" {
		t.Errorf("cols = %v", r.Cols)
	}
}

func TestStarSelect(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT * FROM Conferences")
	if len(r.Rows) != 3 || len(r.Cols) != 2 {
		t.Errorf("shape = %dx%d", len(r.Rows), len(r.Cols))
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT Papers.title FROM Papers, Conferences
		WHERE Papers.conference_id = Conferences.id AND Conferences.acronym = 'SIGMOD'`)
	if len(r.Rows) != 3 {
		t.Errorf("SIGMOD papers = %d, want 3", len(r.Rows))
	}
}

func TestExplicitJoin(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT p.title, c.acronym FROM Papers p
		JOIN Conferences c ON p.conference_id = c.id WHERE c.acronym = 'KDD'`)
	if len(r.Rows) != 2 {
		t.Errorf("KDD papers = %d, want 2", len(r.Rows))
	}
	if r.Rows[0][1].AsString() != "KDD" {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := miniDB(t)
	// All papers written by Jagadish.
	r := mustExec(t, db, `SELECT Papers.title FROM Papers, Paper_Authors, Authors
		WHERE Papers.id = Paper_Authors.paper_id
		AND Paper_Authors.author_id = Authors.id
		AND Authors.name = 'Jagadish'`)
	if len(r.Rows) != 3 {
		t.Errorf("Jagadish papers = %d, want 3", len(r.Rows))
	}
}

func TestJoinDuplication(t *testing.T) {
	db := miniDB(t)
	// The duplication problem the paper's introduction describes: a paper
	// joined with its authors appears once per author.
	r := mustExec(t, db, `SELECT Papers.title, Authors.name
		FROM Papers, Paper_Authors, Authors
		WHERE Papers.id = Paper_Authors.paper_id
		AND Paper_Authors.author_id = Authors.id
		AND Papers.id = 1`)
	if len(r.Rows) != 2 {
		t.Errorf("paper 1 author rows = %d, want 2 (duplication)", len(r.Rows))
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT Authors.name, COUNT(*) AS n
		FROM Papers, Paper_Authors, Authors
		WHERE Papers.id = Paper_Authors.paper_id
		AND Paper_Authors.author_id = Authors.id
		GROUP BY Authors.name
		ORDER BY COUNT(*) DESC, Authors.name ASC`)
	if len(r.Rows) != 4 {
		t.Fatalf("author groups = %d", len(r.Rows))
	}
	// Jagadish has 3 papers; Madden and Nandi tie at 2 and break by name.
	if r.Rows[0][0].AsString() != "Jagadish" || r.Rows[0][1].AsInt() != 3 {
		t.Errorf("top = %v", r.Rows[0])
	}
	if r.Rows[1][0].AsString() != "Madden" || r.Rows[1][1].AsInt() != 2 {
		t.Errorf("second = %v", r.Rows[1])
	}
	if r.Rows[2][0].AsString() != "Nandi" || r.Rows[2][1].AsInt() != 2 {
		t.Errorf("third = %v", r.Rows[2])
	}
}

// TestGroupByPrimaryKeyDeterminesColumns: grouped by a table's whole
// primary key, a non-aggregated column of that table may be read — in
// the SELECT list, HAVING and ORDER BY, bare or qualified — and holds
// its group's row's value; a column of a table not grouped by its key
// is still an error.
func TestGroupByPrimaryKeyDeterminesColumns(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT Papers.title, year, COUNT(*) AS n
		FROM Papers, Paper_Authors
		WHERE Papers.id = Paper_Authors.paper_id
		GROUP BY Papers.id
		HAVING Papers.year = 2012
		ORDER BY title`)
	var got []string
	for _, row := range r.Rows {
		got = append(got, fmt.Sprintf("%s/%d/%d", row[0].AsString(), row[1].AsInt(), row[2].AsInt()))
	}
	if want := []string{"DataPlay/2012/2", "GraphTrail views/2012/1", "SkewTune/2012/1"}; !slices.Equal(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if len(r.Cols) != 3 || r.Cols[0].Name != "title" || r.Cols[1].Name != "year" {
		t.Errorf("cols = %v", r.Cols)
	}
	// Paper_Authors' key is (paper_id, author_id): paper_id alone does
	// not determine author_id, nor does Papers.id a conference's acronym.
	for _, src := range []string{
		`SELECT Paper_Authors.author_id FROM Paper_Authors GROUP BY Paper_Authors.paper_id`,
		`SELECT Conferences.acronym FROM Papers, Conferences
			WHERE Papers.conference_id = Conferences.id GROUP BY Papers.id`,
		`SELECT title FROM Papers GROUP BY year`,
	} {
		if _, err := ExecSQL(db, src); err == nil {
			t.Errorf("ExecSQL(%q) read a column its groups do not determine", src)
		}
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT conference_id, COUNT(*) AS n FROM Papers
		GROUP BY conference_id HAVING COUNT(*) >= 2`)
	if len(r.Rows) != 2 {
		t.Errorf("groups = %d, want 2", len(r.Rows))
	}
}

func TestHavingOnlyAggregate(t *testing.T) {
	db := miniDB(t)
	// MIN(year) appears only in HAVING; it must still be computed.
	r := mustExec(t, db, `SELECT conference_id FROM Papers
		GROUP BY conference_id HAVING MIN(year) = 2007`)
	if len(r.Rows) != 2 {
		t.Errorf("groups = %d, want 2 (SIGMOD and CHI)", len(r.Rows))
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT COUNT(*), MIN(year), MAX(year), AVG(year) FROM Papers")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].AsInt() != 6 || row[1].AsInt() != 2007 || row[2].AsInt() != 2012 {
		t.Errorf("aggregates = %v", row)
	}
}

func TestCountDistinct(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT COUNT(DISTINCT year) FROM Papers")
	if v, _ := relational.SingleValue(r); v.AsInt() != 3 {
		t.Errorf("distinct years = %v", v)
	}
}

func TestDistinctRows(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT DISTINCT year FROM Papers ORDER BY year")
	if len(r.Rows) != 3 || r.Rows[0][0].AsInt() != 2007 {
		t.Errorf("distinct = %v", r.Rows)
	}
}

func TestOrderByNonProjectedColumn(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT title FROM Papers ORDER BY year DESC, id ASC LIMIT 1")
	if r.Rows[0][0].AsString() != "SkewTune" {
		t.Errorf("top = %v", r.Rows[0])
	}
}

func TestOrderByAlias(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT conference_id AS c, COUNT(*) AS n FROM Papers
		GROUP BY conference_id ORDER BY n DESC LIMIT 1`)
	if r.Rows[0][0].AsInt() != 1 || r.Rows[0][1].AsInt() != 3 {
		t.Errorf("top conf = %v", r.Rows[0])
	}
}

func TestLimitOffset(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT id FROM Papers ORDER BY id LIMIT 2 OFFSET 3")
	if len(r.Rows) != 2 || r.Rows[0][0].AsInt() != 4 {
		t.Errorf("limit/offset = %v", r.Rows)
	}
}

func TestExpressionSelect(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT year + 1 AS next_year FROM Papers WHERE id = 1")
	if r.Rows[0][0].AsInt() != 2008 {
		t.Errorf("expr = %v", r.Rows[0])
	}
	if r.Cols[0].Name != "next_year" {
		t.Errorf("col name = %v", r.Cols[0])
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := miniDB(t)
	// Pairs of papers at the same conference, ordered pairs excluded.
	r := mustExec(t, db, `SELECT a.id, b.id FROM Papers a, Papers b
		WHERE a.conference_id = b.conference_id AND a.id < b.id`)
	// SIGMOD has 3 papers → 3 pairs; KDD 2 → 1 pair; CHI 1 → 0.
	if len(r.Rows) != 4 {
		t.Errorf("pairs = %d, want 4", len(r.Rows))
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, "SELECT Conferences.acronym, Authors.name FROM Conferences, Authors")
	if len(r.Rows) != 12 {
		t.Errorf("cross join = %d, want 12", len(r.Rows))
	}
}

func TestThetaJoinPredicate(t *testing.T) {
	db := miniDB(t)
	r := mustExec(t, db, `SELECT Papers.id, Conferences.id FROM Papers, Conferences
		WHERE Papers.conference_id < Conferences.id`)
	// conference_id 1 pairs with confs 2,3; 2 with 3; 3 with none.
	want := 3*2 + 2*1 + 1*1 // papers 1,2,5 (conf 1) ×2 + papers 3,6 (conf 2) ×1 + paper 4 (conf 3) ×0
	_ = want
	if len(r.Rows) != 8 {
		t.Errorf("theta rows = %d, want 8", len(r.Rows))
	}
}

func TestExecErrors(t *testing.T) {
	db := miniDB(t)
	bad := []string{
		"SELECT * FROM Nope",
		"SELECT nope FROM Papers",
		"SELECT id FROM Papers, Authors",                 // ambiguous id
		"SELECT Papers.nope FROM Papers",                 // missing column
		"SELECT * FROM Papers p, Papers p",               // duplicate alias
		"SELECT * FROM Papers WHERE nope.id = 1",         // unknown alias
		"SELECT id FROM Papers HAVING COUNT(*) > 1",      // HAVING w/o aggregate select is fine... but this has agg
		"SELECT q.* FROM Papers p",                       // star alias mismatch
		"SELECT id FROM Papers ORDER BY nope",            // unknown order key
		"SELECT COUNT(*) FROM Papers WHERE count(*) > 1", // agg in WHERE
	}
	for _, src := range bad {
		if _, err := ExecSQL(db, src); err == nil {
			t.Errorf("ExecSQL(%q) should fail", src)
		}
	}
}

// Property-style check: join order must not change results. The planner
// picks join order greedily; compare row counts across FROM permutations.
func TestJoinOrderInvariance(t *testing.T) {
	db := miniDB(t)
	queries := []string{
		`SELECT Papers.id FROM Papers, Paper_Authors, Authors
			WHERE Papers.id = Paper_Authors.paper_id AND Paper_Authors.author_id = Authors.id`,
		`SELECT Papers.id FROM Authors, Papers, Paper_Authors
			WHERE Papers.id = Paper_Authors.paper_id AND Paper_Authors.author_id = Authors.id`,
		`SELECT Papers.id FROM Paper_Authors, Authors, Papers
			WHERE Paper_Authors.author_id = Authors.id AND Papers.id = Paper_Authors.paper_id`,
	}
	var counts []int
	for _, q := range queries {
		r := mustExec(t, db, q)
		counts = append(counts, len(r.Rows))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("join order changed results: %v", counts)
	}
	if counts[0] != 8 {
		t.Errorf("join rows = %d, want 8", counts[0])
	}
}
