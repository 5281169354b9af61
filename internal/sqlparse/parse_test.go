package sqlparse

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/relational"
)

func TestBasicSelect(t *testing.T) {
	s := MustParse("SELECT title, year FROM Papers WHERE year > 2005")
	if len(s.Items) != 2 || s.Items[0].Expr.(expr.Col).Name != "title" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Name != "Papers" {
		t.Errorf("from = %+v", s.From)
	}
	if s.Where == nil || s.Where.String() != "year > 2005" {
		t.Errorf("where = %v", s.Where)
	}
	if s.Limit != -1 || s.Offset != 0 || s.Distinct {
		t.Error("defaults wrong")
	}
}

func TestStarForms(t *testing.T) {
	s := MustParse("SELECT * FROM Papers")
	if !s.Items[0].Star || s.Items[0].StarTable != "" {
		t.Errorf("star = %+v", s.Items[0])
	}
	s = MustParse("SELECT p.* FROM Papers p")
	if !s.Items[0].Star || s.Items[0].StarTable != "p" {
		t.Errorf("qualified star = %+v", s.Items[0])
	}
	if s.From[0].EffectiveAlias() != "p" {
		t.Errorf("alias = %+v", s.From[0])
	}
}

func TestAliases(t *testing.T) {
	s := MustParse("SELECT title AS t, year y FROM Papers AS p, Authors a")
	if s.Items[0].Alias != "t" || s.Items[1].Alias != "y" {
		t.Errorf("item aliases = %+v", s.Items)
	}
	if s.From[0].Alias != "p" || s.From[1].Alias != "a" {
		t.Errorf("table aliases = %+v", s.From)
	}
	if s.From[0].EffectiveAlias() != "p" {
		t.Error("EffectiveAlias")
	}
	if (TableRef{Name: "X"}).EffectiveAlias() != "X" {
		t.Error("EffectiveAlias fallback")
	}
}

func TestExplicitJoin(t *testing.T) {
	s := MustParse(`SELECT * FROM Papers p
		JOIN Conferences c ON p.conference_id = c.id
		INNER JOIN Paper_Authors pa ON pa.paper_id = p.id
		WHERE c.acronym = 'SIGMOD'`)
	if len(s.Joins) != 2 {
		t.Fatalf("joins = %d", len(s.Joins))
	}
	if s.Joins[0].Table.Alias != "c" || s.Joins[0].On.String() != "p.conference_id = c.id" {
		t.Errorf("join 0 = %+v", s.Joins[0])
	}
}

func TestAggregates(t *testing.T) {
	s := MustParse(`SELECT name, COUNT(*) AS n, SUM(year), COUNT(DISTINCT title)
		FROM Papers GROUP BY name`)
	if s.Items[1].Agg == nil || s.Items[1].Agg.Func != relational.AggCount || s.Items[1].Agg.Arg != nil {
		t.Errorf("count(*) = %+v", s.Items[1])
	}
	if s.Items[1].Alias != "n" {
		t.Error("agg alias")
	}
	if s.Items[2].Agg == nil || s.Items[2].Agg.Func != relational.AggSum {
		t.Errorf("sum = %+v", s.Items[2])
	}
	if s.Items[3].Agg == nil || s.Items[3].Agg.Func != relational.AggCountDistinct {
		t.Errorf("count distinct = %+v", s.Items[3])
	}
	aggs := s.Aggregates()
	if len(aggs) != 3 {
		t.Errorf("Aggregates() = %d", len(aggs))
	}
	if !s.HasAggregates() {
		t.Error("HasAggregates")
	}
	if aggs[0].Name() != "count(*)" || aggs[1].Name() != "sum(year)" ||
		aggs[2].Name() != "count(distinct title)" {
		t.Errorf("canonical names = %v, %v, %v", aggs[0].Name(), aggs[1].Name(), aggs[2].Name())
	}
}

func TestHavingRewrite(t *testing.T) {
	s := MustParse(`SELECT conference_id, COUNT(*) FROM Papers
		GROUP BY conference_id HAVING COUNT(*) > 2 AND MIN(year) >= 2000`)
	if s.Having == nil {
		t.Fatal("no having")
	}
	if got := s.Having.String(); got != "(count(*) > 2 AND min(year) >= 2000)" {
		t.Errorf("having = %q", got)
	}
	if len(s.HavingAggs) != 2 {
		t.Errorf("HavingAggs = %+v", s.HavingAggs)
	}
	// min(year) appears only in HAVING, but must be in Aggregates().
	if len(s.Aggregates()) != 2 {
		t.Errorf("Aggregates = %+v", s.Aggregates())
	}
}

func TestOrderLimitOffset(t *testing.T) {
	s := MustParse(`SELECT name, COUNT(*) FROM Authors GROUP BY name
		ORDER BY COUNT(*) DESC, name ASC LIMIT 3 OFFSET 1`)
	if len(s.OrderBy) != 2 {
		t.Fatalf("order by = %d", len(s.OrderBy))
	}
	if s.OrderBy[0].Agg == nil || !s.OrderBy[0].Desc {
		t.Errorf("order 0 = %+v", s.OrderBy[0])
	}
	if s.OrderBy[1].Agg != nil || s.OrderBy[1].Desc {
		t.Errorf("order 1 = %+v", s.OrderBy[1])
	}
	if s.Limit != 3 || s.Offset != 1 {
		t.Errorf("limit/offset = %d/%d", s.Limit, s.Offset)
	}
}

func TestDistinct(t *testing.T) {
	s := MustParse("SELECT DISTINCT keyword FROM Paper_Keywords")
	if !s.Distinct {
		t.Error("distinct not parsed")
	}
}

func TestGroupByMultiple(t *testing.T) {
	s := MustParse("SELECT a, b FROM T GROUP BY a, b")
	if len(s.GroupBy) != 2 {
		t.Errorf("group by = %d", len(s.GroupBy))
	}
}

func TestSemicolonAndCase(t *testing.T) {
	s := MustParse("select title from Papers where year = 2007;")
	if s.Where == nil {
		t.Error("lowercase keywords should parse")
	}
}

func TestMinMaxAvg(t *testing.T) {
	s := MustParse("SELECT MIN(year), MAX(year), AVG(year) FROM Papers")
	if s.Items[0].Agg.Func != relational.AggMin || s.Items[1].Agg.Func != relational.AggMax || s.Items[2].Agg.Func != relational.AggAvg {
		t.Error("min/max/avg")
	}
	if s.Items[0].Agg.Func.String() != "MIN" || relational.AggCount.String() != "COUNT" {
		t.Error("AggFunc.String")
	}
}

func TestCountIdentAsColumn(t *testing.T) {
	// "count" not followed by '(' is an ordinary column name.
	s := MustParse("SELECT count FROM T WHERE count > 3")
	if s.Items[0].Agg != nil {
		t.Error("bare count should not be an aggregate")
	}
	if c, ok := s.Items[0].Expr.(expr.Col); !ok || c.Name != "count" {
		t.Errorf("item = %+v", s.Items[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T GROUP",
		"SELECT * FROM T ORDER year",
		"SELECT * FROM T LIMIT x",
		"SELECT * FROM T JOIN",
		"SELECT * FROM T JOIN U",
		"SELECT * FROM T INNER U ON a = b",
		"SELECT SUM(*) FROM T",
		"SELECT SUM(DISTINCT x) FROM T",
		"SELECT COUNT(x FROM T",
		"UPDATE T SET x = 1",
		"SELECT * FROM T )",
		"SELECT a AS FROM T",
		"SELECT * FROM T AS",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestWhereKeywordsTerminateExpr(t *testing.T) {
	s := MustParse("SELECT a FROM T WHERE a = 1 ORDER BY a")
	if s.Where.String() != "a = 1" || len(s.OrderBy) != 1 {
		t.Errorf("where = %v order = %v", s.Where, s.OrderBy)
	}
}
