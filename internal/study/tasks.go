// Package study reproduces the paper's evaluation (§7): the six
// database querying tasks of Table 2, executed for real in both
// conditions (ETable sessions vs. the Navicat-style graphical query
// builder), with task completion times simulated through the
// keystroke-level model and an SQL error/retry model (package klm states
// the substitution). Its outputs regenerate Figure 10,
// Table 2's correctness, Table 3's ratings, and the §7.2 preference
// comparison.
package study

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/etable"
	"repro/internal/klm"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/translate"
	"repro/internal/value"
)

// Category classifies tasks as in Table 2.
type Category string

// Task categories.
const (
	CatAttribute Category = "Attribute"
	CatFilter    Category = "Filter"
	CatAggregate Category = "Aggregate"
)

// Params are the concrete values a task set plugs into the six task
// templates. Two matched sets (§7.1) differ only in these.
type Params struct {
	// Task 1: find the year of this paper.
	Paper1 string
	// Task 2: find the keywords of this paper.
	Paper2 string
	// Task 3: papers by this author from this year on.
	Author  string
	MinYear int
	// Task 4: papers by researchers at this institution at this conference.
	Institution string
	Conference  string
	// Task 5: institution in this country with most researchers.
	Country string
	// Task 6: top-3 researchers by papers at this conference.
	Conference2 string
}

// Task is one runnable study task.
type Task struct {
	ID       int
	Name     string
	Category Category
	// Relations is the number of relations a SQL solution joins
	// (Table 2's #Relations column).
	Relations int
	// RunETable executes the task in the ETable condition, returning the
	// answer and the KLM action script.
	RunETable func(s *session.Session) ([]string, klm.Script, error)
	// RunBaseline executes the task in the query-builder condition.
	RunBaseline func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error)
}

// sortedCopy returns answers in canonical order for comparison.
func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// AnswersEqual compares two task answers order-insensitively.
func AnswersEqual(a, b []string) bool {
	as, bs := sortedCopy(a), sortedCopy(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ChooseParams selects task parameters from the generated data such that
// every task has a non-empty answer. alt selects the second matched set.
func ChooseParams(tr *translate.Result, db *relational.DB, alt bool) (Params, error) {
	var p Params
	g := tr.Instance

	// Papers with at least 2 keywords and 2 authors, for tasks 1-2.
	var papersWithKw []string
	for _, id := range g.NodesOfType("Papers") {
		kwEdge := "Papers→Paper_Keywords: keyword"
		auEdge := "Paper_Authors"
		if g.Degree(id, kwEdge) >= 2 && g.Degree(id, auEdge) >= 1 {
			papersWithKw = append(papersWithKw, g.Node(id).Label())
		}
		if len(papersWithKw) >= 8 {
			break
		}
	}
	if len(papersWithKw) < 4 {
		return p, fmt.Errorf("study: not enough papers with keywords")
	}
	idx := 0
	if alt {
		idx = 2
	}
	p.Paper1, p.Paper2 = papersWithKw[idx], papersWithKw[idx+1]

	// Author with >= 2 papers spanning years, for task 3.
	type authorInfo struct {
		name    string
		minYear int
	}
	var candidates []authorInfo
	for _, id := range g.NodesOfType("Authors") {
		papers := g.Neighbors(id, "Paper_Authors_rev")
		if len(papers) < 3 {
			continue
		}
		years := make([]int, 0, len(papers))
		for _, pid := range papers {
			years = append(years, int(g.Node(pid).Attr("year").AsInt()))
		}
		sort.Ints(years)
		mid := years[len(years)/2]
		if mid > years[0] {
			candidates = append(candidates, authorInfo{name: g.Node(id).Label(), minYear: mid})
		}
		if len(candidates) >= 6 {
			break
		}
	}
	if len(candidates) < 2 {
		return p, fmt.Errorf("study: not enough prolific authors")
	}
	ai := 0
	if alt {
		ai = 1
	}
	p.Author, p.MinYear = candidates[ai].name, candidates[ai].minYear

	// Institution + conference pair with at least one paper, for task 4.
	found := false
	skip := 0
	if alt {
		skip = 1
	}
	for _, iid := range g.NodesOfType("Institutions") {
		authors := g.Neighbors(iid, "Authors→Institutions_rev")
		if len(authors) < 2 {
			continue
		}
		confCount := map[string]int{}
		for _, aid := range authors {
			for _, pid := range g.Neighbors(aid, "Paper_Authors_rev") {
				for _, cid := range g.Neighbors(pid, "Papers→Conferences") {
					confCount[g.Node(cid).Label()]++
				}
			}
		}
		best, bestN := "", 0
		for c, n := range confCount {
			// Deterministic tie-break by name: map iteration order varies.
			if n > bestN || n == bestN && (best == "" || c < best) {
				best, bestN = c, n
			}
		}
		if bestN >= 2 {
			if skip > 0 {
				skip--
				continue
			}
			p.Institution = g.Node(iid).Label()
			p.Conference = best
			found = true
			break
		}
	}
	if !found {
		return p, fmt.Errorf("study: no institution/conference pair with papers")
	}

	// Country for task 5 (the paper uses South Korea).
	p.Country = "South Korea"
	if alt {
		p.Country = "Germany"
	}
	if _, ok := g.FindNode("Institutions: country", "country", value.Str(p.Country)); !ok {
		p.Country = "USA"
	}

	// Conference for task 6 (the paper uses SIGMOD).
	p.Conference2 = "SIGMOD"
	if alt {
		p.Conference2 = "KDD"
	}
	return p, nil
}

// escape doubles single quotes for condition literals.
func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// Tasks instantiates the six Table 2 tasks for the given parameters.
func Tasks(p Params) []Task {
	return []Task{
		{
			ID:        1,
			Name:      fmt.Sprintf("Find the year that the paper titled '%s' was published in.", p.Paper1),
			Category:  CatAttribute,
			Relations: 1,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Papers")
				if err := s.Open("Papers"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("title = '%s'", escape(p.Paper1))
				sc = sc.Click("open filter window").Type(cond, "filter condition").Click("apply filter")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond); err != nil {
					return nil, sc, err
				}
				sc = sc.Add(klm.M, 1, "read year")
				v, err := s.LookupValue(p.Paper1, "year")
				if err != nil {
					return nil, sc, err
				}
				return []string{v.Format()}, sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				sc = sc.Click("drag Papers onto canvas")
				if err := b.AddTable("Papers"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				sc = sc.Click("tick year output")
				b.AddOutput("Papers.year")
				pred := fmt.Sprintf("Papers.title = '%s'", escape(p.Paper1))
				sc = sc.Click("criteria cell").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Click("run").AddResponse(0.6, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 1, "read result")
				return relStrings(rel, 0), sc, b.Complexity(), nil
			},
		},
		{
			ID:        2,
			Name:      fmt.Sprintf("Find all the keywords of the paper titled '%s'.", p.Paper2),
			Category:  CatAttribute,
			Relations: 2,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Papers")
				if err := s.Open("Papers"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("title = '%s'", escape(p.Paper2))
				sc = sc.Click("open filter window").Type(cond, "filter condition").Click("apply filter")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond); err != nil {
					return nil, sc, err
				}
				res, err := s.Result()
				if err != nil || res.NumRows() == 0 {
					return nil, sc, fmt.Errorf("study: paper %q not found: %v", p.Paper2, err)
				}
				// Click the keyword count: Seeall.
				kwCol := keywordColumn(res)
				if kwCol == "" {
					return nil, sc, fmt.Errorf("study: no keyword column")
				}
				sc = sc.Click("click keyword count").AddResponse(0.4, "query")
				if err := s.Seeall(res.Rows[0].Node, kwCol); err != nil {
					return nil, sc, err
				}
				out, err := s.Result()
				if err != nil {
					return nil, sc, err
				}
				sc = sc.Add(klm.M, 1, "read keywords")
				return rowLabels(out), sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				sc = sc.Click("drag Papers").Click("drag Paper_Keywords")
				if err := b.AddTable("Papers"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				if err := b.AddTable("Paper_Keywords"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				sc = sc.Add(klm.M, 2, "find join columns").Click("draw join line")
				if err := b.AddJoin("Papers", "id", "Paper_Keywords", "paper_id"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				b.AddOutput("Paper_Keywords.keyword")
				sc = sc.Click("tick keyword output")
				pred := fmt.Sprintf("Papers.title = '%s'", escape(p.Paper2))
				sc = sc.Click("criteria cell").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Click("run").AddResponse(0.6, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 2, "interpret duplicated rows")
				return relStrings(rel, 0), sc, b.Complexity(), nil
			},
		},
		{
			ID: 3,
			Name: fmt.Sprintf("Find all the papers that were written by '%s' and published in %d or after.",
				p.Author, p.MinYear),
			Category:  CatFilter,
			Relations: 3,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Papers")
				if err := s.Open("Papers"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("name = '%s'", escape(p.Author))
				sc = sc.Click("open Authors filter").Type(cond, "author filter").Click("apply")
				sc = sc.AddResponse(0.5, "query")
				if err := s.FilterByNeighbor("Authors", cond); err != nil {
					return nil, sc, err
				}
				cond2 := fmt.Sprintf("year >= %d", p.MinYear)
				sc = sc.Click("open year filter").Type(cond2, "year filter").Click("apply")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond2); err != nil {
					return nil, sc, err
				}
				out, err := s.Result()
				if err != nil {
					return nil, sc, err
				}
				sc = sc.Add(klm.M, 1, "read titles")
				return rowLabels(out), sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				for _, t := range []string{"Papers", "Paper_Authors", "Authors"} {
					sc = sc.Click("drag " + t)
					if err := b.AddTable(t); err != nil {
						return nil, sc, baseline.Complexity{}, err
					}
				}
				sc = sc.Add(klm.M, 3, "find join columns").Click("join 1").Click("join 2")
				if err := b.AddJoin("Papers", "id", "Paper_Authors", "paper_id"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				if err := b.AddJoin("Paper_Authors", "author_id", "Authors", "id"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				b.AddOutput("Papers.title")
				sc = sc.Click("tick title output")
				pred := fmt.Sprintf("Authors.name = '%s' AND Papers.year >= %d", escape(p.Author), p.MinYear)
				sc = sc.Click("criteria").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Click("run").AddResponse(0.7, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 2, "interpret results")
				return relStrings(rel, 0), sc, b.Complexity(), nil
			},
		},
		{
			ID: 4,
			Name: fmt.Sprintf("Find all the papers written by researchers at '%s' and published at the %s conference.",
				p.Institution, p.Conference),
			Category:  CatFilter,
			Relations: 5,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Institutions")
				if err := s.Open("Institutions"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("name = '%s'", escape(p.Institution))
				sc = sc.Click("open filter").Type(cond, "institution filter").Click("apply")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("pivot to Authors").AddResponse(0.5, "query")
				if err := s.Pivot("Authors"); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("pivot to Papers").AddResponse(0.5, "query")
				if err := s.Pivot("Papers"); err != nil {
					return nil, sc, err
				}
				cond2 := fmt.Sprintf("acronym = '%s'", escape(p.Conference))
				sc = sc.Click("open Conferences filter").Type(cond2, "conference filter").Click("apply")
				sc = sc.AddResponse(0.5, "query")
				if err := s.FilterByNeighbor("Conferences", cond2); err != nil {
					return nil, sc, err
				}
				out, err := s.Result()
				if err != nil {
					return nil, sc, err
				}
				sc = sc.Add(klm.M, 2, "read titles")
				return rowLabels(out), sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				tables := []string{"Papers", "Paper_Authors", "Authors", "Institutions", "Conferences"}
				for _, t := range tables {
					sc = sc.Click("drag " + t)
					if err := b.AddTable(t); err != nil {
						return nil, sc, baseline.Complexity{}, err
					}
				}
				sc = sc.Add(klm.M, 5, "work out join graph")
				joins := [][4]string{
					{"Papers", "id", "Paper_Authors", "paper_id"},
					{"Paper_Authors", "author_id", "Authors", "id"},
					{"Authors", "institution_id", "Institutions", "id"},
					{"Papers", "conference_id", "Conferences", "id"},
				}
				for _, j := range joins {
					sc = sc.Click("draw join")
					if err := b.AddJoin(j[0], j[1], j[2], j[3]); err != nil {
						return nil, sc, baseline.Complexity{}, err
					}
				}
				b.AddOutput("Papers.title")
				sc = sc.Click("tick title output")
				pred := fmt.Sprintf("Institutions.name = '%s' AND Conferences.acronym = '%s'",
					escape(p.Institution), escape(p.Conference))
				sc = sc.Click("criteria").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Click("run").AddResponse(1.0, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 3, "interpret duplicated results")
				return dedup(relStrings(rel, 0)), sc, b.Complexity(), nil
			},
		},
		{
			ID:        5,
			Name:      fmt.Sprintf("Which institution in %s has the largest number of researchers?", p.Country),
			Category:  CatAggregate,
			Relations: 2,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Institutions")
				if err := s.Open("Institutions"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("country like '%%%s%%'", escape(p.Country))
				sc = sc.Click("open filter").Type(cond, "country filter").Click("apply")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("sort by # Authors desc").AddResponse(0.3, "sort")
				if err := s.SortBy(etable.SortSpec{Column: "Authors", Desc: true}); err != nil {
					return nil, sc, err
				}
				out, err := s.Result()
				if err != nil {
					return nil, sc, err
				}
				if out.NumRows() == 0 {
					return nil, sc, fmt.Errorf("study: no institutions in %q", p.Country)
				}
				sc = sc.Add(klm.M, 1, "read top row")
				return []string{out.Rows[0].Label}, sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				sc = sc.Click("drag Institutions").Click("drag Authors")
				if err := b.AddTable("Institutions"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				if err := b.AddTable("Authors"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				sc = sc.Add(klm.M, 2, "find join columns").Click("draw join")
				if err := b.AddJoin("Authors", "institution_id", "Institutions", "id"); err != nil {
					return nil, sc, baseline.Complexity{}, err
				}
				b.AddOutput("Institutions.name")
				b.AddOutput("COUNT(*) AS n")
				sc = sc.Click("tick name output").Click("type COUNT aggregate").Type("COUNT(*)", "aggregate")
				pred := fmt.Sprintf("Institutions.country LIKE '%%%s%%'", escape(p.Country))
				sc = sc.Click("criteria").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Add(klm.M, 2, "remember GROUP BY").Type("GROUP BY Institutions.name", "group by")
				b.SetGroupBy("Institutions.name")
				b.SetOrderBy("n", true)
				sc = sc.Type("ORDER BY n DESC", "order by")
				b.SetLimit(1)
				sc = sc.Click("run").AddResponse(0.8, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 2, "read top group")
				return relStrings(rel, 0), sc, b.Complexity(), nil
			},
		},
		{
			ID: 6,
			Name: fmt.Sprintf("Find the top 3 researchers who have published the most papers in the %s conference.",
				p.Conference2),
			Category:  CatAggregate,
			Relations: 4,
			RunETable: func(s *session.Session) ([]string, klm.Script, error) {
				var sc klm.Script
				sc = sc.Click("open Conferences")
				if err := s.Open("Conferences"); err != nil {
					return nil, sc, err
				}
				cond := fmt.Sprintf("acronym = '%s'", escape(p.Conference2))
				sc = sc.Click("open filter").Type(cond, "conference filter").Click("apply")
				sc = sc.AddResponse(0.4, "query")
				if err := s.Filter(cond); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("pivot to Papers").AddResponse(0.6, "query")
				if err := s.Pivot("Papers"); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("pivot to Authors").AddResponse(0.6, "query")
				if err := s.Pivot("Authors"); err != nil {
					return nil, sc, err
				}
				sc = sc.Click("sort by # Papers desc").AddResponse(0.3, "sort")
				if err := s.SortBy(etable.SortSpec{Column: "Papers", Desc: true}); err != nil {
					return nil, sc, err
				}
				out, err := s.Result()
				if err != nil {
					return nil, sc, err
				}
				if out.NumRows() < 3 {
					return nil, sc, fmt.Errorf("study: fewer than 3 authors at %q", p.Conference2)
				}
				sc = sc.Add(klm.M, 1, "read top 3")
				return []string{out.Rows[0].Label, out.Rows[1].Label, out.Rows[2].Label}, sc, nil
			},
			RunBaseline: func(b *baseline.Builder) ([]string, klm.Script, baseline.Complexity, error) {
				var sc klm.Script
				tables := []string{"Authors", "Paper_Authors", "Papers", "Conferences"}
				for _, t := range tables {
					sc = sc.Click("drag " + t)
					if err := b.AddTable(t); err != nil {
						return nil, sc, baseline.Complexity{}, err
					}
				}
				sc = sc.Add(klm.M, 4, "work out join graph")
				joins := [][4]string{
					{"Authors", "id", "Paper_Authors", "author_id"},
					{"Paper_Authors", "paper_id", "Papers", "id"},
					{"Papers", "conference_id", "Conferences", "id"},
				}
				for _, j := range joins {
					sc = sc.Click("draw join")
					if err := b.AddJoin(j[0], j[1], j[2], j[3]); err != nil {
						return nil, sc, baseline.Complexity{}, err
					}
				}
				b.AddOutput("Authors.name")
				b.AddOutput("COUNT(*) AS n")
				sc = sc.Click("tick name output").Type("COUNT(*)", "aggregate")
				pred := fmt.Sprintf("Conferences.acronym = '%s'", escape(p.Conference2))
				sc = sc.Click("criteria").Type(pred, "where")
				b.AddWhere(pred)
				sc = sc.Add(klm.M, 2, "remember GROUP BY").Type("GROUP BY Authors.name", "group by")
				b.SetGroupBy("Authors.name")
				b.SetOrderBy("n", true)
				sc = sc.Type("ORDER BY n DESC LIMIT 3", "order/limit")
				b.SetLimit(3)
				sc = sc.Click("run").AddResponse(1.0, "execute")
				rel, err := b.Run()
				if err != nil {
					return nil, sc, b.Complexity(), err
				}
				sc = sc.Add(klm.M, 2, "read top 3")
				return relStrings(rel, 0), sc, b.Complexity(), nil
			},
		},
	}
}

// keywordColumn finds the keyword entity-reference column name.
func keywordColumn(res *etable.Result) string {
	for _, c := range res.Columns {
		if c.IsEntityRef() && strings.Contains(c.TargetType, "keyword") {
			return c.Name
		}
	}
	return ""
}

func rowLabels(res *etable.Result) []string {
	out := make([]string, 0, res.NumRows())
	for _, r := range res.Rows {
		out = append(out, r.Label)
	}
	return out
}

func relStrings(rel *relational.Rel, col int) []string {
	out := make([]string, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		out = append(out, r[col].Format())
	}
	return out
}

func dedup(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
