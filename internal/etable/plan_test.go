package etable

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/translate"
	"repro/internal/value"
)

// planFixture generates a mid-sized corpus and its TGDB translation.
func planFixture(t testing.TB) *translate.Result {
	t.Helper()
	db, err := dataset.Generate(dataset.Config{Papers: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildPattern applies Initiate followed by a list of operator steps.
func buildPattern(t testing.TB, tr *translate.Result, initType string, steps ...func(*Pattern) (*Pattern, error)) *Pattern {
	t.Helper()
	p, err := Initiate(tr.Schema, initType)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if p, err = s(p); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func opAdd(tr *translate.Result, edge string) func(*Pattern) (*Pattern, error) {
	return func(p *Pattern) (*Pattern, error) { return Add(tr.Schema, p, edge) }
}

func opSelect(cond string) func(*Pattern) (*Pattern, error) {
	return func(p *Pattern) (*Pattern, error) { return Select(p, cond) }
}

func opShift(key string) func(*Pattern) (*Pattern, error) {
	return func(p *Pattern) (*Pattern, error) { return Shift(p, key) }
}

// figure1PlanPattern is the Figure 1 query (SIGMOD papers with a %user%
// keyword, pivoted to Papers).
func figure1PlanPattern(t testing.TB, tr *translate.Result) *Pattern {
	return buildPattern(t, tr, "Papers",
		opAdd(tr, "Papers→Paper_Keywords: keyword"),
		opSelect("keyword like '%user%'"),
		opShift("Papers"),
		opAdd(tr, "Papers→Conferences"),
		opSelect("acronym = 'SIGMOD'"),
		opShift("Papers"),
	)
}

// figure7PlanPattern is the Figure 6/7 query (Korean-institution authors
// of recent SIGMOD papers).
func figure7PlanPattern(t testing.TB, tr *translate.Result) *Pattern {
	return buildPattern(t, tr, "Conferences",
		opSelect("acronym = 'SIGMOD'"),
		opAdd(tr, "Papers→Conferences_rev"),
		opSelect("year > 2005"),
		opAdd(tr, "Paper_Authors"),
		opAdd(tr, "Authors→Institutions"),
		opSelect("country like '%Korea%'"),
		opShift("Authors"),
	)
}

// TestPlannerMatchEquivalence asserts the engine's match holds exactly
// the projections and tuple count of the declaration-order oracle
// (MatchNaive) on the paper's Figure 1 and Figure 7 patterns.
func TestPlannerMatchEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, build := range map[string]func(testing.TB, *translate.Result) *Pattern{
		"figure1": figure1PlanPattern,
		"figure7": figure7PlanPattern,
	} {
		p := build(t, tr)
		planned, err := MatchOpts(tr.Instance, p, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: planned: %v", name, err)
		}
		naive, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		if planned.Len() == 0 {
			t.Fatalf("%s: empty match", name)
		}
		assertReducedMatches(t, name, p, planned, naive)
	}
}

// TestPlannerExecuteEquivalence asserts Execute built on the planner
// returns row- and cell-identical results to the transformation of the
// pre-planner join order.
func TestPlannerExecuteEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, build := range map[string]func(testing.TB, *translate.Result) *Pattern{
		"figure1": figure1PlanPattern,
		"figure7": figure7PlanPattern,
	} {
		p := build(t, tr)
		planned, err := Execute(tr.Instance, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, naive := oracleTable(t, tr.Instance, p)
		if planned.NumRows() == 0 || planned.NumRows() != naive.NumRows() {
			t.Fatalf("%s: rows %d vs %d", name, planned.NumRows(), naive.NumRows())
		}
		if len(planned.Columns) != len(naive.Columns) {
			t.Fatalf("%s: columns %d vs %d", name, len(planned.Columns), len(naive.Columns))
		}
		for ri := range planned.Rows {
			pr, nr := &planned.Rows[ri], &naive.Rows[ri]
			if pr.Node != nr.Node || pr.Label != nr.Label {
				t.Fatalf("%s: row %d: %v/%q vs %v/%q", name, ri, pr.Node, pr.Label, nr.Node, nr.Label)
			}
			for ci := range pr.Cells {
				pc, nc := &pr.Cells[ci], &nr.Cells[ci]
				if !value.Equal(pc.Value, nc.Value) && !(pc.Value.IsNull() && nc.Value.IsNull()) {
					t.Fatalf("%s: row %d cell %d: %v vs %v", name, ri, ci, pc.Value, nc.Value)
				}
				if len(pc.Refs) != len(nc.Refs) {
					t.Fatalf("%s: row %d cell %d: %d vs %d refs", name, ri, ci, len(pc.Refs), len(nc.Refs))
				}
				for k := range pc.Refs {
					if pc.Refs[k] != nc.Refs[k] {
						t.Fatalf("%s: row %d cell %d ref %d: %v vs %v", name, ri, ci, k, pc.Refs[k], nc.Refs[k])
					}
				}
			}
		}
	}
}
