package etable

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/translate"
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
