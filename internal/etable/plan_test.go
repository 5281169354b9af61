package etable

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphrel"
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

// canonMatch renders a matched relation as a sorted multiset of
// attribute-name→node bindings, so join order cannot affect equality.
func canonMatch(r *graphrel.Relation) []string {
	names := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		names[i] = a.Name
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	out := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		key := ""
		for _, ai := range order {
			key += names[ai] + "=" + strconv.Itoa(int(r.At(i, ai))) + ";"
		}
		out[i] = key
	}
	sort.Strings(out)
	return out
}

// TestPlannerMatchEquivalence asserts the planner-ordered Match produces
// exactly the tuple set of the declaration-order oracle (MatchNaive) on
// the paper's Figure 1 and Figure 7 patterns.
func TestPlannerMatchEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, build := range map[string]func(testing.TB, *translate.Result) *Pattern{
		"figure1": figure1PlanPattern,
		"figure7": figure7PlanPattern,
	} {
		p := build(t, tr)
		planned, err := Match(tr.Instance, p)
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
		cp, cn := canonMatch(planned), canonMatch(naive)
		if len(cp) != len(cn) {
			t.Fatalf("%s: %d vs %d tuples", name, len(cp), len(cn))
		}
		for i := range cp {
			if cp[i] != cn[i] {
				t.Fatalf("%s: tuple %d differs:\nplanned %q\nnaive   %q", name, i, cp[i], cn[i])
			}
		}
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
		naiveMatch, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		naive, err := transformOpts(tr.Instance, p, naiveMatch, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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

// TestPlannerStartsAtMostSelectiveNode pins the join order's choice:
// on Figure 7 the SIGMOD-filtered Conferences base (exactly one node
// once selected) must be the join start, not the primary Authors node
// the naive order uses.
func TestPlannerStartsAtMostSelectiveNode(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	bases := selectedBases(t, tr.Instance, p)
	if n := bases["Conferences"].Len(); n != 1 {
		t.Fatalf("fixture drifted: %d SIGMOD conferences, want 1", n)
	}
	start, steps, err := orderJoins(tr.Instance, p, bases)
	if err != nil {
		t.Fatal(err)
	}
	if start != "Conferences" {
		t.Errorf("join start = %q, want Conferences", start)
	}
	if len(steps) != len(p.Nodes)-1 {
		t.Errorf("ordered %d steps, want %d", len(steps), len(p.Nodes)-1)
	}
}
