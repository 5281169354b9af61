package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/translate"
)

// randomPattern grows a random valid query pattern by a biased walk over
// the schema graph: start at a random entity type, then repeatedly
// either Add a random out-edge or Select a random condition from a pool,
// ending with a random Shift. This exercises arbitrary tree shapes and
// condition placements.
func randomPattern(rng *rand.Rand, tr *translate.Result) (*etable.Pattern, error) {
	schema := tr.Schema
	entityTypes := []string{"Papers", "Authors", "Conferences", "Institutions"}
	conds := map[string][]string{
		"Papers":                  {"year > 2005", "year <= 2010", "page_start < 500"},
		"Authors":                 {"name like '%a%'", "id < 100"},
		"Conferences":             {"acronym = 'SIGMOD'", "acronym like '%D%'"},
		"Institutions":            {"country like '%Korea%'", "country = 'USA'"},
		"Paper_Keywords: keyword": {"keyword like '%user%'", "keyword like '%data%'"},
		"Papers: year":            {"year > 2008"},
		"Institutions: country":   {"country like '%a%'"},
	}
	p, err := etable.Initiate(schema, entityTypes[rng.Intn(len(entityTypes))])
	if err != nil {
		return nil, err
	}
	steps := 1 + rng.Intn(4)
	for i := 0; i < steps; i++ {
		prim := p.PrimaryNode()
		outs := schema.OutEdges(prim.Type)
		switch {
		case rng.Intn(2) == 0 && len(outs) > 0 && len(p.Nodes) < 4:
			et := outs[rng.Intn(len(outs))]
			np, err := etable.Add(schema, p, et.Name)
			if err != nil {
				return nil, err
			}
			p = np
		default:
			pool := conds[prim.Type]
			if len(pool) == 0 {
				continue
			}
			np, err := etable.Select(p, pool[rng.Intn(len(pool))])
			if err != nil {
				return nil, err
			}
			p = np
		}
	}
	// Random final primary.
	target := p.Nodes[rng.Intn(len(p.Nodes))].Key
	return etable.Shift(p, target)
}

// TestRandomPatternEquivalence cross-validates the graph engine against
// the paper's §6.2 SQL backend — the monolithic and the partitioned
// translation, an independent oracle — on randomly generated patterns
// over a small generated corpus. The engine runs three ways: with no
// options, with the options the benchmark harness sets ("pooled"), and
// the way the server serves a table — one shared cache's Prepare plus
// a full window — whose cache spans every trial,
// so later trials derive from sets earlier trials cached and
// re-prepare signatures they matched. Every run must match both SQL
// tables cell for cell.
func TestRandomPatternEquivalence(t *testing.T) {
	db, err := dataset.Generate(dataset.Config{Papers: 120, Authors: 60, Institutions: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := FromGraph(tr.Instance)
	if err != nil {
		t.Fatal(err)
	}

	// The "pooled" arm runs under the options the benchmark harness
	// still sets: a live context plus the deprecated Pool and
	// Parallelism fields, which must change nothing.
	pooled := etable.ExecOptions{Ctx: context.Background(), Pool: exec.NewPool(4), Parallelism: 4}
	shared := etable.NewCache(256)
	rng := rand.New(rand.NewSource(1234))
	trials := 40
	for i := 0; i < trials; i++ {
		p, err := randomPattern(rng, tr)
		if err != nil {
			t.Fatalf("trial %d: building pattern: %v", i, err)
		}
		name := fmt.Sprintf("trial%02d", i)
		t.Run(name, func(t *testing.T) {
			mono, err := st.ExecutePattern(p, Monolithic)
			if err != nil {
				t.Fatalf("monolithic: %v\npattern: %s", err, p)
			}
			part, err := st.ExecutePattern(p, Partitioned)
			if err != nil {
				t.Fatalf("partitioned: %v\npattern: %s", err, p)
			}
			for _, run := range []struct {
				name string
				exec func() (*etable.Result, error)
			}{
				{"serial", func() (*etable.Result, error) { return etable.Execute(tr.Instance, p) }},
				{"pooled", func() (*etable.Result, error) {
					// The harness's path: an uncached match, its prepare
					// and a window, each under the harness's options.
					rel, err := etable.MatchOpts(tr.Instance, p, pooled)
					if err != nil {
						return nil, err
					}
					pr, err := etable.PrepareOpts(tr.Instance, p, rel, pooled)
					if err != nil {
						return nil, err
					}
					return pr.WindowOpts(0, -1, pooled)
				}},
				{"shared", func() (*etable.Result, error) {
					// The server's path: the cached prepare, then a window.
					pr, err := shared.Prepare(context.Background(), tr.Instance, p)
					if err != nil {
						return nil, err
					}
					return pr.Window(0, -1)
				}},
			} {
				t.Run(run.name, func(t *testing.T) {
					mem, err := run.exec()
					if err != nil {
						t.Fatalf("%v\npattern: %s", err, p)
					}
					assertEquivalent(t, mem, mono)
					assertEquivalent(t, mem, part)
				})
			}
			if t.Failed() {
				t.Logf("pattern: %s", p)
			}
		})
	}
}
