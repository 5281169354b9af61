package etable

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphrel"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// randomPattern builds a random but valid pattern by walking the
// schema from a random starting type: each step Adds a random out-edge
// of the current primary and sometimes Selects a random condition on
// the node it landed on. The walk skips steps the operators reject
// (duplicate node keys), so every emitted pattern is executable.
func randomPattern(t *testing.T, rng *rand.Rand, schema *tgm.SchemaGraph) *Pattern {
	t.Helper()
	conds := map[string][]string{
		"Papers":       {"year > 2000", "year > 1990", "title like '%a%'"},
		"Conferences":  {"acronym = 'SIGMOD'", "acronym like '%S%'"},
		"Institutions": {"country like '%Korea%'", "country like '%a%'"},
		"Authors":      {"name like '%a%'"},
		"keyword":      {"keyword like '%user%'", "keyword like '%a%'"},
	}
	starts := []string{"Papers", "Authors", "Conferences"}
	p, err := Initiate(schema, starts[rng.Intn(len(starts))])
	if err != nil {
		t.Fatal(err)
	}
	for steps := rng.Intn(4); steps > 0; steps-- {
		prim := p.PrimaryNode()
		outs := schema.OutEdges(prim.Type)
		if len(outs) == 0 {
			break
		}
		np, err := Add(schema, p, outs[rng.Intn(len(outs))].Name)
		if err != nil {
			continue // key collision; try the next step
		}
		p = np
		if pool := conds[p.PrimaryNode().Type]; len(pool) > 0 && rng.Intn(2) == 0 {
			if np, err := Select(p, pool[rng.Intn(len(pool))]); err == nil {
				p = np
			}
		}
		if rng.Intn(3) == 0 {
			if np, err := Shift(p, p.Nodes[rng.Intn(len(p.Nodes))].Key); err == nil {
				p = np
			}
		}
	}
	return p
}

// TestLazyEagerEquivalenceFuzz is the engine's randomized correctness
// drill: randomized patterns run through the oracle on an eagerly
// loaded graph, and through the engine twice — on that eager graph,
// and on a lazily loaded one whose pager budget (2–3 sections) is far
// below the column count, three callers racing each other so column
// faults interleave with evictions. Matched tuple sets must be the oracle's and the lazy
// rendered windows byte-identical to the window over the oracle's
// match. The CI race shard runs this under -race.
func TestLazyEagerEquivalenceFuzz(t *testing.T) {
	db, err := dataset.Generate(dataset.Config{Papers: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fuzz.etsnap")
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		t.Fatal(err)
	}

	eager, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{2, 3} {
		budget := budget
		t.Run(fmt.Sprintf("pool=%d", budget), func(t *testing.T) {
			lazy, err := snapshot.LazyLoad(path, snapshot.LazyOptions{PoolSections: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()

			arms := []struct {
				name string
				opt  ExecOptions
			}{
				{"nil_ctx", ExecOptions{}},
				{"live_ctx", ExecOptions{Ctx: context.Background()}},
				{"live_ctx#2", ExecOptions{Ctx: context.Background()}},
			}
			rng := rand.New(rand.NewSource(int64(100 + budget)))
			for i := 0; i < 12; i++ {
				p := randomPattern(t, rng, tr.Schema)
				ref, err := MatchNaive(eager.Graph, p)
				if err != nil {
					t.Fatalf("pattern %d (%s): oracle on the eager load: %v", i, p, err)
				}
				var wantWindow string
				for _, arm := range arms {
					got, err := MatchOpts(eager.Graph, p, arm.opt)
					if err != nil {
						t.Fatalf("pattern %d (%s): eager arm %s: %v", i, p, arm.name, err)
					}
					assertReducedMatches(t, fmt.Sprintf("pattern %d (%s) eager arm %s", i, p, arm.name), p, got, ref)
					if wantWindow == "" {
						wantWindow = renderWindow(t, eager.Graph, p, got, ExecOptions{})
					}
				}

				// The three lazy arms run concurrently so their faults
				// contend for the tiny pool while evictions churn it.
				var wg sync.WaitGroup
				errs := make([]error, len(arms))
				for ai, arm := range arms {
					wg.Add(1)
					go func(ai int, name string, opt ExecOptions) {
						defer wg.Done()
						got, err := MatchOpts(lazy.Graph, p, opt)
						if err != nil {
							errs[ai] = fmt.Errorf("arm %s: %v", name, err)
							return
						}
						if err := sameMatch(p, got, ref); err != nil {
							errs[ai] = fmt.Errorf("arm %s: %v", name, err)
							return
						}
						window := renderWindow(t, lazy.Graph, p, got, opt)
						if window != wantWindow {
							errs[ai] = fmt.Errorf("arm %s: rendered window diverges:\n lazy: %s\neager: %s",
								name, window, wantWindow)
						}
					}(ai, arm.name, arm.opt)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("pattern %d (%s): %v", i, p, err)
					}
				}
			}
			st, total := lazy.PagerStats()
			if st.Len > st.Capacity {
				t.Fatalf("resident %d exceeds budget %d after fuzz", st.Len, st.Capacity)
			}
			if st.Misses == 0 || st.Evictions == 0 {
				t.Fatalf("fuzz exercised no fault/eviction traffic: %+v (total %d)", st, total)
			}
		})
	}
}

// renderWindow prepares the presentation over a matched relation and
// renders its first rows into a canonical string (the byte-identity
// witness for lazy-vs-eager comparisons).
func renderWindow(t *testing.T, g *tgm.InstanceGraph, p *Pattern, rel *graphrel.Relation, opt ExecOptions) string {
	t.Helper()
	pr, err := PrepareOpts(g, p, rel, opt)
	if err != nil {
		t.Fatalf("PrepareOpts: %v", err)
	}
	res, err := pr.WindowOpts(0, 10, opt)
	if err != nil {
		t.Fatalf("WindowOpts: %v", err)
	}
	return fmt.Sprintf("cols=%+v total=%d rows=%+v", res.Columns, res.Total(), res.Rows)
}
