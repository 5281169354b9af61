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
// faults interleave with evictions. Every match must be the oracle's
// and every lazy window byte-identical to the eager one. The CI race
// shard runs this under -race.
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

			rng := rand.New(rand.NewSource(int64(100 + budget)))
			for i := 0; i < 12; i++ {
				p := randomPattern(t, rng, tr.Schema)
				ref, err := MatchNaive(eager.Graph, p)
				if err != nil {
					t.Fatalf("pattern %d (%s): oracle on the eager load: %v", i, p, err)
				}
				got, err := MatchOpts(eager.Graph, p, ExecOptions{})
				if err != nil {
					t.Fatalf("pattern %d (%s): eager: %v", i, p, err)
				}
				assertReducedMatches(t, fmt.Sprintf("pattern %d (%s) eager", i, p), p, got, ref)
				wantWindow := renderWindow(t, eager.Graph, p, got)

				// Three lazy callers run concurrently so their faults
				// contend for the tiny pool while evictions churn it.
				var wg sync.WaitGroup
				errs := make([]error, 3)
				for c := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := MatchOpts(lazy.Graph, p, ExecOptions{Ctx: context.Background()})
						if err == nil {
							err = sameMatch(p, got, ref)
						}
						if err != nil {
							errs[c] = fmt.Errorf("caller %d: %v", c, err)
						} else if window := renderWindow(t, lazy.Graph, p, got); window != wantWindow {
							errs[c] = fmt.Errorf("caller %d: rendered window diverges:\n lazy: %s\neager: %s", c, window, wantWindow)
						}
					}()
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
func renderWindow(t *testing.T, g *tgm.InstanceGraph, p *Pattern, rel *graphrel.Relation) string {
	t.Helper()
	pr, err := PrepareOpts(g, p, rel, ExecOptions{})
	if err != nil {
		t.Fatalf("PrepareOpts: %v", err)
	}
	res, err := pr.Window(0, 10)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	return fmt.Sprintf("cols=%+v total=%d rows=%+v", res.Columns, res.Total(), res.Rows)
}
