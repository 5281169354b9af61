package etable

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// TestLazyEagerEquivalenceFuzz is the out-of-core correctness drill:
// randomized patterns run through the oracle on an eagerly loaded
// graph, and through the engine on a lazily loaded one whose pager
// budget (2–3 sections) is far below the column count — a serial arm
// and two pooled budgets racing each other so column faults interleave
// with evictions. Matched tuple sets must be the oracle's
// and the rendered windows byte-identical to the window over the
// oracle's match. The CI race shard runs this under -race.
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
	pool := exec.NewPool(4)
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
				{"serial", ExecOptions{}},
				{"budget=2", ExecOptions{Pool: pool, Parallelism: 2}},
				{"budget=4", ExecOptions{Pool: pool, Parallelism: 4}},
			}
			rng := rand.New(rand.NewSource(int64(100 + budget)))
			for i := 0; i < 12; i++ {
				p := randomPattern(t, rng, tr.Schema)
				ref, err := MatchNaive(eager.Graph, p)
				if err != nil {
					t.Fatalf("pattern %d (%s): oracle on the eager load: %v", i, p, err)
				}
				wantTuples := canonMatch(ref)
				wantWindow := renderWindow(t, eager.Graph, p, ref, ExecOptions{})

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
						if !reflect.DeepEqual(canonMatch(got), wantTuples) {
							errs[ai] = fmt.Errorf("arm %s: tuple set diverges from eager load", name)
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
			if st.Resident > st.Budget {
				t.Fatalf("resident %d exceeds budget %d after fuzz", st.Resident, st.Budget)
			}
			if st.Faults == 0 || st.Evictions == 0 {
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
	out := fmt.Sprintf("cols=%+v total=%d rows=%+v", res.Columns, res.Total(), res.Rows)
	res.Recycle()
	return out
}
