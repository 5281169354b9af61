package snapshot

// The round-trip equivalence fuzz of the persistence tier: a graph
// loaded from a snapshot must be indistinguishable from the freshly
// translated one under *query execution*, not just structural
// comparison. Random patterns (the biased schema walk the storage
// package's cross-validation uses) run on both graphs through every
// execution arm — eager, streaming, parallel — and must render
// byte-identical results. Run under -race by scripts/check.sh, which
// also exercises the per-graph plan and stats caches concurrently.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/translate"
)

// randomPattern grows a random valid query pattern by a biased walk
// over the schema graph (the same generator shape as the storage
// package's SQL cross-validation): start at a random entity type, then
// repeatedly either Add a random out-edge or Select a random condition,
// ending with a random Shift.
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
	target := p.Nodes[rng.Intn(len(p.Nodes))].Key
	return etable.Shift(p, target)
}

// renderResult serializes an executed result canonically — every
// column, row, label, base value, and entity reference — so two
// results are equivalent iff their renderings are byte-identical.
func renderResult(res *etable.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "primary=%s total=%d offset=%d\n",
		res.PrimaryType.Name, res.Total(), res.Offset)
	for _, c := range res.Columns {
		fmt.Fprintf(&sb, "col|%d|%s|%s|%s|%s|%s\n",
			c.Kind, c.Name, c.Attr, c.NodeKey, c.EdgeType, c.TargetType)
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&sb, "row|%d|%s", row.Node, row.Label)
		for ci := range res.Columns {
			cell := &row.Cells[ci]
			sb.WriteString("|")
			if res.Columns[ci].Kind == etable.ColBase {
				sb.WriteString(cell.Value.Format())
			} else {
				for _, ref := range cell.Refs {
					fmt.Fprintf(&sb, "%d:%s;", ref.ID, ref.Label)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestRandomRoundTripEquivalence: generate → translate → Save → Load,
// then random patterns must render byte-identical results on the
// loaded graph versus the fresh one, serial and under a pool.
func TestRandomRoundTripEquivalence(t *testing.T) {
	tr := testGraph(t)
	snap, err := Decode(saveBytes(t, tr.Instance))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	pool := exec.NewPool(4)
	arms := []struct {
		name string
		opt  etable.ExecOptions
	}{
		{"serial", etable.ExecOptions{}},
		{"pooled", etable.ExecOptions{Pool: pool, Parallelism: 4}},
	}

	rng := rand.New(rand.NewSource(99))
	const trials = 30
	for i := 0; i < trials; i++ {
		p, err := randomPattern(rng, tr)
		if err != nil {
			t.Fatalf("trial %d: building pattern: %v", i, err)
		}
		t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
			var want string
			for _, arm := range arms {
				fresh, err := etable.ExecuteOpts(tr.Instance, p, arm.opt)
				if err != nil {
					t.Fatalf("%s on fresh graph: %v\npattern: %s", arm.name, err, p)
				}
				loaded, err := etable.ExecuteOpts(snap.Graph, p, arm.opt)
				if err != nil {
					t.Fatalf("%s on loaded graph: %v\npattern: %s", arm.name, err, p)
				}
				rf, rl := renderResult(fresh), renderResult(loaded)
				if rf != rl {
					t.Fatalf("%s: loaded result differs from fresh\npattern: %s\nfresh:\n%s\nloaded:\n%s",
						arm.name, p, rf, rl)
				}
				// All arms agree with each other too (cross-arm guard —
				// a bug that broke both graphs identically in one arm
				// would otherwise slip through).
				if want == "" {
					want = rf
				} else if rf != want {
					t.Fatalf("%s disagrees with previous arm\npattern: %s", arm.name, p)
				}
			}
		})
	}
}

// TestConcurrentLoadedGraphQueries hammers one loaded graph from many
// goroutines (distinct patterns, serial and pooled) under -race: the loaded
// graph must honor the same lock-free frozen-read contract as a
// translated one, including its lazily-populated plan cache.
func TestConcurrentLoadedGraphQueries(t *testing.T) {
	tr := testGraph(t)
	snap, err := Decode(saveBytes(t, tr.Instance))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	pool := exec.NewPool(4)

	// Pre-generate patterns so goroutines share no RNG.
	rng := rand.New(rand.NewSource(4242))
	patterns := make([]*etable.Pattern, 16)
	for i := range patterns {
		p, err := randomPattern(rng, tr)
		if err != nil {
			t.Fatal(err)
		}
		patterns[i] = p
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(patterns))
	for i, p := range patterns {
		wg.Add(1)
		go func(i int, p *etable.Pattern) {
			defer wg.Done()
			opt := etable.ExecOptions{}
			if i%2 == 0 {
				opt.Pool, opt.Parallelism = pool, 2
			}
			if _, err := etable.ExecuteOpts(snap.Graph, p, opt); err != nil {
				errs <- fmt.Errorf("pattern %d: %w", i, err)
			}
		}(i, p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
