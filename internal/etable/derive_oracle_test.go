package etable_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/storage"
	"repro/internal/translate"
)

// TestDerivedMatchesOracles is the derivation oracle: random operator
// sequences — Select, SelectNode, Add, AddBetween and Shift, conditions
// landing on any node after joins — run by two goroutines through one
// shared Executor at cache sizes 1, 2 and 1024. Every state's table
// must equal, cell for cell, the one prepared over MatchNaive and the
// §6.2 SQL backend's (storage.ExecutePattern), whether it derived from
// a resident ancestor, found it evicted mid-sequence, or matched from
// the bases. Run under -race by scripts/check.sh.
func TestDerivedMatchesOracles(t *testing.T) {
	db, err := dataset.Generate(dataset.Config{Papers: 120, Authors: 60, Institutions: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromGraph(tr.Instance)
	if err != nil {
		t.Fatal(err)
	}
	var stMu sync.Mutex // the SQL oracle is not the code under test
	sequences, steps := 3, 10
	if testing.Short() {
		sequences = 1
	}
	for _, size := range []int{1, 2, 1024} {
		t.Run(fmt.Sprintf("cache%d", size), func(t *testing.T) {
			cache := etable.NewCache(size)
			ex := etable.NewSharedExecutor(tr.Instance, cache)
			var derived atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for s := 0; s < sequences; s++ {
						for _, p := range randomSequence(rng, tr, steps) {
							// Skipping states leaves the nearest
							// resident ancestor several links up.
							if rng.Intn(3) == 0 {
								continue
							}
							if etable.Derives(p, cache) {
								derived.Add(1)
							}
							if err := checkState(ex, tr, st, &stMu, p); err != nil {
								t.Errorf("cache %d, seed %d: %s: %v", size, seed, p, err)
								return
							}
						}
					}
				}(int64(100*size + w))
			}
			wg.Wait()
			if size == 1024 && derived.Load() == 0 {
				t.Error("no state derived from a resident ancestor")
			}
		})
	}
}

// randomSequence applies steps random operators from a random Open and
// returns every state, in order, each cloned from the one before.
func randomSequence(rng *rand.Rand, tr *translate.Result, steps int) []*etable.Pattern {
	schema := tr.Schema
	conds := map[string][]string{
		"Papers":       {"year > 2005", "year <= 2010", "page_start < 500"},
		"Authors":      {"name like '%a%'", "id < 100"},
		"Conferences":  {"acronym = 'SIGMOD'", "acronym like '%D%'"},
		"Institutions": {"country like '%Korea%'", "country = 'USA'", "country like '%a%'"},
	}
	starts := []string{"Papers", "Authors", "Conferences", "Institutions"}
	p, err := etable.Initiate(schema, starts[rng.Intn(len(starts))])
	if err != nil {
		panic(err)
	}
	states := []*etable.Pattern{p}
	for len(states) <= steps {
		var np *etable.Pattern
		key := p.Nodes[rng.Intn(len(p.Nodes))].Key
		typ := p.Node(key).Type
		switch rng.Intn(5) {
		case 0:
			if pool := conds[p.PrimaryNode().Type]; len(pool) > 0 {
				np, err = etable.Select(p, pool[rng.Intn(len(pool))])
			}
		case 1:
			if pool := conds[typ]; len(pool) > 0 {
				np, err = etable.SelectNode(p, key, pool[rng.Intn(len(pool))])
			}
		case 2:
			if outs := schema.OutEdges(p.PrimaryNode().Type); len(outs) > 0 && len(p.Nodes) < 4 {
				np, err = etable.Add(schema, p, outs[rng.Intn(len(outs))].Name)
			}
		case 3:
			if outs := schema.OutEdges(typ); len(outs) > 0 && len(p.Nodes) < 4 {
				np, _, err = etable.AddBetween(schema, p, key, outs[rng.Intn(len(outs))].Name)
			}
		case 4:
			np, err = etable.Shift(p, key)
		}
		if err != nil || np == nil {
			continue
		}
		p = np
		states = append(states, p)
	}
	return states
}

// checkState renders p through the shared executor and compares it
// with the table over MatchNaive and with the SQL backend's.
func checkState(ex *etable.Executor, tr *translate.Result, st *storage.Store, stMu *sync.Mutex, p *etable.Pattern) error {
	pr, err := ex.PrepareWithOpts(p, etable.ExecOptions{})
	if err != nil {
		return err
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		return err
	}
	naive, err := etable.MatchNaive(tr.Instance, p)
	if err != nil {
		return err
	}
	npr, err := etable.Prepare(tr.Instance, p, naive)
	if err != nil {
		return err
	}
	want, err := npr.Window(0, -1)
	if err != nil {
		return err
	}
	if g, w := fmt.Sprintf("%+v|%+v", got.Columns, got.Rows), fmt.Sprintf("%+v|%+v", want.Columns, want.Rows); g != w {
		return fmt.Errorf("table differs from the one over MatchNaive (%d vs %d rows)", got.NumRows(), want.NumRows())
	}
	stMu.Lock()
	sql, err := st.ExecutePattern(p, storage.Monolithic)
	stMu.Unlock()
	if err != nil {
		return err
	}
	if err := sameCells(engineCells(got), sqlCells(sql)); err != nil {
		return fmt.Errorf("table differs from the SQL backend's: %v", err)
	}
	return nil
}

// cells maps a table's rows to their entity reference cells by column
// name (a participating column by its node key), references sorted.
type cells map[int64]map[string][]int64

func engineCells(r *etable.Result) cells {
	out := make(cells, len(r.Rows))
	for _, row := range r.Rows {
		m := map[string][]int64{}
		for ci, col := range r.Columns {
			if !col.IsEntityRef() {
				continue
			}
			name := col.Name
			if col.Kind == etable.ColParticipating {
				name = col.NodeKey
			}
			ids := []int64{}
			for _, ref := range row.Cells[ci].Refs {
				ids = append(ids, int64(ref.ID))
			}
			m[name] = sorted(ids)
		}
		out[int64(row.Node)] = m
	}
	return out
}

func sqlCells(r *storage.Result) cells {
	out := make(cells, len(r.RowIDs))
	for ri, id := range r.RowIDs {
		m := map[string][]int64{}
		for ci, col := range r.Columns {
			ids := []int64{}
			for _, ref := range r.Cells[ri][ci] {
				ids = append(ids, ref.ID)
			}
			m[col.Name] = sorted(ids)
		}
		out[id] = m
	}
	return out
}

func sorted(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameCells checks both tables have the same rows and every engine
// cell equals the SQL backend's cell of the same row and column.
func sameCells(engine, sql cells) error {
	if len(engine) != len(sql) {
		return fmt.Errorf("%d rows vs %d", len(engine), len(sql))
	}
	for id, row := range engine {
		srow, ok := sql[id]
		if !ok {
			return fmt.Errorf("row %d missing", id)
		}
		for name, ids := range row {
			sids, ok := srow[name]
			if !ok {
				return fmt.Errorf("row %d: no column %s", id, name)
			}
			if got, want := fmt.Sprint(ids), fmt.Sprint(sids); got != want {
				return fmt.Errorf("row %d column %s: %s vs %s", id, name, got, want)
			}
		}
	}
	return nil
}
