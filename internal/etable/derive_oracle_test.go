package etable_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/relational"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/value"
)

// TestDerivedMatchesOracles is the derivation oracle: random operator
// sequences — Select, SelectNode, Add, AddBetween and Shift, conditions
// landing on any node after joins — run by two goroutines through one
// shared Cache at cache sizes 1, 2 and 1024. Every state's table
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
			var derived atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for s := 0; s < sequences; s++ {
						for _, p := range randomSequence(rng, tr, steps, 4) {
							// Skipping states leaves the nearest
							// resident ancestor several links up.
							if rng.Intn(3) == 0 {
								continue
							}
							if etable.Derives(p, cache) {
								derived.Add(1)
							}
							if err := checkState(cache, tr, st, &stMu, p); err != nil {
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

// TestReducedMatchesOracles is the engine's differential test: random
// tree patterns of up to five nodes (depth ≤ 4), built by Select,
// SelectNode, Add, AddBetween and Shift with conditions on random nodes
// and the primary anywhere, run by two goroutines through one shared
// Cache at cache sizes 1, 2 and 1024, so derivation from resident
// reduced sets fires. Every table must equal, cell for cell, the one
// the fold oracle renders over MatchNaive and the SQL backend's — as a
// materialized window and read cell by cell through a Cursor, the
// server's path, references and counts alike — and MatchOpts' every set
// must be π_k(MatchNaive) and its Len |MatchNaive|; a sort by a participating
// column's count, concurrent on one presentation and stacked on a view
// of a view, orders rows as a stable sort of the oracle's table does
// and builds the column's count vector once. An empty selection joined
// in empties the table. The scratch arrays behind it are span-sized
// (ScratchIsSpanSized). Run under -race by scripts/check.sh.
func TestReducedMatchesOracles(t *testing.T) {
	t.Run("scratch_is_span_sized", etable.ScratchIsSpanSized)
	db, err := dataset.Generate(dataset.Config{Papers: 90, Authors: 45, Institutions: 12, Seed: 5})
	if err == nil {
		err = addReferees(db, 40)
	}
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
	var stMu sync.Mutex
	sequences, steps := 4, 12
	if testing.Short() {
		sequences = 1
	}
	empty, err := etable.Initiate(tr.Schema, "Authors")
	if err == nil {
		empty, err = etable.Add(tr.Schema, empty, "Paper_Authors_rev")
	}
	if err == nil {
		empty, err = etable.SelectNode(empty, "Papers", "year > 3000")
	}
	if err != nil {
		t.Fatal(err)
	}
	mentors := selfLoopStates(t, tr)
	for _, size := range []int{1, 2, 1024} {
		t.Run(fmt.Sprintf("cache%d", size), func(t *testing.T) {
			cache := etable.NewCache(size)
			if err := checkState(cache, tr, st, &stMu, empty); err != nil {
				t.Fatalf("empty: %v", err)
			}
			for _, p := range mentors {
				if err := checkState(cache, tr, st, &stMu, p); err != nil {
					t.Fatalf("self-loop: %s: %v", p, err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for s := 0; s < sequences; s++ {
						for _, p := range randomSequence(rng, tr, steps, 5) {
							if err := checkState(cache, tr, st, &stMu, p); err != nil {
								t.Errorf("cache %d, seed %d: %s: %v", size, seed, p, err)
								return
							}
						}
					}
				}(int64(7*size + w))
			}
			wg.Wait()
		})
	}
}

// addReferees adds n referees to db, each reviewing a paper and
// mentored by an earlier referee (the first by itself): a
// self-referencing foreign key, which translates to a self-loop edge
// type stored one way only, with no reverse to walk it back.
func addReferees(db *relational.DB, n int) error {
	refs, err := db.CreateTable(relational.Schema{
		Name: "Referees",
		Columns: []relational.Column{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString},
			{Name: "paper_id", Type: value.KindInt}, {Name: "mentor_id", Type: value.KindInt}},
		PrimaryKey: []string{"id"},
		ForeignKeys: []relational.ForeignKey{{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
			{Col: "mentor_id", RefTable: "Referees", RefCol: "id"}},
	})
	for i := 0; err == nil && i < n; i++ {
		_, err = refs.InsertValues(value.Int(int64(i+1)), value.Str(fmt.Sprintf("%c%d", 'a'+i%3, i)),
			value.Int(int64(1+i*7%90)), value.Int(int64(1+i/3)))
	}
	return err
}

// selfLoopStates walks the referees' one-way mentor edge both ways: Add
// makes the mentor primary, so its rows reach their mentees against the
// stored direction, and Shift turns that back; a grand-mentor added
// beyond, conditioned, then puts the primary at either end and between.
func selfLoopStates(t *testing.T, tr *translate.Result) []*etable.Pattern {
	t.Helper()
	var mentor string
	for _, et := range tr.Schema.OutEdges("Referees") {
		if et.Target == "Referees" {
			mentor = et.Name
		}
	}
	if mentor == "" || tr.Schema.EdgeType(mentor).Reverse != "" {
		t.Fatalf("fixture: no one-way Referees self-loop (%q)", mentor)
	}
	p, err := etable.Initiate(tr.Schema, "Referees")
	if err == nil {
		p, err = etable.Add(tr.Schema, p, mentor)
	}
	states := []*etable.Pattern{p}
	for _, step := range []func(*etable.Pattern) (*etable.Pattern, error){
		func(p *etable.Pattern) (*etable.Pattern, error) { return etable.Shift(p, p.Nodes[0].Key) },
		func(p *etable.Pattern) (*etable.Pattern, error) {
			q, _, err := etable.AddBetween(tr.Schema, p, p.Nodes[1].Key, mentor)
			return q, err
		},
		func(p *etable.Pattern) (*etable.Pattern, error) {
			return etable.SelectNode(p, p.Nodes[2].Key, "id < 20")
		},
		func(p *etable.Pattern) (*etable.Pattern, error) { return etable.Shift(p, p.Nodes[2].Key) },
		func(p *etable.Pattern) (*etable.Pattern, error) { return etable.Shift(p, p.Nodes[1].Key) },
	} {
		if err == nil {
			p, err = step(p)
			states = append(states, p)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// randomSequence applies steps random operators from a random Open and
// returns every state, in order, each cloned from the one before.
func randomSequence(rng *rand.Rand, tr *translate.Result, steps, maxNodes int) []*etable.Pattern {
	schema := tr.Schema
	conds := map[string][]string{
		"Papers":       {"year > 2005", "year <= 2010", "page_start < 500"},
		"Authors":      {"name like '%a%'", "id < 100"},
		"Conferences":  {"acronym = 'SIGMOD'", "acronym like '%D%'"},
		"Institutions": {"country like '%Korea%'", "country = 'USA'", "country like '%a%'"},
		"Referees":     {"id < 20", "name like 'b%'"},
	}
	var starts []string
	for _, typ := range []string{"Papers", "Authors", "Conferences", "Institutions", "Referees"} {
		if schema.NodeType(typ) != nil {
			starts = append(starts, typ)
		}
	}
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
			if outs := schema.OutEdges(p.PrimaryNode().Type); len(outs) > 0 && len(p.Nodes) < maxNodes {
				np, err = etable.Add(schema, p, outs[rng.Intn(len(outs))].Name)
			}
		case 3:
			if outs := schema.OutEdges(typ); len(outs) > 0 && len(p.Nodes) < maxNodes {
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

// checkState renders p through the shared cache and compares it
// with the table the fold oracle renders over MatchNaive and with the
// SQL backend's; MatchOpts' every set must be π_k(MatchNaive) and its
// Len |MatchNaive|.
func checkState(cache *etable.Cache, tr *translate.Result, st *storage.Store, stMu *sync.Mutex, p *etable.Pattern) error {
	pr, err := cache.Prepare(context.Background(), tr.Instance, p)
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
	want, err := etable.FoldTable(tr.Instance, p, naive)
	if err != nil {
		return err
	}
	rel, err := etable.MatchOpts(tr.Instance, p, etable.ExecOptions{})
	if err != nil {
		return err
	}
	if err := etable.SameMatch(p, rel, naive); err != nil {
		return fmt.Errorf("MatchOpts against MatchNaive: %v", err)
	}
	if g, w := fmt.Sprintf("%+v|%+v", got.Columns, got.Rows), fmt.Sprintf("%+v|%+v", want.Columns, want.Rows); g != w {
		return fmt.Errorf("table differs from the one folded over MatchNaive (%d vs %d rows)", got.NumRows(), want.NumRows())
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
	read, err := cursorCells(pr, want)
	if err != nil {
		return err
	}
	if err := sameCells(read, sqlCells(sql)); err != nil {
		return fmt.Errorf("cursor cells differ from the SQL backend's: %v", err)
	}
	return checkCountSorts(pr, want)
}

// cursorCells reads every row's cells through a Cursor and checks each
// reference cell against the oracle's: the same IDs in the same
// (ascending) order, so the same count. It returns the cells read.
func cursorCells(pr *etable.Presentation, want *etable.Result) (cells, error) {
	c, err := pr.Cursor(0, pr.NumRows(), nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &etable.Result{Columns: pr.Columns()}
	for r := 0; c.Next(); r++ {
		w := want.Rows[r]
		if c.Node() != w.Node {
			return nil, fmt.Errorf("cursor row %d is node %d, oracle %d", r, c.Node(), w.Node)
		}
		row := etable.Row{Node: c.Node(), Cells: make([]etable.Cell, len(res.Columns))}
		for _, ci := range c.Columns() {
			col := res.Columns[ci]
			if !col.IsEntityRef() {
				continue
			}
			ids, wc := c.Refs(ci), w.Cells[ci]
			if len(ids) != wc.Count() {
				return nil, fmt.Errorf("row %d column %s: cursor reads %d refs, oracle count %d", w.Node, col.Name, len(ids), wc.Count())
			}
			for k, id := range ids {
				if id != wc.Refs[k].ID {
					return nil, fmt.Errorf("row %d column %s: cursor ref %d is %d, oracle %d", w.Node, col.Name, k, id, wc.Refs[k].ID)
				}
				row.Cells[ci].Refs = append(row.Cells[ci].Refs, etable.EntityRef{ID: id})
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return engineCells(res), nil
}

// checkCountSorts sorts pr by its first participating column's count
// from two goroutines at once, then a view by the first base attribute
// by the same count descending, and checks the orders against stable
// sorts of the oracle's table and that every sort read one count
// vector.
func checkCountSorts(pr *etable.Presentation, want *etable.Result) error {
	ci := -1
	for i, c := range want.Columns {
		if c.Kind == etable.ColParticipating {
			ci = i
			break
		}
	}
	if ci < 0 || want.NumRows() == 0 {
		return nil
	}
	byCount := etable.SortSpec{Column: want.Columns[ci].Name}
	views := make([]*etable.Presentation, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], errs[i] = pr.SortedView(byCount)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	counts := etable.CountVector(pr, byCount.Column)
	byAttr, err := pr.SortedView(etable.SortSpec{Attr: want.Columns[0].Attr})
	if err != nil {
		return err
	}
	stacked, err := byAttr.SortedView(etable.SortSpec{Column: byCount.Column, Desc: true})
	if err != nil {
		return err
	}
	if again := etable.CountVector(pr, byCount.Column); len(counts) != want.NumRows() || len(again) != len(counts) || &again[0] != &counts[0] {
		return fmt.Errorf("sort by %s: %d counts for %d rows, or a later sort rebuilt them", byCount.Column, len(counts), want.NumRows())
	}
	count := func(r etable.Row) int { return r.Cells[ci].Count() }
	rows := append([]etable.Row(nil), want.Rows...)
	sort.SliceStable(rows, func(a, b int) bool { return count(rows[a]) < count(rows[b]) })
	for _, v := range views {
		if err := sameOrder(v, rows, "count"); err != nil {
			return err
		}
	}
	rows = append(rows[:0], want.Rows...)
	sort.SliceStable(rows, func(a, b int) bool { return value.Compare(rows[a].Cells[0].Value, rows[b].Cells[0].Value) < 0 })
	sort.SliceStable(rows, func(a, b int) bool { return count(rows[a]) > count(rows[b]) })
	return sameOrder(stacked, rows, "attribute then count")
}

// sameOrder checks a view's row order against the oracle's rows.
func sameOrder(v *etable.Presentation, rows []etable.Row, label string) error {
	res, err := v.Window(0, -1)
	if err != nil {
		return err
	}
	for i, r := range res.Rows {
		if r.Node != rows[i].Node {
			return fmt.Errorf("sort by %s: row %d is node %d, oracle %d", label, i, r.Node, rows[i].Node)
		}
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
