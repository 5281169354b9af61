package etable

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// TestHugeMatchPreparesAndReadsEveryRef: a star of seven leaves over
// one hub with a thousand neighbors has 1000^7 matches, past int64.
// Nothing enumerates them: under either primary the pattern prepares
// from its reduced sets, and a window reads every leaf's thousand
// references.
func TestHugeMatchPreparesAndReadsEveryRef(t *testing.T) {
	s, g := xyGraph(t, "F", "X", "Y")
	addID(t, g, "F", 0)
	x := addID(t, g, "X", 0)
	var ys []tgm.NodeID
	for i := 0; i < 1000; i++ {
		ys = append(ys, addID(t, g, "Y", i))
		if err := g.AddEdge("X→Y", x, ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	p, err := Initiate(s, "X")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if p, _, err = AddBetween(s, p, "X", "X→Y"); err != nil {
			t.Fatal(err)
		}
	}
	ex := NewCache(DefaultCacheEntries)
	for _, primary := range []string{"X", p.Nodes[3].Key} {
		q, err := Shift(p, primary)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ex.Prepare(context.Background(), g, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := len(ys)
		if primary == "X" {
			wantRows = 1
		}
		if res.NumRows() != wantRows {
			t.Fatalf("%s: %d rows, want %d", primary, res.NumRows(), wantRows)
		}
		for _, row := range []Row{res.Rows[0], res.Rows[len(res.Rows)-1]} {
			for ci, c := range res.Columns {
				if c.Kind != ColParticipating {
					continue
				}
				want := ys
				if c.TargetType == "X" {
					want = []tgm.NodeID{x}
				}
				refs := row.Cells[ci].Refs
				if len(refs) != len(want) || refs[0].ID != want[0] || refs[len(refs)-1].ID != want[len(want)-1] {
					t.Fatalf("%s: row %d column %s holds %d refs, want %d", primary, row.Node, c.Name, len(refs), len(want))
				}
			}
		}
	}
}

// ScratchIsSpanSized checks that the reduction's and the grouping's
// scratch arrays are sized by the span of the sets they index, never by
// a node type: matching and preparing one paper's conference does no
// Papers-sized work, allocating less than one uint64 per paper. It is a
// subtest of the external differential test, TestReducedMatchesOracles.
func ScratchIsSpanSized(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	db, err := dataset.Generate(dataset.Config{Papers: 6000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	papers := tr.Instance.NodesOfType("Papers")
	p := buildPattern(t, tr, "Papers", opSelect("id = 3000"), opAdd(tr, "Papers→Conferences"), opShift("Papers"))
	tree, err := treeOf(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]graphrel.NodeSet, len(tree.keys))
	for i, n := range tree.nodes {
		if sets[i], err = selectSet(context.Background(), tr.Instance, n, nil, mustPlan(t, tr, p)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		reduced, err := graphrel.Reduce(nil, sets, tree.edges)
		if err != nil || reduced[0].Len() != 1 {
			t.Fatalf("reduced %v, err %v", reduced, err)
		}
		red, err := graphrel.NewRelation(tree.keys, reduced, tree.edges)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prepareSets(context.Background(), tr.Instance, p, tree, red); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(8*len(papers)); per >= limit {
		t.Errorf("one paper's match and prepare allocate %d bytes, a Papers-sized uint64 array is %d", per, limit)
	}
}

func mustPlan(t *testing.T, tr *translate.Result, p *Pattern) *Plan {
	t.Helper()
	pl, err := buildPlan(tr.Instance, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestReductionLoadsOnlyWhatItWalks: one X node's thousand Ys are
// reduced and grouped from the X side under either primary, so the
// reverse edge type, whose deferred load fails, is never loaded and
// both prepares succeed; a direction is loaded by the kernel that
// walks it, not for every pattern edge up front.
func TestReductionLoadsOnlyWhatItWalks(t *testing.T) {
	s, g := xyGraph(t, "X", "Y")
	addID(t, g, "X", 0)
	addID(t, g, "X", 1)
	var ys []tgm.NodeID
	for i := 2; i < 1002; i++ {
		ys = append(ys, addID(t, g, "Y", i))
	}
	if err := g.InstallAdjacencyDeferred("X→Y", len(ys), func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return []tgm.NodeID{0}, []int32{0, int32(len(ys))}, ys, nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("reverse direction loaded")
	if err := g.InstallAdjacencyDeferred("X→Y_rev", len(ys), func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	p, err := Initiate(s, "X")
	if err == nil {
		p, err = Select(p, "id = 0")
	}
	if err == nil {
		p, _, err = AddBetween(s, p, "X", "X→Y")
	}
	if err != nil {
		t.Fatal(err)
	}
	ex := NewCache(DefaultCacheEntries)
	for _, primary := range []string{"X", p.Nodes[1].Key} {
		q, err := Shift(p, primary)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Prepare(context.Background(), g, q); err != nil {
			t.Fatalf("primary %s: %v", primary, err)
		}
		red, _ := ex.Get(matchPrefix + Signature(q))
		if set, _ := red.Set(p.Nodes[1].Key); set.Len() != len(ys) {
			t.Fatalf("primary %s: the reduced Y set holds %d nodes, want %d", primary, set.Len(), len(ys))
		}
	}
}
