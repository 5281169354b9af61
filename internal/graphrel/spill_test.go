package graphrel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// testPolicy returns a spill policy sized to force multi-run state on
// test fixtures: tiny runs, a small pool, named files in a temp dir.
func testPolicy(t *testing.T, runRows int) *SpillPolicy {
	t.Helper()
	return &SpillPolicy{
		Dir:     t.TempDir(),
		RunRows: runRows,
		Pool:    lru.New[pager.Key, [][]tgm.NodeID](3),
		Metrics: &spill.Metrics{},
		Named:   true,
	}
}

// joined builds the two-column A-B join relation the spill fixtures
// stream — big enough to span many tiny runs.
func joined(t *testing.T, rng *rand.Rand) *Relation {
	t.Helper()
	g := bigChainGraph(t, rng)
	as, err := Base(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Base(g, "B")
	if err != nil {
		t.Fatal(err)
	}
	j, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestExternalGroupFoldEquivalence folds a relation's batches through
// the external sort-merge form and asserts identical counts and refs
// for every group against the map oracle — and against the heap kernel,
// the other residency a presentation reads — and group keys equal to
// the distinct oracle, ascending, over multi-run merges and one run.
func TestExternalGroupFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rel := joined(t, rng)
	want, err := GroupNeighborsOracle(rel, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	heap := groupBoth(t, "heap", rel, "A", "B")
	distinctKeys := distinctOracle(rel.ColumnNamed("A"))
	for trial := 0; trial < 4; trial++ {
		batch := 1 + rng.Intn(2*MorselRows)
		runRows := 32 + rng.Intn(256)
		if trial == 3 {
			runRows = 1 << 20 // one run: no merge pass
		}
		pol := testPolicy(t, runRows)
		ext, err := NewExternalGroupFold(pol, pol.NewBudget())
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches(t, rel, batch) {
			if err := ext.Append(b, "A", "B"); err != nil {
				t.Fatal(err)
			}
		}
		sg, keys, err := ext.Finish()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial=%d batch=%d runRows=%d", trial, batch, runRows)
		if !slices.Equal(keys, distinctKeys) {
			t.Fatalf("%s: group keys %v, want %v", label, keys, distinctKeys)
		}
		if sg.Groups() != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, sg.Groups(), len(want))
		}
		for gid, wantRefs := range want {
			if got := sg.Count(gid); got != len(wantRefs) || got != heap.Count(gid) {
				t.Fatalf("%s: Count(%d) = %d, want %d (heap %d)", label, gid, got, len(wantRefs), heap.Count(gid))
			}
			gotRefs, err := sg.Refs(new([]tgm.NodeID), gid)
			if err != nil {
				t.Fatalf("%s: Refs(%d): %v", label, gid, err)
			}
			for i := range wantRefs {
				if gotRefs[i] != wantRefs[i] {
					t.Fatalf("%s: Refs(%d)[%d] = %d, want %d", label, gid, i, gotRefs[i], wantRefs[i])
				}
			}
		}
		if refs, err := sg.Refs(new([]tgm.NodeID), tgm.NodeID(1<<30)); err != nil || refs != nil {
			t.Fatalf("%s: absent group: refs=%v err=%v", label, refs, err)
		}
		if err := sg.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}
