package graphrel

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

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
		Pool:    pager.New(3),
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
// the other residency a presentation reads — including multi-run
// merges.
func TestExternalGroupFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rel := joined(t, rng)
	want, err := GroupNeighborsOracle(rel, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	heap := groupBoth(t, "heap", rel, "A", "B")
	for trial := 0; trial < 4; trial++ {
		batch := 1 + rng.Intn(2*MorselRows)
		runRows := 32 + rng.Intn(256)
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
		sg, err := ext.Finish()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial=%d batch=%d runRows=%d", trial, batch, runRows)
		if sg.Groups() != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, sg.Groups(), len(want))
		}
		for gid, wantRefs := range want {
			if got := sg.Count(gid); got != len(wantRefs) || got != heap.Count(gid) {
				t.Fatalf("%s: Count(%d) = %d, want %d (heap %d)", label, gid, got, len(wantRefs), heap.Count(gid))
			}
			gotRefs, err := sg.Refs(gid)
			if err != nil {
				t.Fatalf("%s: Refs(%d): %v", label, gid, err)
			}
			for i := range wantRefs {
				if gotRefs[i] != wantRefs[i] {
					t.Fatalf("%s: Refs(%d)[%d] = %d, want %d", label, gid, i, gotRefs[i], wantRefs[i])
				}
			}
		}
		if refs, err := sg.Refs(tgm.NodeID(1 << 30)); err != nil || refs != nil {
			t.Fatalf("%s: absent group: refs=%v err=%v", label, refs, err)
		}
		if err := sg.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestExternalDistinctEquivalence checks the external distinct against
// the hash-set oracle and the heap DistinctSorted: all three ascending.
func TestExternalDistinctEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rel := joined(t, rng)
	for _, runRows := range []int{16, 301, 1 << 20} {
		pol := testPolicy(t, runRows)
		ext, err := NewExternalDistinct(pol, pol.NewBudget())
		if err != nil {
			t.Fatal(err)
		}
		src := StreamRelationBatch(rel, 777)
		for {
			b, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if err := ext.Add(b.ColumnNamed("B")); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ext.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := distinctOracle(rel.ColumnNamed("B"))
		if heap, err := DistinctSorted(rel, "B"); err != nil || !slices.Equal(heap, want) {
			t.Fatalf("runRows=%d: DistinctSorted disagrees with the oracle (err %v)", runRows, err)
		}
		if len(got) != len(want) {
			t.Fatalf("runRows=%d: %d distinct, want %d", runRows, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("runRows=%d: [%d] = %d, want %d", runRows, i, got[i], want[i])
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("runRows=%d: external distinct not ascending", runRows)
		}
	}
}
