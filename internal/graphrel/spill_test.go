package graphrel

import (
	"context"
	"fmt"
	"math/rand"
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

// TestExternalGroupFoldEquivalence folds the same batches through the
// heap kernels (AppendGroupPairs + SortDedupGroups) and the external
// sort-merge form, asserting identical counts and refs for every group
// — including the AbsorbMap demotion step and multi-run merges.
func TestExternalGroupFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rel := joined(t, rng)
	for trial := 0; trial < 4; trial++ {
		batch := 1 + rng.Intn(2*MorselRows)
		runRows := 32 + rng.Intn(256)
		absorb := rng.Intn(2) == 0
		pol := testPolicy(t, runRows)

		want := make(map[tgm.NodeID][]tgm.NodeID)
		ext, err := NewExternalGroupFold(pol, pol.NewBudget())
		if err != nil {
			t.Fatal(err)
		}

		src := StreamRelationBatch(rel, batch)
		first := true
		for {
			b, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if err := AppendGroupPairs(want, b, "A", "B"); err != nil {
				t.Fatal(err)
			}
			if absorb && first {
				// Demote a pre-accumulated heap fold, as the execution
				// layer does when the threshold trips mid-stream.
				m := make(map[tgm.NodeID][]tgm.NodeID)
				if err := AppendGroupPairs(m, b, "A", "B"); err != nil {
					t.Fatal(err)
				}
				if err := ext.AbsorbMap(m); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := ext.Append(b, "A", "B"); err != nil {
					t.Fatal(err)
				}
			}
			first = false
		}
		if err := SortDedupGroups(context.Background(), nil, 1, want); err != nil {
			t.Fatal(err)
		}
		sg, err := ext.Finish()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial=%d batch=%d runRows=%d absorb=%v", trial, batch, runRows, absorb)
		if sg.Groups() != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, sg.Groups(), len(want))
		}
		for gid, wantRefs := range want {
			if got := sg.Count(gid); got != len(wantRefs) {
				t.Fatalf("%s: Count(%d) = %d, want %d", label, gid, got, len(wantRefs))
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
// the heap DistinctNodes (order-normalized: the external form is
// ascending, the bitset form first-occurrence).
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
		want, err := DistinctNodes(rel, "B")
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
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
