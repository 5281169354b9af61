package graphrel

import (
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

// TestSpillGroupsRoundTrip writes groupings through SpillGroups at
// four values per run and asserts Count, CountAt and Refs equal the
// heap Groups' for every key and for a node that is no key: a joined
// relation's grouping (many groups straddling runs), a hand-built one
// with empty groups between straddling ones, and empty groupings. The
// bytes written are the values plus one header per run.
func TestSpillGroupsRoundTrip(t *testing.T) {
	const runRows = 4
	rng := rand.New(rand.NewSource(24))
	cases := map[string]*Groups{
		"joined": groupBoth(t, "joined", joined(t, rng), "A", "B"),
		"hand": {keys: []tgm.NodeID{2, 5, 9, 11, 12}, offs: []int32{0, 3, 3, 8, 9, 9},
			vals: []tgm.NodeID{1, 4, 7, 3, 6, 8, 10, 12, 2}},
		"no values": {keys: []tgm.NodeID{3, 4}, offs: []int32{0, 0, 0}},
		"no keys":   {offs: []int32{0}},
	}
	for label, heap := range cases {
		straddles := false
		for k := range heap.keys {
			if lo, hi := heap.offs[k], heap.offs[k+1]; hi > lo && lo/runRows != (hi-1)/runRows {
				straddles = true
			}
		}
		if (label == "joined" || label == "hand") && !straddles {
			t.Fatalf("%s: no group straddles a run boundary", label)
		}
		pol := testPolicy(t, runRows)
		sg, err := SpillGroups(heap, pol, pol.NewBudget())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		n := len(heap.vals)
		runs := (n + runRows - 1) / runRows
		if st := pol.Metrics.Snapshot(); st.Spills != 1 || st.RunBytes != int64(4*n+16*runs) {
			t.Fatalf("%s: %+v, want 1 spill of %d values in %d runs", label, st, n, runs)
		}
		buf := new([]tgm.NodeID)
		for k, id := range append(slices.Clone(heap.keys), 1<<30) {
			want, _ := heap.Refs(nil, id)
			if k < len(heap.keys) && (sg.CountAt(k) != heap.CountAt(k) || sg.CountAt(k) != len(want)) {
				t.Fatalf("%s: CountAt(%d) = %d, want %d", label, k, sg.CountAt(k), len(want))
			}
			if sg.Count(id) != heap.Count(id) || sg.Count(id) != len(want) {
				t.Fatalf("%s: Count(%d) = %d, want %d", label, id, sg.Count(id), len(want))
			}
			got, err := sg.Refs(buf, id)
			if err != nil {
				t.Fatalf("%s: Refs(%d): %v", label, id, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Refs(%d) = %v, want %v", label, id, got, want)
			}
		}
		if st := pol.Metrics.Snapshot(); (n > 0) != (st.Faults > 0) {
			t.Fatalf("%s: %d values read back with %d faults", label, n, st.Faults)
		}
		if err := sg.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}
