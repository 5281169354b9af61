package graphrel

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/tgm"
)

// GroupNeighborsOracle is the grouping oracle: the hash-map kernel the
// engine ran before GroupNeighbors became a counting sort. It collects
// every co-occurring value per group node into a map and sorts and
// compacts each list, so it shares no code with the CSR kernel and must
// agree with it group for group, value for value.
func GroupNeighborsOracle(r *Relation, groupAttr, valueAttr string) (map[tgm.NodeID][]tgm.NodeID, error) {
	gi, vi := r.AttrIndex(groupAttr), r.AttrIndex(valueAttr)
	if gi < 0 || vi < 0 {
		return nil, fmt.Errorf("graphrel: bad group attributes %q, %q", groupAttr, valueAttr)
	}
	groups := make(map[tgm.NodeID][]tgm.NodeID)
	for i, g := range r.cols[gi] {
		groups[g] = append(groups[g], r.cols[vi][i])
	}
	for g, ids := range groups {
		slices.Sort(ids)
		groups[g] = slices.Compact(ids)
	}
	return groups, nil
}

// distinctOracle is the distinct-rows oracle: a hash set, then a sort.
func distinctOracle(col []tgm.NodeID) []tgm.NodeID {
	seen := make(map[tgm.NodeID]bool)
	var out []tgm.NodeID
	for _, id := range col {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// groupBoth runs the kernel pair the presentation runs — DistinctSorted
// for the keys, GroupNeighbors under them — and checks both against
// their oracles before returning the grouping.
func groupBoth(t *testing.T, label string, r *Relation, groupAttr, valueAttr string) *Groups {
	t.Helper()
	keys, err := DistinctSorted(r, groupAttr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := distinctOracle(r.ColumnNamed(groupAttr)); !slices.Equal(keys, want) {
		t.Fatalf("%s: DistinctSorted = %v, want %v", label, keys, want)
	}
	got, err := GroupNeighbors(context.Background(), r, keys, groupAttr, valueAttr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := GroupNeighborsOracle(r, groupAttr, valueAttr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertGroupsMatchOracle(t, label, got, want)
	return got
}

// assertGroupsMatchOracle asserts a CSR grouping holds exactly the
// oracle's groups: the same key set, per key the same sorted value
// list, nothing under any other node, and no slack in the arrays.
func assertGroupsMatchOracle(t *testing.T, label string, got *Groups, want map[tgm.NodeID][]tgm.NodeID) {
	t.Helper()
	if len(got.keys) != len(want) || len(got.offs) != len(got.keys)+1 {
		t.Fatalf("%s: %d keys / %d offsets, want %d groups", label, len(got.keys), len(got.offs), len(want))
	}
	pairs := 0
	for id, w := range want {
		pairs += len(w)
		if got.Count(id) != len(w) {
			t.Fatalf("%s: Count(%d) = %d, want %d", label, id, got.Count(id), len(w))
		}
		if refs, err := got.Refs(new([]tgm.NodeID), id); err != nil || !slices.Equal(refs, w) {
			t.Fatalf("%s: Refs(%d) = %v (err %v), want %v", label, id, refs, err, w)
		}
	}
	if len(got.vals) != pairs || cap(got.vals) != pairs {
		t.Fatalf("%s: values array holds %d (cap %d), want exactly the %d deduplicated pairs",
			label, len(got.vals), cap(got.vals), pairs)
	}
	for _, absent := range []tgm.NodeID{-1, 1 << 30} {
		if refs, _ := got.Refs(new([]tgm.NodeID), absent); got.Count(absent) != 0 || len(refs) != 0 {
			t.Fatalf("%s: absent node %d has %d values", label, absent, got.Count(absent))
		}
	}
}
