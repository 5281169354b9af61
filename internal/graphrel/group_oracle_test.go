package graphrel

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/tgm"
)

// Groups is a grouping in compressed-sparse-row form, what
// GroupNeighbors folds a relation into: keys are the distinct group
// nodes ascending, and vals[offs[k]:offs[k+1]] the distinct nodes
// co-occurring with keys[k], ascending.
type Groups struct {
	keys []tgm.NodeID
	offs []int32
	vals []tgm.NodeID
}

// span returns id's value run as offsets into vals, empty for a node
// that is not a key.
func (gs *Groups) span(id tgm.NodeID) (lo, hi int) {
	k, ok := slices.BinarySearch(gs.keys, id)
	if !ok {
		return 0, 0
	}
	return int(gs.offs[k]), int(gs.offs[k+1])
}

// Count returns the number of distinct values grouped under id.
func (gs *Groups) Count(id tgm.NodeID) int {
	lo, hi := gs.span(id)
	return hi - lo
}

// Refs returns id's values, ascending and deduplicated.
func (gs *Groups) Refs(id tgm.NodeID) []tgm.NodeID {
	lo, hi := gs.span(id)
	return gs.vals[lo:hi:hi]
}

// GroupNeighborsOracle is the grouping oracle: the hash-map kernel the
// engine ran before GroupNeighbors became a counting sort. It collects
// every co-occurring value per group node into a map and sorts and
// compacts each list, so it shares no code with the CSR kernel and must
// agree with it group for group, value for value.
func GroupNeighborsOracle(r *tuples, groupAttr, valueAttr string) (map[tgm.NodeID][]tgm.NodeID, error) {
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
func groupBoth(t *testing.T, label string, r *tuples, groupAttr, valueAttr string) *Groups {
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
		if refs := got.Refs(id); !slices.Equal(refs, w) {
			t.Fatalf("%s: Refs(%d) = %v, want %v", label, id, refs, w)
		}
	}
	if len(got.vals) != pairs || cap(got.vals) != pairs {
		t.Fatalf("%s: values array holds %d (cap %d), want exactly the %d deduplicated pairs",
			label, len(got.vals), cap(got.vals), pairs)
	}
	for _, absent := range []tgm.NodeID{-1, 1 << 30} {
		if refs := got.Refs(absent); got.Count(absent) != 0 || len(refs) != 0 {
			t.Fatalf("%s: absent node %d has %d values", label, absent, got.Count(absent))
		}
	}
}

// DistinctSorted returns the distinct nodes at the named attribute,
// ascending by ID: Π over a single attribute in the canonical row order
// of the presentation. One pass sets a transient bitset over the
// column's [min, max]; reading it back in word order yields the IDs
// already sorted.
func DistinctSorted(r *tuples, attrName string) ([]tgm.NodeID, error) {
	ai := r.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	col := r.cols[ai]
	if len(col) == 0 {
		return nil, nil
	}
	lo, hi := col[0], col[0]
	for _, id := range col {
		lo, hi = min(lo, id), max(hi, id)
	}
	seen := NewBitset(int(hi-lo) + 1)
	n := 0
	for _, id := range col {
		if !seen.TestAndSet(id - lo) {
			n++
		}
	}
	out := make([]tgm.NodeID, 0, n)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			out = append(out, lo+tgm.NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out, nil
}

// GroupNeighbors computes, for every node of keys — the distinct nodes
// at groupAttr, ascending (DistinctSorted) — the distinct co-occurring
// nodes at valueAttr, each group sorted ascending by node ID. This is
// the bulk form of Π_type σ_{τa=r}(m(Q)) that the format transformation
// evaluates once per participating node column instead of once per row
// (§5.4.2).
//
// The per-group order is deterministic by contract: the relation's row
// order depends on the join order the planner picked, and encounter
// order would leak that plan choice into the presentation (and into
// memoized results computed under a different plan). Sorting by ID
// makes the result a pure function of the tuple set.
//
// The kernel is a counting sort: a transient id → ordinal table over
// the keys' ID span places every row's value in its group's segment of
// one values array, then each segment is sorted and compacted in place
// and the array is cut to the deduplicated pairs.
func GroupNeighbors(ctx context.Context, r *tuples, keys []tgm.NodeID, groupAttr, valueAttr string) (*Groups, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	gi := r.AttrIndex(groupAttr)
	if gi < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", groupAttr)
	}
	vi := r.AttrIndex(valueAttr)
	if vi < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", valueAttr)
	}
	gcol, vcol := r.cols[gi], r.cols[vi]
	offs := make([]int32, len(keys)+1)
	var ord []int32
	var lo tgm.NodeID
	if len(keys) > 0 {
		lo = keys[0]
		ord = make([]int32, int(keys[len(keys)-1]-lo)+1)
		for k, id := range keys {
			ord[id-lo] = int32(k)
		}
	}
	for _, id := range gcol {
		d := int(id) - int(lo)
		if d < 0 || d >= len(ord) || keys[ord[d]] != id {
			return nil, fmt.Errorf("graphrel: node %d at %q is not among the group keys", id, groupAttr)
		}
		offs[ord[d]]++
	}
	for k := 1; k < len(offs); k++ { // each key's end offset
		offs[k] += offs[k-1]
	}
	vals := make([]tgm.NodeID, len(gcol))
	for i := len(gcol) - 1; i >= 0; i-- {
		k := ord[gcol[i]-lo]
		offs[k]--
		vals[offs[k]] = vcol[i]
	}
	// offs[k] is now group k's start. Sort and compact each segment,
	// sliding it down over the duplicates dropped before it.
	w := int32(0)
	for k := range keys {
		seg := sortDedup(vals[offs[k]:offs[k+1]])
		offs[k] = w
		w += int32(copy(vals[w:], seg))
	}
	offs[len(keys)] = w
	if int(w) < len(vals) {
		vals = append(make([]tgm.NodeID, 0, w), vals[:w]...)
	}
	return &Groups{keys: keys, offs: offs, vals: vals}, nil
}

// sortDedup sorts ids ascending and removes adjacent duplicates in
// place, returning the compacted slice.
func sortDedup(ids []tgm.NodeID) []tgm.NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// TestAndSet sets bit i and reports whether it was already set. IDs
// outside the allocated range report true (treated as "seen") rather
// than panicking, so a mis-sized bitset degrades to dropping rows, not
// crashing.
func (b Bitset) TestAndSet(i tgm.NodeID) bool {
	w := int(i) >> 6
	if i < 0 || w >= len(b) {
		return true
	}
	mask := uint64(1) << (uint(i) & 63)
	if b[w]&mask != 0 {
		return true
	}
	b[w] |= mask
	return false
}
