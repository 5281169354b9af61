package graphrel

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/tgm"
)

// The pipeline breakers of the format transformation (§5.4.2), as
// kernels over dense node IDs: the distinct rows of one attribute and,
// per participating column, the related nodes of every row. Neither
// hashes — IDs are int32 ordinals, so dedup is a bitset and grouping a
// counting sort — and what they return is sized by the result (rows and
// deduplicated pairs), never by the node type: the ID-indexed scratch
// arrays live only for the call.

// DistinctSorted returns the distinct nodes at the named attribute,
// ascending by ID: Π over a single attribute in the canonical row order
// of the presentation. One pass sets a transient bitset over the
// column's [min, max]; reading it back in word order yields the IDs
// already sorted.
func DistinctSorted(r *Relation, attrName string) ([]tgm.NodeID, error) {
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

// Groups is one column's grouping in compressed-sparse-row form: keys
// are the distinct group nodes ascending, and vals[offs[k]:offs[k+1]]
// the distinct nodes co-occurring with keys[k], ascending. keys is
// shared with the caller (every column of one presentation groups under
// the same row IDs); offs and vals are owned.
type Groups struct {
	keys []tgm.NodeID
	offs []int32
	vals []tgm.NodeID
}

// segment returns id's value run, empty for a node that is not a key.
func (gs *Groups) segment(id tgm.NodeID) []tgm.NodeID {
	k, ok := slices.BinarySearch(gs.keys, id)
	if !ok {
		return nil
	}
	return gs.vals[gs.offs[k]:gs.offs[k+1]:gs.offs[k+1]]
}

// Count returns the number of distinct values grouped under id.
func (gs *Groups) Count(id tgm.NodeID) int { return len(gs.segment(id)) }

// CountAt returns the number of distinct values grouped under keys[k],
// the k-th group in key order: two loads, where Count searches for the
// key first.
func (gs *Groups) CountAt(k int) int { return int(gs.offs[k+1] - gs.offs[k]) }

// Refs returns id's values, ascending and deduplicated: the CSR
// segment itself, which must not be modified. buf is ignored and the
// error is always nil: the signature is SpilledGroups.Refs', so a
// consumer reads a grouping of either residency through one interface.
func (gs *Groups) Refs(_ *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error) {
	return gs.segment(id), nil
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
func GroupNeighbors(ctx context.Context, r *Relation, keys []tgm.NodeID, groupAttr, valueAttr string) (*Groups, error) {
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
	endOffsets(offs)
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
