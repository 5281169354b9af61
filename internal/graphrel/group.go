package graphrel

import (
	"slices"

	"repro/internal/tgm"
)

// Groups is what the format transformation (§5.4.2) reads of one
// participating column, in compressed-sparse-row form: keys
// are the distinct group nodes ascending, and vals[offs[k]:offs[k+1]]
// the distinct nodes co-occurring with keys[k], ascending. keys is
// shared with the caller (every column of one presentation groups under
// the same row IDs); offs and vals are owned. GroupPath builds it from
// a reduced match, sized by the result (rows and deduplicated pairs),
// never by the node type.
type Groups struct {
	keys []tgm.NodeID
	offs []int32
	vals []tgm.NodeID
}

// span returns id's value run as offsets into vals, empty for a node
// that is not a key. It reads no value, so a SpilledGroups, which keeps
// the keys and offsets but not the values, shares it.
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

// CountAt returns the number of distinct values grouped under keys[k],
// the k-th group in key order: two loads, where Count searches for the
// key first.
func (gs *Groups) CountAt(k int) int { return int(gs.offs[k+1] - gs.offs[k]) }

// Refs returns id's values, ascending and deduplicated: the CSR
// segment itself, which must not be modified. buf is ignored and the
// error is always nil: the signature is SpilledGroups.Refs', so a
// consumer reads a grouping of either residency through one interface.
func (gs *Groups) Refs(_ *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error) {
	lo, hi := gs.span(id)
	return gs.vals[lo:hi:hi], nil
}
