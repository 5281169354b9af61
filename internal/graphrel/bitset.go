package graphrel

import "repro/internal/tgm"

// Bitset is a fixed-size bit set over dense non-negative IDs. Node IDs
// are dense ordinals assigned at insertion (tgm.NodeID), so a bitset
// over a column's ID span replaces hash-map dedup (DistinctSorted): one
// bit per node instead of one map entry per distinct ID, no hashing, no
// per-entry allocation, and reading the words back in order yields the
// members ascending.
type Bitset []uint64

// NewBitset returns a bitset able to hold IDs in [0, n).
func NewBitset(n int) Bitset {
	if n <= 0 {
		return nil
	}
	return make(Bitset, (n+63)/64)
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
