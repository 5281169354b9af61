package graphrel

import (
	"math/bits"
	"slices"

	"repro/internal/tgm"
)

// Bitset is a fixed-size bit set over dense non-negative IDs. Node IDs
// are dense ordinals assigned at insertion (tgm.NodeID), so a bitset
// over an ID span replaces hash-map membership: one bit per node
// instead of one map entry per distinct ID, no hashing, no per-entry
// allocation, and reading the words back in order yields the members
// ascending.
type Bitset []uint64

// NewBitset returns a bitset able to hold IDs in [0, n).
func NewBitset(n int) Bitset {
	if n <= 0 {
		return nil
	}
	return make(Bitset, (n+63)/64)
}

// NodeSet is an immutable set of node IDs: a bitset over the span
// [lo, lo+64·len(bits)) holding its members. A set built from IDs
// (SetOf) spans exactly its own [min, max] and a trimmed one the words
// holding its members, so a one-node set is one word whatever its
// type's size. It is what the semi-join
// reduction (Reduce) reads and returns, and what a reduced match is
// cached as.
type NodeSet struct {
	lo   tgm.NodeID
	bits Bitset
	n    int
}

// SetOf returns the set of ids, in any order, repeats allowed.
func SetOf(ids []tgm.NodeID) NodeSet {
	if len(ids) == 0 {
		return NodeSet{}
	}
	lo, hi := ids[0], ids[len(ids)-1]
	if !slices.IsSorted(ids) {
		lo, hi = slices.Min(ids), slices.Max(ids)
	}
	s := NodeSet{lo: lo, bits: NewBitset(int(hi-lo) + 1)}
	for _, id := range ids {
		d := uint(id - lo)
		s.bits[d>>6] |= 1 << (d & 63)
	}
	for _, w := range s.bits {
		s.n += bits.OnesCount64(w)
	}
	return s
}

// Len returns the number of members.
func (s NodeSet) Len() int { return s.n }

// Has reports whether id is a member.
func (s NodeSet) Has(id tgm.NodeID) bool {
	d := uint(id - s.lo)
	return d < uint(len(s.bits))<<6 && s.bits[d>>6]&(1<<(d&63)) != 0
}

// span is the length of the ID range the set's bitset covers: the size
// of an array indexed by id − lo over it.
func (s NodeSet) span() int { return len(s.bits) << 6 }

// each calls fn on every member, ascending.
func (s NodeSet) each(fn func(tgm.NodeID)) {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			fn(s.lo + tgm.NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
}

// Ranks returns the set's rank directory: per bitset word, the members
// before it. It is one int32 per 64 IDs of the set's span, and with it
// Rank is a popcount and Seek a binary search over the words.
func (s NodeSet) Ranks() []int32 {
	r, n := make([]int32, len(s.bits)), int32(0)
	for w, word := range s.bits {
		r[w], n = n, n+int32(bits.OnesCount64(word))
	}
	return r
}

// Rank returns member id's ordinal among s's members, read from s's
// rank directory, so an array over the members needs no span.
func (s NodeSet) Rank(ranks []int32, id tgm.NodeID) int {
	d := uint(id - s.lo)
	return int(ranks[d>>6]) + bits.OnesCount64(s.bits[d>>6]&(1<<(d&63)-1))
}

// Members walks a set's members ascending from a position (Seek).
type Members struct {
	s    NodeSet
	w    int
	word uint64 // word w's members not yet returned
}

// Seek returns a walk whose first Next is member i, 0 ≤ i < Len: the
// word holding it is the last whose rank is at most i.
func (s NodeSet) Seek(ranks []int32, i int) Members {
	w, _ := slices.BinarySearch(ranks, int32(i+1))
	w--
	word := s.bits[w]
	for k := i - int(ranks[w]); k > 0; k-- {
		word &= word - 1
	}
	return Members{s: s, w: w, word: word}
}

// Next returns the next member. The walk must not pass the last one.
func (m *Members) Next() tgm.NodeID {
	for m.word == 0 {
		m.w++
		m.word = m.s.bits[m.w]
	}
	id := m.s.lo + tgm.NodeID(m.w<<6+bits.TrailingZeros64(m.word))
	m.word &= m.word - 1
	return id
}

// IDs returns the members ascending, in a fresh slice.
func (s NodeSet) IDs() []tgm.NodeID {
	out, i := make([]tgm.NodeID, s.n), 0
	s.each(func(id tgm.NodeID) { out[i], i = id, i+1 })
	return out
}

// SizeBytes is the set's resident size: its bitset words.
func (s NodeSet) SizeBytes() int64 { return int64(len(s.bits)) * 8 }

// add inserts id, which must lie in s's span and not be a member.
func (s *NodeSet) add(id tgm.NodeID) {
	d := id - s.lo
	s.bits[d>>6] |= 1 << (uint(d) & 63)
	s.n++
}

// trim returns s over the words that hold its members: s itself when
// its end words hold members, else a copy of the inner words.
func (s NodeSet) trim() NodeSet {
	first, last := 0, len(s.bits)-1
	for first <= last && s.bits[first] == 0 {
		first++
	}
	for last >= first && s.bits[last] == 0 {
		last--
	}
	if first == 0 && last == len(s.bits)-1 {
		return s
	}
	if first > last {
		return NodeSet{}
	}
	return NodeSet{lo: s.lo + tgm.NodeID(first<<6), bits: slices.Clone(s.bits[first : last+1]), n: s.n}
}
