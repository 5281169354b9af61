package graphrel

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/tgm"
)

// Semi-join kernels: a tree pattern's match held as node sets. After a
// full reduction (Yannakakis, VLDB 1981) every member of a node's set
// extends to a full match, so a row's related nodes along a tree path
// are that path's adjacency filtered by the reduced sets (Path), and
// |m(Q)| is the tree's adjacency walked depth first through them
// (Relation.Len). Scratch arrays are sized by a set's members or span,
// never by a node type.

// TreeEdge places one node of a tree pattern whose nodes are numbered
// root first, every parent before its children: Parent is the parent's
// number (unused for the root), Down the adjacency oriented parent →
// node and Up node → parent. A kernel loads (Ensure) the handle it
// walks and returns its load error; the other may stay unloaded.
type TreeEdge struct {
	Parent   int
	Down, Up tgm.Adjacency
}

// Reduce runs the full reducer over a tree pattern: sets[i] is node i's
// starting set (any superset of its projection of the match, within its
// selected base) and tree places node i. The bottom-up pass keeps each
// parent member with a neighbor in every child's set; the top-down pass
// keeps each child member with a neighbor in its parent's reduced set.
// It returns every node's reduced set, trimmed; an empty set empties
// them all. Nothing is counted: a presentation holds the sets whatever
// |m(Q)| is.
func Reduce(ctx context.Context, sets []NodeSet, tree []TreeEdge) ([]NodeSet, error) {
	out := slices.Clone(sets)
	for _, s := range out {
		if s.n == 0 {
			return make([]NodeSet, len(sets)), nil
		}
	}
	for c := len(out) - 1; c > 0; c-- {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		p := tree[c].Parent
		var err error
		if out[p], err = semiJoin(out[p], out[c], tree[c].Down, tree[c].Up); err != nil {
			return nil, err
		} else if out[p].n == 0 {
			return make([]NodeSet, len(sets)), nil
		}
	}
	out[0] = out[0].trim()
	for c := 1; c < len(out); c++ {
		var err error
		if out[c], err = semiJoin(out[c], out[tree[c].Parent], tree[c].Up, tree[c].Down); err != nil {
			return nil, err
		}
		out[c] = out[c].trim()
	}
	return out, nil
}

// walk counts the join of sets along tree, placing node i's members of
// sets[i] among its parent's node's neighbors along tree[i].Down depth
// first. After a full reduction it costs what it counts.
func walk(sets []NodeSet, tree []TreeEdge) int {
	tuple, n := make([]tgm.NodeID, len(sets)), 0
	var place func(i int)
	place = func(i int) {
		if i == len(sets) {
			n++
			return
		}
		set := &sets[i]
		for _, y := range tree[i].Down.Neighbors(tuple[tree[i].Parent]) {
			if set.Has(y) {
				tuple[i] = y
				place(i + 1)
			}
		}
	}
	for w, word := range sets[0].bits {
		for ; word != 0; word &= word - 1 {
			tuple[0] = sets[0].lo + tgm.NodeID(w<<6+bits.TrailingZeros64(word))
			place(1)
		}
	}
	return n
}

// semiJoin returns s ⋉ t: the members of s with a neighbor in t along
// adj (oriented s → t; rev is its reverse), over s's span. It walks
// from the side with fewer members, loading only that side's
// adjacency.
func semiJoin(s, t NodeSet, adj, rev tgm.Adjacency) (NodeSet, error) {
	if s.n > t.n {
		adj = rev
	}
	if err := adj.Ensure(); err != nil {
		return NodeSet{}, err
	}
	kept := NodeSet{lo: s.lo, bits: make(Bitset, len(s.bits))}
	if s.n <= t.n {
		s.each(func(x tgm.NodeID) {
			for _, y := range adj.Neighbors(x) {
				if t.Has(y) {
					kept.add(x)
					break
				}
			}
		})
		return kept, nil
	}
	t.each(func(y tgm.NodeID) {
		for _, x := range adj.Neighbors(y) {
			if s.Has(x) && !kept.Has(x) {
				kept.add(x)
			}
		}
	})
	return kept, nil
}

// Path is one participating column of a reduced match: the tree path
// from the primary down to the column's node, as the reduced set at
// each hop (sets[i], i+1 hops below the primary; the last is the
// column's own), the adjacency into it (down[i], oriented from hop i,
// the primary at 0) and its reverse (up[i]). After a full reduction a
// row's related nodes are its adjacency along the path filtered by the
// sets, so a cell is computed when it is read and nothing is stored
// per row.
type Path struct {
	sets     []NodeSet
	down, up []tgm.Adjacency
}

// NewPath returns the path through sets along down, with up the
// reverse of each hop (see Path), one entry per hop in each.
func NewPath(sets []NodeSet, down, up []tgm.Adjacency) Path {
	return Path{sets: sets, down: down, up: up}
}

// Ensure loads every adjacency Refs walks, returning a deferred load's
// typed error.
func (p Path) Ensure() error {
	for _, a := range p.down {
		if err := a.Ensure(); err != nil {
			return err
		}
	}
	return nil
}

// Refs appends row r's related nodes to dst, ascending and
// deduplicated, and returns the extended slice; a cell's count is the
// length it appends. A one-hop cell is r's adjacency filtered by the
// column's set, kept as it is when it ascends strictly and sorted when
// it does not (an insertion-ordered segment); an adjacency list holds
// no repeats. A deeper cell, which reaches a node once through each of
// its intermediate nodes, is walked marking each kept node in sc's
// bitset over the column set's span, which orders and deduplicates
// them, and the marks are read back. The path must be loaded (Ensure).
func (p Path) Refs(dst []tgm.NodeID, r tgm.NodeID, sc *Scratch) []tgm.NodeID {
	set := &p.sets[len(p.sets)-1]
	if len(p.sets) == 1 {
		start := len(dst)
		for _, y := range p.down[0].Neighbors(r) {
			if set.Has(y) {
				dst = append(dst, y)
			}
		}
		if cell := dst[start:]; !ascending(cell) {
			slices.Sort(cell)
		}
		return dst
	}
	b, sum := sc.bitsFor(len(set.bits))
	p.mark(0, r, b, sum)
	return drain(dst, set.lo, b, sum)
}

// mark walks x's adjacency at hop i and below, keeping each hop's set
// members, and marks the last hop's in b (and its word in sum), which
// lie over the last set's span.
func (p Path) mark(i int, x tgm.NodeID, b, sum Bitset) {
	set := &p.sets[i]
	if i < len(p.sets)-1 {
		for _, y := range p.down[i].Neighbors(x) {
			if set.Has(y) {
				p.mark(i+1, y, b, sum)
			}
		}
		return
	}
	lo, sb := set.lo, set.bits
	for _, y := range p.down[i].Neighbors(x) {
		d := uint(y - lo)
		if w := d >> 6; w < uint(len(sb)) {
			b[w] |= sb[w] & (1 << (d & 63))
			sum[w>>6] |= 1 << (w & 63)
		}
	}
}

// ascending reports whether ids ascend strictly.
func ascending(ids []tgm.NodeID) bool {
	for k := 1; k < len(ids); k++ {
		if ids[k] <= ids[k-1] {
			return false
		}
	}
	return true
}

// Counts returns the size of every row's cell — the length Refs
// appends — in the order of rows, the primary's set the path hangs
// from. A one-hop path whose set has fewer members than the rows is
// counted from the set's side, each member's neighbors among the rows
// (an adjacency list holds no repeats: Freeze drops them, and a
// snapshot stores a frozen graph's lists), loading only the adjacency
// it walks. Otherwise each row's cell is counted as Refs gathers it.
func (p Path) Counts(rows NodeSet) ([]int32, error) {
	counts, set := make([]int32, rows.n), p.sets[0]
	if len(p.sets) == 1 && set.n < rows.n {
		if err := p.up[0].Ensure(); err != nil {
			return nil, err
		}
		ranks := rows.Ranks()
		set.each(func(v tgm.NodeID) {
			for _, y := range p.up[0].Neighbors(v) {
				if rows.Has(y) {
					counts[rows.Rank(ranks, y)]++
				}
			}
		})
		return counts, nil
	}
	if err := p.Ensure(); err != nil {
		return nil, err
	}
	sc := GetScratch()
	defer PutScratch(sc)
	i := 0
	rows.each(func(r tgm.NodeID) {
		sc.IDs = p.Refs(sc.IDs[:0], r, sc)
		counts[i] = int32(len(sc.IDs))
		i++
	})
	return counts, nil
}

// bitsFor returns sc's two-level bitset over words words — a bit per
// ID and a summary bit per word — zeroed, growing it if it is shorter.
func (sc *Scratch) bitsFor(words int) (b, sum Bitset) {
	if cap(sc.bits) < words {
		sc.bits, sc.sum = make(Bitset, words), make(Bitset, (words+63)>>6)
	}
	return sc.bits[:words], sc.sum[:(words+63)>>6]
}

// drain appends the IDs marked in b, lo the ID of its first bit, to dst
// ascending and returns the extended slice. It visits only the words
// sum marks and leaves both levels zeroed.
func drain(dst []tgm.NodeID, lo tgm.NodeID, b, sum Bitset) []tgm.NodeID {
	for s, sw := range sum {
		for ; sw != 0; sw &= sw - 1 {
			w := s<<6 + bits.TrailingZeros64(sw)
			for word := b[w]; word != 0; word &= word - 1 {
				dst = append(dst, lo+tgm.NodeID(w<<6+bits.TrailingZeros64(word)))
			}
			b[w] = 0
		}
		sum[s] = 0
	}
	return dst
}

// Scratch is a caller's buffers around Path.Refs: IDs for gathered
// nodes, Offs for offsets into them, and the two-level bitset Refs
// orders a deeper cell through. GetScratch lends one from a pool and
// PutScratch returns it. The pointer travels through the pool, so
// neither call allocates once the pool is warm, and the buffers grow to
// what their readers gather — the bitset to a column set's span —
// never to a node type.
type Scratch struct {
	IDs       []tgm.NodeID
	Offs      []int32
	bits, sum Bitset
}

var scratchPool sync.Pool

// GetScratch lends an empty Scratch.
func GetScratch() *Scratch {
	if s, ok := scratchPool.Get().(*Scratch); ok {
		return s
	}
	return new(Scratch)
}

// PutScratch returns s, which nothing may use afterwards.
func PutScratch(s *Scratch) {
	s.IDs, s.Offs = s.IDs[:0], s.Offs[:0]
	scratchPool.Put(s)
}
