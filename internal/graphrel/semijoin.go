package graphrel

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/tgm"
)

// Semi-join kernels: a tree pattern's match held as node sets. After a
// full reduction (Yannakakis, VLDB 1981) every member of a node's set
// extends to a full match, so a row's related nodes along a tree path
// are that path's adjacency filtered by the reduced sets. Scratch
// arrays are sized by a set's members or span, never by a node type.

// TreeEdge places one node of a tree pattern whose nodes are numbered
// root first, every parent before its children: Parent is the parent's
// number (unused for the root), Down the adjacency oriented parent →
// node and Up node → parent. A kernel loads (Ensure) the handle it
// walks and returns its load error; the other may stay unloaded.
type TreeEdge struct {
	Parent   int
	Down, Up tgm.Adjacency
}

// scratch recycles one element type's kernel arrays: the weights a
// reduction counts and the pairs a grouping walks are garbage once its
// sets and groups are built, so a stream of misses reuses them instead
// of feeding the collector. What a kernel returns is never scratch.
type scratch[T any] struct{ p sync.Pool }

var (
	weights  scratch[uint64]
	ordinals scratch[int32]
	members  scratch[tgm.NodeID]
)

// get returns n zeroed elements.
func (sc *scratch[T]) get(n int) []T {
	if s, ok := sc.p.Get().(*[]T); ok && cap(*s) >= n {
		clear((*s)[:n])
		return (*s)[:n]
	}
	return make([]T, n)
}

// put recycles s, which nothing may use afterwards.
func (sc *scratch[T]) put(s []T) {
	if cap(s) > 0 {
		sc.p.Put(&s)
	}
}

// maxRows is where the match-size count saturates.
const maxRows = math.MaxInt64

func satAdd(a, b uint64) uint64 { return min(a+b, maxRows) }

func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 || lo > maxRows {
		return maxRows
	}
	return lo
}

// Reduce runs the full reducer over a tree pattern: sets[i] is node i's
// starting set (any superset of its projection of the match, within its
// selected base) and tree places node i. The bottom-up pass keeps each
// parent member with a neighbor in every child's set and counts, per
// member, the matches of the subtree below it; the top-down pass keeps
// each child member with a neighbor in its parent's reduced set. It
// returns every node's reduced set, trimmed, and the exact size of the
// match, saturating at math.MaxInt64; an empty set empties them all.
func Reduce(ctx context.Context, sets []NodeSet, tree []TreeEdge) ([]NodeSet, int, error) {
	out := slices.Clone(sets)
	empty := func() ([]NodeSet, int, error) { return make([]NodeSet, len(sets)), 0, nil }
	for _, s := range out {
		if s.n == 0 {
			return empty()
		}
	}
	// counts[i][x − lo]: the matches of node i's subtree with i at x;
	// nil for a leaf, whose members count 1 each.
	counts := make([][]uint64, len(out))
	for c := len(out) - 1; c > 0; c-- {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, err
		}
		p := tree[c].Parent
		var w []uint64
		var err error
		if out[p], w, err = semiJoin(out[p], out[c], tree[c].Down, tree[c].Up, true, counts[c]); err != nil {
			return nil, 0, err
		} else if out[p].n == 0 {
			return empty()
		}
		if counts[p] == nil {
			counts[p] = w
		} else {
			for i, x := range w {
				counts[p][i] = satMul(counts[p][i], x)
			}
			weights.put(w)
		}
		weights.put(counts[c])
	}
	rows := uint64(out[0].n)
	if counts[0] != nil {
		rows = 0
		out[0].each(func(id tgm.NodeID) { rows = satAdd(rows, counts[0][id-out[0].lo]) })
		weights.put(counts[0])
	}
	out[0] = out[0].trim()
	for c := 1; c < len(out); c++ {
		var err error
		if out[c], _, err = semiJoin(out[c], out[tree[c].Parent], tree[c].Up, tree[c].Down, false, nil); err != nil {
			return nil, 0, err
		}
		out[c] = out[c].trim()
	}
	return out, int(rows), nil
}

// semiJoin returns s ⋉ t: the members of s with a neighbor in t along
// adj (oriented s → t; rev is its reverse), over s's span. counting
// also returns, over s's span, each member's weight in t: the sum of
// tw (nil: 1 each, indexed like t's bitset) over those neighbors. It
// walks from the side with fewer members, loading only that side's
// adjacency.
func semiJoin(s, t NodeSet, adj, rev tgm.Adjacency, counting bool, tw []uint64) (NodeSet, []uint64, error) {
	if s.n > t.n {
		adj = rev
	}
	if err := adj.Ensure(); err != nil {
		return NodeSet{}, nil, err
	}
	kept := NodeSet{lo: s.lo, bits: make(Bitset, len(s.bits))}
	var w []uint64
	if counting {
		w = weights.get(s.span())
	}
	weight := func(y tgm.NodeID) uint64 {
		if tw == nil {
			return 1
		}
		return tw[y-t.lo]
	}
	if s.n <= t.n {
		s.each(func(x tgm.NodeID) {
			var sum uint64
			for _, y := range adj.Neighbors(x) {
				if t.Has(y) {
					if sum = satAdd(sum, weight(y)); w == nil {
						break
					}
				}
			}
			if sum > 0 {
				kept.add(x)
				if w != nil {
					w[x-s.lo] = sum
				}
			}
		})
		return kept, w, nil
	}
	t.each(func(y tgm.NodeID) {
		for _, x := range adj.Neighbors(y) {
			if !s.Has(x) {
				continue
			}
			if !kept.Has(x) {
				kept.add(x)
			}
			if w != nil {
				w[x-s.lo] = satAdd(w[x-s.lo], weight(y))
			}
		}
	})
	return kept, w, nil
}

// GroupPath groups one participating column of a reduced match by its
// rows, path[len−1]'s members ascending (shared as the keys): path is
// the tree path of reduced sets from the column's node (path[0]) to
// the primary, up[i] is oriented path[i] → path[i+1] and down[i] is its
// reverse. The (row, value) pairs are walked from the value side in
// ascending value order, inside the sets; a stable counting sort by row
// over the rows' span keeps each row's values ascending, and adjacent
// repeats (one value reached through two intermediate nodes) are
// dropped. With fewer rows than values the pairs are gathered from the
// row side instead and, unless each row's values already ascend, put
// in value order first by a stable counting sort over the values' span.
// Only the walking side's adjacency is loaded.
func GroupPath(ctx context.Context, rows []tgm.NodeID, path []NodeSet, up, down []tgm.Adjacency) (*Groups, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	offs := make([]int32, len(rows)+1)
	if len(rows) == 0 {
		return &Groups{keys: rows, offs: offs}, nil
	}
	v0, rs := path[0], path[len(path)-1]
	fromRows := len(rows) < v0.n
	w := &pathWalk{path: path, adj: up, rows: rs, ranks: rs.ranks(), at: ordinals.get(len(rows)), ascending: true}
	if fromRows {
		w.adj = down
	}
	for _, a := range w.adj {
		if err := a.Ensure(); err != nil {
			return nil, err
		}
	}
	hint := 0 // the walking side's first-step edges size the pair buffers
	if fromRows {
		for _, r := range rows {
			hint += down[len(down)-1].Degree(r)
		}
		w.prs, w.vls = ordinals.get(hint)[:0], members.get(hint)[:0]
		for k, r := range rows {
			w.down(len(down), r, int32(k))
		}
		if !w.ascending {
			w.byValue(v0)
		}
	} else {
		v0.each(func(v tgm.NodeID) { hint += up[0].Degree(v) })
		w.prs, w.vls = ordinals.get(hint)[:0], members.get(hint)[:0]
		for wi, word := range v0.bits {
			for ; word != 0; word &= word - 1 {
				v := v0.lo + tgm.NodeID(wi<<6+bits.TrailingZeros64(word))
				w.up(0, v, v)
			}
		}
	}
	// Counts become start offsets, and unless the pairs are already in
	// row order they scatter stably.
	for k, c := range w.at {
		offs[k+1] = offs[k] + c
		w.at[k] = offs[k]
	}
	vals, scattered := w.vls, !fromRows || !w.ascending
	if scattered {
		vals = members.get(len(w.vls))
		for i, r := range w.prs {
			vals[w.at[r]] = w.vls[i]
			w.at[r]++
		}
	}
	// Drop adjacent repeats within each group, sliding it down over the
	// repeats dropped before it.
	end := int32(0)
	for k := range rows {
		seg := vals[offs[k]:offs[k+1]]
		offs[k] = end
		for _, v := range seg {
			if end == offs[k] || vals[end-1] != v {
				vals[end] = v
				end++
			}
		}
	}
	offs[len(rows)] = end
	out := slices.Clone(vals[:end])
	if scattered {
		members.put(vals)
	}
	ordinals.put(w.at)
	ordinals.put(w.prs)
	members.put(w.vls)
	return &Groups{keys: rows, offs: offs, vals: out}, nil
}

// pathWalk collects one GroupPath's (row, value) pairs, a row as its
// ordinal among the rows (at counts each row's pairs), along the up or
// down adjacency.
type pathWalk struct {
	path  []NodeSet
	adj   []tgm.Adjacency
	rows  NodeSet
	ranks []int32
	at    []int32
	prs   []int32
	vls   []tgm.NodeID
	// ascending: every row's values so far, gathered from the row side,
	// strictly ascend; last is the current row's latest value.
	ascending bool
	last      tgm.NodeID
}

func (w *pathWalk) pair(r int32, v tgm.NodeID) {
	w.at[r], w.prs, w.vls = w.at[r]+1, append(w.prs, r), append(w.vls, v)
}

// up follows adj[i] from x, a member of path[i], on behalf of value v.
func (w *pathWalk) up(i int, x, v tgm.NodeID) {
	next := &w.path[i+1]
	for _, y := range w.adj[i].Neighbors(x) {
		switch {
		case !next.Has(y):
		case i+2 < len(w.path):
			w.up(i+1, y, v)
		default:
			w.pair(w.rows.rank(w.ranks, y), v)
		}
	}
}

// down follows adj[i−1] from x, a member of path[i], on behalf of row r.
func (w *pathWalk) down(i int, x tgm.NodeID, r int32) {
	next := &w.path[i-1]
	for _, y := range w.adj[i-1].Neighbors(x) {
		switch {
		case !next.Has(y):
		case i > 1:
			w.down(i-1, y, r)
		default:
			w.ascending = w.ascending && (w.at[r] == 0 || y > w.last)
			w.last = y
			w.pair(r, y)
		}
	}
}

// byValue reorders the pairs by value with a stable counting sort over
// col's span, so they reach the row scatter in ascending value order.
func (w *pathWalk) byValue(col NodeSet) {
	at := ordinals.get(col.span() + 1)
	for _, v := range w.vls {
		at[v-col.lo+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	prs, vls := ordinals.get(len(w.prs)), members.get(len(w.vls))
	for i, v := range w.vls {
		k := at[v-col.lo]
		prs[k], vls[k] = w.prs[i], v
		at[v-col.lo]++
	}
	ordinals.put(at)
	ordinals.put(w.prs)
	members.put(w.vls)
	w.prs, w.vls = prs, vls
}
