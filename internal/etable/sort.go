package etable

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/tgm"
)

// This file is the sort op: "Sort table by …" reorders a presentation's
// rows as extract-then-sort. One pass over the row order fills an
// []int64 key vector — no comparison ever goes back to the graph — and
// sortInts orders the (key, position) pairs. Every key is an integer:
//
//   - a reference column's key is its count (the participating
//     column's group size, or the neighbor column's degree);
//   - a base attribute's key is the row's rank in its column
//     (tgm.InstanceGraph.AttrRank): the column's value.Compare order,
//     computed once per graph on the first sort by that attribute, so a
//     string or mixed-kind sort compares int32 ranks, never values.
//
// sortInts takes an O(n + range) counting sort when the keys' range is
// dense (denseSpan) — counts, and the ranks of an unfiltered table,
// whose range is at most its row count — and a comparison sort over the
// integer keys otherwise (a selective filter's ranks, sparse counts).
//
// The sort is stable — rows with equal keys keep their current relative
// order — under both arms: the counting sort scatters in position
// order, and the comparison sort breaks key ties by position. Desc
// flips the key comparison only, never the tie-break. Equal ranks are
// exactly value.Compare-equal values, so the permutation is the one a
// stable sort of the rendered table by value.Compare yields. The rank's
// two exceptions carry over: rows keyed NaN (which value.Compare calls
// equal to every number) sort together just below the column's lowest
// number, and a column mixing INTs and FLOATs past ±2^53, where
// value.Compare is not transitive, gets a total order that may disagree
// with it on such pairs.

// SortSpec orders result rows. Exactly one of Attr or Column is set:
// Attr sorts by a base attribute value; Column sorts an entity-reference
// column by its reference count (the paper's "Sort table by # of …").
type SortSpec struct {
	Attr   string
	Column string
	Desc   bool
}

// sortColumn is a resolved sort target: one of the two reference-column
// forms, or, when neither is set, the base attribute at ordinal attr.
type sortColumn struct {
	attr     int
	part     groupSource // a participating column's grouping
	neighbor *tgm.Adjacency
}

// resolveSort resolves spec against the presentation's column metadata.
// It reads no column, rank or adjacency, so validating a sort faults
// nothing in on an out-of-core graph.
func (pr *Presentation) resolveSort(spec SortSpec) (sortColumn, error) {
	switch {
	case spec.Attr != "":
		for i := range pr.columns {
			if pr.columns[i].Kind == ColBase && pr.columns[i].Attr == spec.Attr {
				return sortColumn{attr: pr.primType.AttrIndex(spec.Attr)}, nil
			}
		}
		return sortColumn{}, fmt.Errorf("etable: no base attribute %q to sort by", spec.Attr)
	case spec.Column != "":
		for _, pc := range pr.parts {
			if pr.columns[pc.col].Name == spec.Column {
				return sortColumn{part: pc.src}, nil
			}
		}
		for i := range pr.neighbors {
			if pr.columns[pr.neighbors[i].col].Name == spec.Column {
				return sortColumn{neighbor: &pr.neighbors[i].adj}, nil
			}
		}
		return sortColumn{}, fmt.Errorf("etable: no entity-reference column %q to sort by", spec.Column)
	default:
		return sortColumn{}, fmt.Errorf("etable: empty sort specification")
	}
}

// ValidateSort reports whether spec can sort this presentation, without
// reordering anything. It checks column names only: the rank, the
// column behind it and any deferred adjacency are left for SortedView.
func (pr *Presentation) ValidateSort(spec SortSpec) error {
	_, err := pr.resolveSort(spec)
	return err
}

// SortedView returns a presentation of the same prepared state stably
// reordered per spec, leaving the receiver untouched — the one sort.
// The permutation is the one a stable sort of the fully materialized
// table by value.Compare yields (ties keep the receiver's order: the
// canonical ID-ascending order on a fresh presentation, the previous
// sort's on a view of a view), which the sort equivalence fuzz pins;
// NaN keys and INT/FLOAT mixes past ±2^53 are ordered as the file
// header describes. The first sort by an attribute builds that
// column's rank (and, on an out-of-core graph, faults the column in;
// a fault is the sort's typed error); later sorts by it only read the
// rank. The view shares the receiver's columns, per-column groupings,
// and neighbor layout — the expensive products of Prepare — and owns
// only a fresh row-ID slice, so every sort variant of one pattern
// costs one key extraction and one integer sort on top of a single
// Prepare. Views and their base are immutable and may Window
// concurrently.
func (pr *Presentation) SortedView(spec SortSpec) (*Presentation, error) {
	ids, err := pr.sorted(spec)
	if err != nil {
		return nil, err
	}
	cp := *pr
	cp.rowIDs = ids
	cp.reordered = true
	return &cp, nil
}

// sorted returns the presentation's row IDs reordered per spec, in a
// fresh slice. Reference counts are IO-free on every groupSource form,
// so sorting by a participating column never faults spilled runs; a
// neighbor column's deferred adjacency materializes here, and its load
// error is the sort's error.
func (pr *Presentation) sorted(spec SortSpec) ([]tgm.NodeID, error) {
	sc, err := pr.resolveSort(spec)
	if err != nil {
		return nil, err
	}
	ids := pr.rowIDs
	keys := make([]int64, len(ids))
	switch {
	case sc.part != nil:
		// On the prepared order the rows are the grouping's keys, so row
		// i's count is group i's size; a view of a view looks rows up.
		if !pr.reordered {
			for i := range keys {
				keys[i] = int64(sc.part.CountAt(i))
			}
		} else {
			for i, id := range ids {
				keys[i] = int64(sc.part.Count(id))
			}
		}
	case sc.neighbor != nil:
		if err := sc.neighbor.Ensure(); err != nil {
			return nil, err
		}
		for i, id := range ids {
			keys[i] = int64(sc.neighbor.Degree(id))
		}
	default:
		rank, err := pr.g.AttrRank(pr.primType.Name, sc.attr)
		if err != nil {
			return nil, err
		}
		lo, _ := pr.g.TypeIDRange(pr.primType.Name)
		for i, id := range ids {
			keys[i] = int64(rank[id-lo])
		}
	}
	return sortInts(ids, keys, spec.Desc), nil
}

// keyed is one row of a comparison sort: its extracted key, its
// position in the current order (the stability tie-break), and its ID.
type keyed struct {
	key int64
	pos int32
	id  tgm.NodeID
}

// sortCompared is the comparison kernel: ids reordered by keys, ties by
// position.
func sortCompared(ids []tgm.NodeID, keys []int64, desc bool) []tgm.NodeID {
	rows := make([]keyed, len(ids))
	for i, id := range ids {
		rows[i] = keyed{key: keys[i], pos: int32(i), id: id}
	}
	slices.SortFunc(rows, func(a, b keyed) int {
		c := cmp.Compare(a.key, b.key)
		if desc {
			c = -c
		}
		if c == 0 {
			c = cmp.Compare(a.pos, b.pos)
		}
		return c
	})
	out := make([]tgm.NodeID, len(ids))
	for i := range rows {
		out[i] = rows[i].id
	}
	return out
}

// denseSpan bounds the counting sort: integer keys whose range is at
// most denseSpan buckets per row — reference counts, the ranks of a
// table that keeps most of its type's rows — sort in O(n + range) with
// a bucket table no larger than a few row-ID slices; anything sparser
// compares.
const denseSpan = 4

// sortInts orders ids by integer keys, choosing the kernel from the
// keys' range.
func sortInts(ids []tgm.NodeID, keys []int64, desc bool) []tgm.NodeID {
	if len(keys) == 0 {
		return nil
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	// hi-lo as unsigned: exact even when the difference overflows int64.
	span := uint64(hi) - uint64(lo)
	if span >= uint64(denseSpan*len(keys)) {
		return sortCompared(ids, keys, desc)
	}
	// Counting sort. bucket maps a key to its rank among the distinct
	// key values in output order, so Desc reverses buckets, not rows:
	// the scatter below walks rows in position order either way.
	bucket := func(k int64) uint64 {
		if desc {
			return uint64(hi) - uint64(k)
		}
		return uint64(k) - uint64(lo)
	}
	next := make([]int32, span+2) // next[b+1] counts bucket b, then prefix-sums to b's first slot
	for _, k := range keys {
		next[bucket(k)+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	out := make([]tgm.NodeID, len(ids))
	for i, k := range keys {
		b := bucket(k)
		out[next[b]] = ids[i]
		next[b]++
	}
	return out
}
