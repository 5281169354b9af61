package etable

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/tgm"
	"repro/internal/value"
)

// This file is the sort op: "Sort table by …" reorders a presentation's
// rows as extract-then-sort. One pass over the row order fills a typed
// key vector — no comparison ever goes back to the graph — and the
// (key, position) pairs are then ordered by the cheapest kernel the
// data admits:
//
//   - []int64 keys (reference counts; attribute columns whose presented
//     values are all INT or all BOOL) take an O(n) counting sort when
//     their range is dense (denseSpan), a comparison sort otherwise;
//   - []string keys (all STRING) and the []value.V fallback (NULLs,
//     FLOATs, mixed kinds, ordered by value.Compare) take the
//     comparison sort.
//
// The sort is stable — rows with equal keys keep their current relative
// order — under every kernel: the counting sort scatters in position
// order, and the comparison sort breaks key ties by position, which
// makes the unstable slices.SortFunc produce the one permutation a
// stable sort by value.Compare produces. Desc flips the key comparison
// only, never the tie-break. The one exception is NaN, which
// value.Compare reports equal to everything: no order is consistent
// with that, so rows keyed NaN land in an unspecified (but
// deterministic) position.

// SortSpec orders result rows. Exactly one of Attr or Column is set:
// Attr sorts by a base attribute value; Column sorts an entity-reference
// column by its reference count (the paper's "Sort table by # of …").
type SortSpec struct {
	Attr   string
	Column string
	Desc   bool
}

// sortColumn is a resolved sort target; exactly one field is set.
type sortColumn struct {
	attr     []value.V   // the base attribute's column, indexed by node row
	part     groupSource // a participating column's grouping
	neighbor *tgm.Adjacency
}

// resolveSort resolves spec against the presentation's columns. It
// reads only column metadata, except that a base attribute's column is
// resolved here: on an out-of-core graph that faults the section in
// (typed errors propagate to the caller) and the sort then reads one
// resident column.
func (pr *Presentation) resolveSort(spec SortSpec) (sortColumn, error) {
	switch {
	case spec.Attr != "":
		for i := range pr.columns {
			if pr.columns[i].Kind == ColBase && pr.columns[i].Attr == spec.Attr {
				col, err := pr.g.AttrColumn(pr.primType.Name, pr.primType.AttrIndex(spec.Attr))
				return sortColumn{attr: col}, err
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
// reordering anything.
func (pr *Presentation) ValidateSort(spec SortSpec) error {
	_, err := pr.resolveSort(spec)
	return err
}

// SortedView returns a presentation of the same prepared state stably
// reordered per spec, leaving the receiver untouched — the one sort.
// The permutation is the one a stable sort of the fully materialized
// table by value.Compare yields (ties keep the receiver's order: the
// canonical ID-ascending order on a fresh presentation, the previous
// sort's on a view of a view), which the sort equivalence fuzz pins.
// The view shares the receiver's columns, per-column groupings, and
// neighbor layout — the expensive products of Prepare — and owns only a
// fresh row-ID slice, so every sort variant of one pattern costs one
// key extraction and one sort on top of a single Prepare. Views and
// their base are immutable and may Window concurrently.
func (pr *Presentation) SortedView(spec SortSpec) (*Presentation, error) {
	ids, err := pr.sorted(spec)
	if err != nil {
		return nil, err
	}
	cp := *pr
	cp.rowIDs = ids
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
	switch {
	case sc.part != nil:
		keys := make([]int64, len(ids))
		for i, id := range ids {
			keys[i] = int64(sc.part.Count(id))
		}
		return sortInts(ids, keys, spec.Desc), nil
	case sc.neighbor != nil:
		if err := sc.neighbor.Ensure(); err != nil {
			return nil, err
		}
		keys := make([]int64, len(ids))
		for i, id := range ids {
			keys[i] = int64(sc.neighbor.Degree(id))
		}
		return sortInts(ids, keys, spec.Desc), nil
	}
	return pr.sortedByAttr(sc.attr, spec.Desc), nil
}

// sortedByAttr orders the rows by one attribute column. The first key's
// kind picks the typed vector to try; a key of any other kind abandons
// it for the value.V fallback, so the typed arms only ever see the
// uniform-kind columns for which a native comparison equals
// value.Compare (INT against BOOL, or either against NULL or FLOAT,
// orders by kind rank, which no native comparison reproduces).
func (pr *Presentation) sortedByAttr(col []value.V, desc bool) []tgm.NodeID {
	ids, g := pr.rowIDs, pr.g
	if len(ids) == 0 {
		return nil
	}
	switch kind := col[g.Node(ids[0]).Row].Kind(); kind {
	case value.KindInt, value.KindBool:
		keys := make([]int64, len(ids))
		for i, id := range ids {
			v := &col[g.Node(id).Row]
			if v.Kind() != kind {
				keys = nil
				break
			}
			keys[i] = v.AsInt()
		}
		if keys != nil {
			return sortInts(ids, keys, desc)
		}
	case value.KindString:
		keys := make([]string, len(ids))
		for i, id := range ids {
			v := &col[g.Node(id).Row]
			if v.Kind() != kind {
				keys = nil
				break
			}
			keys[i] = v.AsString()
		}
		if keys != nil {
			return sortKeyed(ids, keys, strings.Compare, desc)
		}
	}
	keys := make([]value.V, len(ids))
	for i, id := range ids {
		keys[i] = col[g.Node(id).Row]
	}
	return sortKeyed(ids, keys, value.Compare, desc)
}

// keyed is one row of a comparison sort: its extracted key, its
// position in the current order (the stability tie-break), and its ID.
type keyed[K any] struct {
	key K
	pos int32
	id  tgm.NodeID
}

// sortKeyed is the comparison kernel: ids reordered by keys under
// compare, ties by position.
func sortKeyed[K any](ids []tgm.NodeID, keys []K, compare func(a, b K) int, desc bool) []tgm.NodeID {
	rows := make([]keyed[K], len(ids))
	for i, id := range ids {
		rows[i] = keyed[K]{key: keys[i], pos: int32(i), id: id}
	}
	slices.SortFunc(rows, func(a, b keyed[K]) int {
		c := compare(a.key, b.key)
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
// most denseSpan buckets per row — reference counts, years, page
// numbers, foreign keys — sort in O(n + range) with a bucket table no
// larger than a few row-ID slices; anything sparser compares.
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
		return sortKeyed(ids, keys, cmp.Compare[int64], desc)
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
