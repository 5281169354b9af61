package tgm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/value"
)

// An attribute column's rank is its order, paid for once: rank[row] is
// the row's position among the column's distinct values under
// value.Compare, so two rows get the same rank exactly when Compare
// calls them equal and a lower rank exactly when it orders them first.
// A sort by the attribute then reads one int32 per row and orders
// integers; no sort compares strings or values again.
//
// Two inputs have no order consistent with value.Compare, and the rank
// settles them as follows:
//
//   - NaN, which Compare reports equal to every number. NaN gets a rank
//     of its own, just below the column's lowest number (above its
//     BOOLs), so it never merges two distinct numeric ranks: every
//     non-NaN row keeps exactly Compare's order.
//   - INT and FLOAT values past ±2^53 in one column, where Compare
//     (which compares an INT with a FLOAT as float64) is not transitive:
//     2^53+1 > 2^53 as INTs, yet both equal the FLOAT 2^53. Such a column
//     still gets dense, deterministic ranks, but they may disagree with
//     Compare on pairs past 2^53 — two such INTs may share a rank.
//     Uniform INT columns are exact at any magnitude.

// rankDenseSpan bounds the counting build: integer columns whose range
// is at most rankDenseSpan slots per row rank in O(n + range) with no
// comparison; sparser ones sort.
const rankDenseSpan = 4

// rankKey is an attribute rank's key in the graph's derived-state
// registry: the node type and the attribute ordinal.
type rankKey struct {
	typeName string
	ai       int
}

// AttrRank returns the order-preserving rank of attribute ordinal ai of
// typeName, aligned with NodesOfType(typeName): rank[a] < rank[b]
// exactly when value.Compare orders row a's value before row b's, and
// the ranks are dense (0 … distinct values − 1). NaN and INT/FLOAT
// mixes past 2^53 are the two exceptions, documented above.
//
// The rank is derived state (Derive): on a frozen graph it is built on
// the first call — from the column, which an out-of-core graph faults
// in unpinned — and kept for the graph's lifetime; concurrent first
// calls share one build. A fault returns the column source's typed
// error and keeps nothing. An unfrozen graph ranks on every call.
//
// A rank costs 4 bytes per row, and only for columns that are actually
// ranked. On an out-of-core graph it lives outside the column source's
// residency budget: the pager neither counts nor evicts it. The
// returned slice must not be modified.
func (g *InstanceGraph) AttrRank(typeName string, ai int) ([]int32, error) {
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return nil, fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if ai < 0 || ai >= len(nt.Attrs) {
		return nil, fmt.Errorf("tgm: type %q has no attribute ordinal %d", typeName, ai)
	}
	if len(g.byType[typeName]) == 0 {
		return nil, nil
	}
	return Derive(g, rankKey{typeName, ai}, func() ([]int32, error) {
		col, err := g.block(nt).column(ai)
		if err != nil {
			return nil, err
		}
		return buildRank(col), nil
	})
}

// buildRank ranks one non-empty column with the cheapest kernel its
// kinds admit: a counting or integer sort over the payload words for
// uniform INT or BOOL, a string sort for uniform STRING, and the
// comparator only for FLOAT, NULL or mixed kinds — the columns where a
// native comparison would differ from value.Compare.
func buildRank(col value.Column) []int32 {
	rank := make([]int32, col.Len())
	switch k := col.Kind(0); {
	case (k == value.KindInt || k == value.KindBool) && col.Uniform(k):
		rankInts(col.Nums(), rank)
	case k == value.KindString && col.Uniform(k):
		rankStrings(col, rank)
	default:
		rankSorted(col.Len(), col.At, compareForRank, rank)
	}
	return rank
}

// rankInts ranks a column of one integer kind from its payload words.
// A dense range marks each present value in a slot table and
// prefix-counts the marks into ranks; a sparse one sorts.
func rankInts(nums []uint64, rank []int32) {
	lo, hi := int64(nums[0]), int64(nums[0])
	for _, n := range nums {
		k := int64(n)
		lo, hi = min(lo, k), max(hi, k)
	}
	// hi-lo as unsigned: exact even when the difference overflows int64.
	span := uint64(hi) - uint64(lo)
	if span >= uint64(rankDenseSpan*len(nums)) {
		rankSorted(len(nums), func(i int) int64 { return int64(nums[i]) }, cmp.Compare[int64], rank)
		return
	}
	slot := make([]int32, span+1)
	for _, n := range nums {
		slot[n-uint64(lo)] = 1
	}
	next := int32(0)
	for s, present := range slot {
		slot[s] = next
		next += present
	}
	for i, n := range nums {
		rank[i] = slot[n-uint64(lo)]
	}
}

// rankStrings ranks a column of STRINGs, for which value.Compare is
// strings.Compare. It is rankSorted with the comparison called
// directly: the title column's build is the costliest, and the
// indirect call costs it about 15%.
func rankStrings(col value.Column, rank []int32) {
	type pair struct {
		s   string
		row int32
	}
	ps := make([]pair, col.Len())
	for i := range ps {
		ps[i] = pair{col.Str(i), int32(i)}
	}
	slices.SortFunc(ps, func(a, b pair) int { return strings.Compare(a.s, b.s) })
	r := int32(0)
	for i := range ps {
		if i > 0 && ps[i-1].s != ps[i].s {
			r++
		}
		rank[ps[i].row] = r
	}
}

// rankPair is one row of a comparison build: its key and its row.
type rankPair[K any] struct {
	key K
	row int32
}

// rankSorted sorts the (key(row), row) pairs of an n-row column by
// compare and walks them in order, handing each row its dense rank: the
// previous row's, or one more when the keys differ.
func rankSorted[K any](n int, key func(row int) K, compare func(a, b K) int, rank []int32) {
	ps := make([]rankPair[K], n)
	for i := range ps {
		ps[i] = rankPair[K]{key(i), int32(i)}
	}
	slices.SortFunc(ps, func(a, b rankPair[K]) int { return compare(a.key, b.key) })
	r := int32(0)
	for i := range ps {
		if i > 0 && compare(ps[i-1].key, ps[i].key) != 0 {
			r++
		}
		rank[ps[i].row] = r
	}
}

// compareForRank is value.Compare with NaN placed: NaN equals NaN and
// orders below every other number, where Compare would call it equal to
// all of them. Every other pair compares exactly as Compare does.
func compareForRank(a, b value.V) int {
	an, bn := isNaN(a), isNaN(b)
	switch {
	case an && bn:
		return 0
	case an && b.IsNumeric():
		return -1
	case bn && a.IsNumeric():
		return 1
	}
	return value.Compare(a, b)
}

func isNaN(v value.V) bool { return v.Kind() == value.KindFloat && math.IsNaN(v.AsFloat()) }
