// Package graphrel implements the paper's graph relation algebra
// (§5.4.1): base graph relations over node types of a TGDB instance
// graph, the Selection (σ, over a node set: SelectSet) and the streamed
// Join (∗, over an edge type: StreamJoin) — plus the semi-join kernels
// over node sets (semijoin.go) from which internal/etable computes the
// instance matching function m(Q) (Definition 4) without materializing
// it.
//
// A graph relation is like a relation in the relational model, except
// that each attribute's domain is the node set of one node type: a tuple
// is a list of node IDs, stored column-major, every column of a
// relation carved from one arena. A selection condition is compiled to
// kernels that scan the attribute columns directly (expr.Compile).
//
// Node IDs are dense int32 ordinals and a type's nodes lie in one ID
// span (tgm.TypeIDRange), so no kernel hashes them: a join's build side
// is a counting-sort index keyed by id − lo (joinIndex), a node set is
// a bitset over its own span (NodeSet), and a row's related nodes its
// adjacency filtered by the sets on a tree path (Path). ID-indexed
// scratch arrays live for one call; what is returned is sized by the
// result.
//
// # Immutability and sharing contract
//
// Relations and node sets are immutable once an operator returns them,
// and every operator treats its inputs as read-only: Base/BaseNamed
// alias the frozen graph's per-type node list, and joinOutput writes
// only into fresh arenas before the result escapes. So all read accessors and operators are
// safe to call concurrently on shared values with no synchronization;
// callers must not modify the slices Column/ColumnNamed return.
package graphrel

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/tgm"
)

// Attr is one attribute of a graph relation: a node type plus a unique
// name distinguishing repeated occurrences of the same type.
type Attr struct {
	// Name is unique within the relation ("Papers", "Papers#2", …).
	Name string
	// Type is the node type defining the attribute's domain.
	Type *tgm.NodeType
}

// Relation is a graph relation R^G: an attribute list and, per
// attribute, a column of node IDs. All columns have equal length; the
// tuple at row i is (cols[0][i], …, cols[k-1][i]). Columns are immutable
// once built and may be shared between relations (Base aliases the
// instance graph's node lists).
type Relation struct {
	g     *tgm.InstanceGraph
	Attrs []Attr
	cols  [][]tgm.NodeID
	n     int
}

// newRelation allocates a relation with one column per attribute, all
// backed by a single arena of n×len(attrs) IDs.
func newRelation(g *tgm.InstanceGraph, attrs []Attr, n int) *Relation {
	r := &Relation{g: g, Attrs: attrs, n: n, cols: make([][]tgm.NodeID, len(attrs))}
	if n > 0 && len(attrs) > 0 {
		arena := make([]tgm.NodeID, n*len(attrs))
		for i := range r.cols {
			r.cols[i] = arena[i*n : (i+1)*n : (i+1)*n]
		}
	}
	return r
}

// Graph returns the instance graph the relation's nodes live in.
func (r *Relation) Graph() *tgm.InstanceGraph { return r.g }

// AttrIndex returns the ordinal of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Column returns the column of the attribute at ordinal ai. The returned
// slice must not be modified.
func (r *Relation) Column(ai int) []tgm.NodeID { return r.cols[ai] }

// ColumnNamed returns the named attribute's column, or nil. The returned
// slice must not be modified.
func (r *Relation) ColumnNamed(name string) []tgm.NodeID {
	if ai := r.AttrIndex(name); ai >= 0 {
		return r.cols[ai]
	}
	return nil
}

// At returns the node at (row, attribute ordinal).
func (r *Relation) At(row, ai int) tgm.NodeID { return r.cols[ai][row] }

func gatherInto(dst, src []tgm.NodeID, rows []int32) {
	for j, ri := range rows {
		dst[j] = src[ri]
	}
}

// Base returns the base graph relation of a node type: one
// single-attribute tuple per node instance, in insertion order.
func Base(g *tgm.InstanceGraph, typeName string) (*Relation, error) {
	return BaseNamed(g, typeName, typeName)
}

// BaseNamed is Base with an explicit attribute name, used when the same
// node type participates in a query more than once. The column aliases
// the instance graph's node list, so a base relation allocates nothing
// beyond its header.
func BaseNamed(g *tgm.InstanceGraph, typeName, attrName string) (*Relation, error) {
	nt := g.Schema().NodeType(typeName)
	if nt == nil {
		return nil, fmt.Errorf("graphrel: unknown node type %q", typeName)
	}
	ids := g.NodesOfType(typeName)
	return &Relation{
		g:     g,
		Attrs: []Attr{{Name: attrName, Type: nt}},
		cols:  [][]tgm.NodeID{ids},
		n:     len(ids),
	}, nil
}

// SelectSet is the selection σ over a node set: the members of ids —
// nodes of pred's type, strictly ascending, like a type's node list or
// a NodeSet's IDs — whose node satisfies pred, a condition already
// compiled against that type (expr.Compile), so callers that keep
// compiled conditions across executions (the etable plan) never pay a
// per-call compile. A nil pred keeps them all.
//
// The condition runs a column at a time: SelectSet pins the attribute
// columns pred reads once (expr.Pred.Bind), every ID range scans them
// directly, and every pin is released before SelectSet returns. A
// column that fails to fault in fails the selection with the column
// source's typed error; it never reads as NULL. The kept members' bits
// are set straight from the scan's keep lists: no tuple is gathered.
// More than one morsel of ids fans out over pool under budget (see
// parallel.go); the set is the same either way, and ctx is checked
// between morsels.
func SelectSet(ctx context.Context, pool *exec.Pool, budget int, g *tgm.InstanceGraph, ids []tgm.NodeID, pred *expr.Pred) (NodeSet, error) {
	if pred == nil || len(ids) == 0 {
		return SetOf(ids), nil
	}
	if lo, hi := g.TypeIDRange(pred.NodeType().Name); ids[0] < lo || ids[len(ids)-1] > hi {
		return NodeSet{}, fmt.Errorf("graphrel: condition compiled for %q selects nodes of another type", pred.NodeType().Name)
	}
	if err := ctxErr(ctx); err != nil {
		return NodeSet{}, err
	}
	bound, err := pred.Bind(g)
	if err != nil {
		return NodeSet{}, err
	}
	defer bound.Release()
	var keeps [][]int32
	if pool == nil || budget <= 1 || len(ids) <= MorselRows {
		keep, err := bound.Select(ids, 0, len(ids))
		if err != nil {
			return NodeSet{}, err
		}
		keeps = [][]int32{keep}
	} else {
		bounds := morselBounds(len(ids), MorselRows)
		keeps = make([][]int32, len(bounds))
		if err := pool.Map(ctx, len(bounds), budget, func(m int) (err error) {
			keeps[m], err = bound.Select(ids, bounds[m][0], bounds[m][1])
			return err
		}); err != nil {
			return NodeSet{}, err
		}
	}
	s := NodeSet{lo: ids[0], bits: NewBitset(int(ids[len(ids)-1]-ids[0]) + 1)}
	for _, keep := range keeps {
		for _, k := range keep {
			d := uint(ids[k] - s.lo)
			s.bits[d>>6] |= 1 << (d & 63)
		}
		s.n += len(keep)
	}
	return s.trim(), nil
}

// checkJoin validates a join's edge type and attributes, returning the
// resolved column ordinals and the adjacency handle it walks — the edge
// type's, or against it its inverse (tgm.InstanceGraph.Inverse) —
// loaded: a deferred adjacency that fails to load fails the join with
// the loader's typed error instead of probing as "no neighbors" — an
// empty relation that would then be cached for every session.
func checkJoin(r1, r2 *Relation, edgeType string, against bool, leftAttr, rightAttr string) (li, ri int, adj tgm.Adjacency, err error) {
	fail := func(format string, args ...any) (int, int, tgm.Adjacency, error) {
		return 0, 0, tgm.Adjacency{}, fmt.Errorf("graphrel: "+format, args...)
	}
	if r1.g != r2.g {
		return fail("joining relations from different graphs")
	}
	et := r1.g.Schema().EdgeType(edgeType)
	if et == nil {
		return fail("unknown edge type %q", edgeType)
	}
	source, target, adj := et.Source, et.Target, r1.g.Adjacency(edgeType)
	if against {
		source, target, adj = et.Target, et.Source, r1.g.Inverse(edgeType)
	}
	li, ri = r1.AttrIndex(leftAttr), r2.AttrIndex(rightAttr)
	if li < 0 {
		return fail("left relation has no attribute %q", leftAttr)
	}
	if ri < 0 {
		return fail("right relation has no attribute %q", rightAttr)
	}
	if r1.Attrs[li].Type.Name != source {
		return fail("edge %q requires source type %q, attribute %q has %q",
			edgeType, source, leftAttr, r1.Attrs[li].Type.Name)
	}
	if r2.Attrs[ri].Type.Name != target {
		return fail("edge %q requires target type %q, attribute %q has %q",
			edgeType, target, rightAttr, r2.Attrs[ri].Type.Name)
	}
	if err := adj.Ensure(); err != nil {
		return fail("edge %q adjacency: %w", edgeType, err)
	}
	return li, ri, adj, nil
}

// joinOutput materializes a join result from matched row-index pairs.
func joinOutput(r1, r2 *Relation, lrows, rrows []int32) *Relation {
	attrs := make([]Attr, 0, len(r1.Attrs)+len(r2.Attrs))
	attrs = append(append(attrs, r1.Attrs...), r2.Attrs...)
	out := newRelation(r1.g, attrs, len(lrows))
	for c, col := range r1.cols {
		gatherInto(out.cols[c], col, lrows)
	}
	for c, col := range r2.cols {
		gatherInto(out.cols[len(r1.cols)+c], col, rrows)
	}
	return out
}

// joinIndex is the build side of the graph join: a relation's rows
// counting-sorted by their node at one attribute. Node IDs are dense
// ordinals and an attribute's nodes all lie in its type's ID span, so
// the index is two flat arrays keyed by id − lo: rows[offs[k]:offs[k+1]]
// are the rows holding node lo+k, ascending. It is built once per join,
// shared read-only by every probe range, and dropped with the stream.
type joinIndex struct {
	lo   tgm.NodeID
	offs []int32
	rows []int32
}

// buildJoinIndex indexes r's rows by their node at attribute ordinal
// ai. The fill runs backwards through the end offsets, which needs no
// cursor array and is stable: each node's rows stay ascending.
func buildJoinIndex(r *Relation, ai int) joinIndex {
	lo, hi := r.g.TypeIDRange(r.Attrs[ai].Type.Name)
	col := r.cols[ai]
	offs := make([]int32, int(hi-lo)+2)
	for _, id := range col {
		offs[id-lo]++
	}
	endOffsets(offs)
	rows := make([]int32, len(col))
	for i := len(col) - 1; i >= 0; i-- {
		k := col[i] - lo
		offs[k]--
		rows[offs[k]] = int32(i)
	}
	return joinIndex{lo: lo, offs: offs, rows: rows}
}

// endOffsets turns per-key counts into each key's end offset in place
// (inclusive prefix sums) — the middle step of the join index's
// counting sort. Filling backwards from the ends leaves
// each key's start offset behind and keeps equal keys in input order.
func endOffsets(counts []int32) {
	var end int32
	for k, n := range counts {
		end += n
		counts[k] = end
	}
}

// rowsOf returns the indexed rows holding node id (none for an ID
// outside the indexed type's span).
func (ix joinIndex) rowsOf(id tgm.NodeID) []int32 {
	k := int(id) - int(ix.lo)
	if k < 0 || k >= len(ix.offs)-1 {
		return nil
	}
	return ix.rows[ix.offs[k]:ix.offs[k+1]]
}

// probe joins lcol's rows through the adjacency handle: for each left
// row, every edge-connected indexed row joins, in adjacency then
// ascending right-row order. It is the per-range phase shared by Join
// (the whole left column) and StreamJoin (one call per batch), so the
// two cannot drift apart.
//
// A count pass sizes both outputs first, so the fill writes into
// exactly-sized slices instead of growing them by appending.
func (ix joinIndex) probe(adj tgm.Adjacency, lcol []tgm.NodeID) (lrows, rrows []int32) {
	n := 0
	for _, id := range lcol {
		for _, nb := range adj.Neighbors(id) {
			n += len(ix.rowsOf(nb))
		}
	}
	if n == 0 {
		return nil, nil
	}
	lrows, rrows = make([]int32, n), make([]int32, n)
	k := 0
	for i, id := range lcol {
		for _, nb := range adj.Neighbors(id) {
			for _, j := range ix.rowsOf(nb) {
				lrows[k], rrows[k] = int32(i), j
				k++
			}
		}
	}
	return lrows, rrows
}
