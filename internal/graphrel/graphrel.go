// Package graphrel implements the paper's graph relation algebra
// (§5.4.1): base graph relations over node types of a TGDB instance
// graph, and the Selection (σ), Join (∗, over an edge type), and
// Projection (Π) operators. The ETable instance-matching function m(Q)
// (Definition 4) is composed from these operators in internal/etable.
//
// A graph relation is like a relation in the relational model, except
// that each attribute's domain is the node set of one node type: a tuple
// is a list of node IDs. Node attribute values stay in the instance
// graph; selection conditions are evaluated against them through an
// expression environment.
//
// Relations are stored column-major: one node-ID column per attribute,
// all columns of a relation carved from a single shared arena. Operators
// build row-index lists and gather whole columns at once, so the cost of
// a join is two index slices plus one arena allocation instead of one
// tuple slice per output row.
//
// Node IDs are dense int32 ordinals and a type's nodes lie in one ID
// span (tgm.TypeIDRange), so no kernel hashes them. The join's build
// side is a counting-sort index keyed by id − lo over the build
// column's type span (joinIndex), probed through a tgm.Adjacency handle
// that is resolved and loaded once per join; the distinct rows of a
// column are a bitset read back in order (DistinctSorted); a grouping
// is a counting sort into CSR arrays (GroupNeighbors → Groups). The
// ID-indexed arrays are transient — they live for the join's stream or
// the grouping call — and what is returned is sized by the result.
//
// # Immutability and sharing contract
//
// A Relation is immutable once an operator returns it, and every
// operator treats its inputs as read-only. This is what makes cached
// relations shareable across concurrent sessions (etable.Cache):
//
//   - Base/BaseNamed alias the instance graph's per-type node list;
//     safe because the graph is frozen after translation
//     (tgm.InstanceGraph.Freeze).
//   - Retain re-slices its input's columns (zero copy) into a fresh
//     header; neither the new nor the old relation can observe a write
//     through the other, because no code path writes a column after
//     newRelation's gather pass completes.
//   - gather/joinOutput write only into freshly allocated arenas before
//     the result escapes, so a relation's arena is never shared until
//     it is complete.
//
// Consequently all read accessors (Len, At, Column, ColumnNamed, Tuple)
// and all operators are safe to call concurrently on shared relations
// with no synchronization. Callers must uphold the documented "must not
// be modified" rule on slices returned by Column/ColumnNamed.
package graphrel

import (
	"context"
	"fmt"
	"slices"

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
// instance graph's node lists; Retain re-slices its input).
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

// SizeBytes estimates the relation's resident memory: 4 bytes per
// stored ID (tgm.NodeID is an int32-backed dense ordinal) plus the
// header. Columns shared with other relations or aliasing the instance
// graph's node lists (Base, Retain, zero-copy windows) are counted as
// if owned — the estimate answers "how much memory does this relation
// address", which is the conservative number the server's memory
// telemetry wants, not "how much would freeing it reclaim".
func (r *Relation) SizeBytes() int64 {
	const idBytes = 4
	return int64(r.n)*int64(len(r.cols))*idBytes + int64(len(r.Attrs))*48
}

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

// Tuple materializes row i as a fresh node-ID slice, in attribute order.
// It allocates; iterate columns directly on hot paths.
func (r *Relation) Tuple(i int) []tgm.NodeID {
	out := make([]tgm.NodeID, len(r.cols))
	for c, col := range r.cols {
		out[c] = col[i]
	}
	return out
}

// gather materializes the listed rows into a fresh relation, copying
// column-wise from the source.
func (r *Relation) gather(rows []int32) *Relation {
	out := newRelation(r.g, r.Attrs, len(rows))
	for c, col := range r.cols {
		gatherInto(out.cols[c], col, rows)
	}
	return out
}

func gatherInto(dst, src []tgm.NodeID, rows []int32) {
	for j, ri := range rows {
		dst[j] = src[ri]
	}
}

// Retain returns r restricted to the named attributes without duplicate
// elimination. Columns are shared with r (zero copy); Project is Retain
// followed by the dedup pass.
func (r *Relation) Retain(attrNames ...string) (*Relation, error) {
	out := &Relation{g: r.g, n: r.n,
		Attrs: make([]Attr, len(attrNames)),
		cols:  make([][]tgm.NodeID, len(attrNames))}
	for i, name := range attrNames {
		ai := r.AttrIndex(name)
		if ai < 0 {
			return nil, fmt.Errorf("graphrel: no attribute %q", name)
		}
		out.Attrs[i] = r.Attrs[ai]
		out.cols[i] = r.cols[ai]
	}
	return out, nil
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

// Select returns the tuples whose node at the named attribute satisfies
// pred (σ_Ci applied to attribute A_i), a predicate already compiled
// against that attribute's node type (expr.Compile) — callers that keep
// compiled conditions across executions (the etable plan) never pay a
// per-call compile. A nil pred returns r unchanged.
//
// Relations of more than one morsel fan out over pool under budget
// (see parallel.go for the three-phase splice); a nil pool, a budget
// <= 1, or a single-morsel input runs selectRange over [0, n) on the
// calling goroutine. Either way the output is the same relation, row
// for row, and ctx is checked between morsels.
func Select(ctx context.Context, pool *exec.Pool, budget int, r *Relation, attrName string, pred expr.Pred) (*Relation, error) {
	if pred == nil {
		return r, nil
	}
	ai := r.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	col := r.cols[ai]
	if pool == nil || budget <= 1 || r.n <= MorselRows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		keep, err := selectRange(r, col, pred, 0, r.n)
		if err != nil {
			return nil, err
		}
		return r.gather(keep), nil
	}
	bounds := morselBounds(r.n, MorselRows)

	// Phase 1: each morsel filters into its own keep list.
	keeps := make([][]int32, len(bounds))
	if err := pool.Map(ctx, len(bounds), budget, func(m int) error {
		keep, err := selectRange(r, col, pred, bounds[m][0], bounds[m][1])
		if err != nil {
			return err
		}
		keeps[m] = keep
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: prefix-sum morsel counts into disjoint output offsets.
	offs, total := prefixOffsets(keeps)

	// Phase 3: gather every morsel into its disjoint output window.
	out := newRelation(r.g, r.Attrs, total)
	if err := pool.Map(ctx, len(bounds), budget, func(m int) error {
		rows := keeps[m]
		lo := offs[m]
		for c, src := range r.cols {
			gatherInto(out.cols[c][lo:lo+len(rows)], src, rows)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// selectRange evaluates pred over col's rows [lo, hi) and returns the
// matching row indexes. It is Select's per-range phase: [0, n) in one
// call when serial, one call per morsel when fanned out, so the two
// cannot drift apart. Multi-attribute relations memoize per node, since
// nodes repeat after joins; base relations have distinct nodes, so
// memoization would only add cost.
func selectRange(r *Relation, col []tgm.NodeID, pred func(*tgm.Node) (bool, error), lo, hi int) ([]int32, error) {
	keep := make([]int32, 0, hi-lo)
	if len(r.Attrs) == 1 {
		for i := lo; i < hi; i++ {
			ok, err := pred(r.g.Node(col[i]))
			if err != nil {
				return nil, err
			}
			if ok {
				keep = append(keep, int32(i))
			}
		}
		return keep, nil
	}
	memo := make(map[tgm.NodeID]bool, 64)
	for i := lo; i < hi; i++ {
		id := col[i]
		ok, seen := memo[id]
		if !seen {
			var err error
			if ok, err = pred(r.g.Node(id)); err != nil {
				return nil, err
			}
			memo[id] = ok
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// checkJoin validates a join's edge type and attributes, returning the
// resolved column ordinals and the edge type's adjacency handle, loaded:
// a deferred adjacency that fails to load fails the join with the
// loader's typed error instead of probing as "no neighbors" — an empty
// relation that would then be cached for every session.
func checkJoin(r1, r2 *Relation, edgeType, leftAttr, rightAttr string) (li, ri int, adj tgm.Adjacency, err error) {
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
	li, ri = r1.AttrIndex(leftAttr), r2.AttrIndex(rightAttr)
	if li < 0 {
		return fail("left relation has no attribute %q", leftAttr)
	}
	if ri < 0 {
		return fail("right relation has no attribute %q", rightAttr)
	}
	if r1.Attrs[li].Type.Name != et.Source {
		return fail("edge %q requires source type %q, attribute %q has %q",
			edgeType, et.Source, leftAttr, r1.Attrs[li].Type.Name)
	}
	if r2.Attrs[ri].Type.Name != et.Target {
		return fail("edge %q requires target type %q, attribute %q has %q",
			edgeType, et.Target, rightAttr, r2.Attrs[ri].Type.Name)
	}
	adj = r1.g.Adjacency(edgeType)
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

// Join computes r1 ∗_ρ r2: the tuples (t1, t2) such that an edge of type
// edgeType connects t1's node at leftAttr to t2's node at rightAttr. It
// walks the instance graph's adjacency on the left side and a dense
// index over r2 on the right, so cost is O(|r1|·deg + |r2| + |type|)
// with no hashing. The output is materialized column-wise: matching
// first collects row-index pairs, then each attribute column is
// gathered in one pass.
//
// Join is the algebra's reference join: the execution pipeline runs
// StreamJoin, which applies the same joinIndex.probe + joinOutput phases
// per batch and is tested row for row against this operator.
func Join(r1, r2 *Relation, edgeType, leftAttr, rightAttr string) (*Relation, error) {
	li, ri, adj, err := checkJoin(r1, r2, edgeType, leftAttr, rightAttr)
	if err != nil {
		return nil, err
	}
	lrows, rrows := buildJoinIndex(r2, ri).probe(adj, r1.cols[li])
	return joinOutput(r1, r2, lrows, rrows), nil
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
	lo, hi, _ := r.g.TypeIDRange(r.Attrs[ai].Type.Name)
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
// (inclusive prefix sums) — the middle step of both counting sorts, the
// join index and the grouping. Filling backwards from the ends leaves
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
func (ix joinIndex) probe(adj tgm.Adjacency, lcol []tgm.NodeID) (lrows, rrows []int32) {
	for i, id := range lcol {
		for _, nb := range adj.Neighbors(id) {
			for _, j := range ix.rowsOf(nb) {
				lrows = append(lrows, int32(i))
				rrows = append(rrows, j)
			}
		}
	}
	return lrows, rrows
}

// Project returns r restricted to the named attributes, eliminating
// duplicate tuples in first-occurrence order (Π; the paper's projection
// removes duplicates).
func Project(r *Relation, attrNames ...string) (*Relation, error) {
	narrowed, err := r.Retain(attrNames...)
	if err != nil {
		return nil, err
	}
	return narrowed.gather(dedupRows(narrowed)), nil
}

// dedupRows returns the rows whose projection key occurs for the first
// time, in ascending row order.
func dedupRows(narrowed *Relation) []int32 {
	var keep []int32
	switch len(narrowed.cols) {
	case 1:
		seen := make(map[tgm.NodeID]bool, narrowed.n)
		for i, id := range narrowed.cols[0] {
			if !seen[id] {
				seen[id] = true
				keep = append(keep, int32(i))
			}
		}
	case 2:
		seen := make(map[uint64]bool, narrowed.n)
		c0, c1 := narrowed.cols[0], narrowed.cols[1]
		for i := range c0 {
			key := uint64(uint32(c0[i]))<<32 | uint64(uint32(c1[i]))
			if !seen[key] {
				seen[key] = true
				keep = append(keep, int32(i))
			}
		}
	default:
		seen := make(map[string]bool, narrowed.n)
		key := make([]byte, 4*len(narrowed.cols))
		for i := 0; i < narrowed.n; i++ {
			rowKeyInto(key, narrowed.cols, i)
			if !seen[string(key)] {
				seen[string(key)] = true
				keep = append(keep, int32(i))
			}
		}
	}
	return keep
}

// rowKeyInto serializes row i's IDs across cols into key (4 bytes per
// column, little-endian).
func rowKeyInto(key []byte, cols [][]tgm.NodeID, i int) {
	for c, col := range cols {
		id := uint32(col[i])
		key[4*c] = byte(id)
		key[4*c+1] = byte(id >> 8)
		key[4*c+2] = byte(id >> 16)
		key[4*c+3] = byte(id >> 24)
	}
}

// sortDedup sorts ids ascending and removes adjacent duplicates in
// place, returning the compacted slice.
func sortDedup(ids []tgm.NodeID) []tgm.NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
