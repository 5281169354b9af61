// Package graphrel implements the paper's graph relation algebra
// (§5.4.1) over a TGDB instance graph as node sets. A selection σ keeps
// the members of a set whose node satisfies a condition compiled to
// column kernels (SelectSet, expr.Compile). A tree pattern's match is
// reduced by a bottom-up and a top-down semi-join pass (Reduce, after
// Yannakakis) to, per pattern node, exactly the nodes that extend to a
// full match. A Relation holds those sets with the tree: m(Q)
// (Definition 4) is never stored as tuples. A row's related nodes along
// a tree path are its adjacency filtered by the sets (Path), and |m(Q)|
// is a walk through them (Relation.Len). Operators over tuples — the
// join, the selection over a relation, the fold — are test references.
//
// Node IDs are dense int32 ordinals and a type's nodes lie in one ID
// span (tgm.TypeIDRange), so no kernel hashes them: a node set is a
// bitset over its own span (NodeSet). Scratch arrays
// live for one call or come from a pool; what is returned is sized by
// the result. Every operator runs on its caller's goroutine and checks
// its context between morsels or semi-join steps.
//
// # Immutability and sharing contract
//
// Relations and node sets are immutable once an operator returns them,
// and every operator treats its inputs as read-only. So all read
// accessors and operators are safe to call concurrently on shared
// values with no synchronization; callers must not modify the slices
// NewRelation takes or NodeSet.IDs returns.
package graphrel

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// Relation is a tree pattern's match m(Q) held as its fully reduced
// node sets: per tree node its key and its projection π_k(m(Q)), and
// the tree edges joining them, numbered as Reduce numbers them. A
// filtered base is the one-node case.
type Relation struct {
	keys []string
	sets []NodeSet
	tree []TreeEdge
}

// NewRelation holds sets[i] as node i, keyed keys[i] and placed by
// tree[i]. It refuses no nodes, keys, sets and tree nodes of different
// counts, and a node whose parent does not come before it.
func NewRelation(keys []string, sets []NodeSet, tree []TreeEdge) (*Relation, error) {
	if len(sets) == 0 || len(keys) != len(sets) || len(tree) != len(sets) {
		return nil, fmt.Errorf("graphrel: %d keys and %d sets over %d tree nodes", len(keys), len(sets), len(tree))
	}
	for i := 1; i < len(tree); i++ {
		if p := tree[i].Parent; p < 0 || p >= i {
			return nil, fmt.Errorf("graphrel: tree node %d has parent %d, not an earlier node", i, p)
		}
	}
	return &Relation{keys: keys, sets: sets, tree: tree}, nil
}

// Set returns the reduced set of the node keyed key.
func (r *Relation) Set(key string) (NodeSet, bool) {
	for i, k := range r.keys {
		if k == key {
			return r.sets[i], true
		}
	}
	return NodeSet{}, false
}

// SizeBytes is the resident size of the sets' bitsets.
func (r *Relation) SizeBytes() int64 {
	var n int64
	for _, s := range r.sets {
		n += s.SizeBytes()
	}
	return n
}

// Len returns |m(Q)|, counted by a depth-first walk that stores no
// tuple. Every tree edge's Down must be loaded (tgm.Adjacency.Ensure):
// an unloaded deferred adjacency reads as no neighbors.
func (r *Relation) Len() int { return walk(r.sets, r.tree) }

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
// source's typed error; it never reads as NULL. ids are scanned one
// MorselRows morsel at a time into one reused selection vector, ctx is
// checked before each, and each morsel's kept members' bits are set
// straight into the set: no tuple is gathered.
func SelectSet(ctx context.Context, g *tgm.InstanceGraph, ids []tgm.NodeID, pred *expr.Pred) (NodeSet, error) {
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
	s := NodeSet{lo: ids[0], bits: NewBitset(int(ids[len(ids)-1]-ids[0]) + 1)}
	var keep []int32
	for lo := 0; lo < len(ids); lo += MorselRows {
		if err := ctxErr(ctx); err != nil {
			return NodeSet{}, err
		}
		keep, err = bound.Select(ids, lo, min(lo+MorselRows, len(ids)), keep)
		if err != nil {
			return NodeSet{}, err
		}
		for _, k := range keep {
			d := uint(ids[k] - s.lo)
			s.bits[d>>6] |= 1 << (d & 63)
		}
		s.n += len(keep)
	}
	return s.trim(), nil
}
