// Package graphrel implements the paper's graph relation algebra
// (§5.4.1) over a TGDB instance graph as node sets: the Selection (σ,
// SelectSet), the semi-join reduction of a tree pattern (Reduce), and
// the two readings of a reduced match — a row's related nodes along a
// tree path (Path), which is what the format transformation needs, and
// the instance matching function m(Q) itself (Definition 4,
// Enumerate), a walk of the tree's adjacency filtered by the sets. The
// relational join over tuples is kept only as a test reference
// (JoinScan).
//
// A graph relation is like a relation in the relational model, except
// that each attribute's domain is the node set of one node type: a tuple
// is a list of node IDs, stored column-major. A selection condition is
// compiled to kernels that scan the attribute columns directly
// (expr.Compile).
//
// Node IDs are dense int32 ordinals and a type's nodes lie in one ID
// span (tgm.TypeIDRange), so no kernel hashes them: a node set is a
// bitset over its own span (NodeSet), and a row's related nodes its
// adjacency filtered by the sets on a tree path (Path). Scratch arrays
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
// ColumnNamed and NodeSet.IDs return.
package graphrel

import (
	"context"
	"fmt"

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
// tuple at row i is (cols[0][i], …, cols[k-1][i]). Enumerate builds
// one; columns are immutable once built.
type Relation struct {
	g     *tgm.InstanceGraph
	Attrs []Attr
	cols  [][]tgm.NodeID
	n     int
}

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

// ColumnNamed returns the named attribute's column, or nil (a relation
// with no tuples may hold nil columns too: AttrIndex tells them apart).
// The returned slice must not be modified.
func (r *Relation) ColumnNamed(name string) []tgm.NodeID {
	if ai := r.AttrIndex(name); ai >= 0 {
		return r.cols[ai]
	}
	return nil
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
// source's typed error; it never reads as NULL. ids are scanned one
// MorselRows morsel at a time, ctx is checked before each, and each
// morsel's kept members' bits are set straight into the set: no tuple
// is gathered.
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
	for lo := 0; lo < len(ids); lo += MorselRows {
		if err := ctxErr(ctx); err != nil {
			return NodeSet{}, err
		}
		keep, err := bound.Select(ids, lo, min(lo+MorselRows, len(ids)))
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
