package graphrel

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// The relational operators over tuples that the engine does not run —
// Select over a relation and Retain — kept as references and fixtures:
// SelectSet is tested against Select, and Enumerate against JoinScan
// (join_oracle_test.go). base and pairs build the tests' relations.

// base is a node type's base graph relation, its attribute named attr:
// every node of the type, ascending (a one-node Enumerate).
func base(g *tgm.InstanceGraph, typeName, attr string) (*Relation, error) {
	nt := g.Schema().NodeType(typeName)
	if nt == nil {
		return nil, fmt.Errorf("graphrel: unknown node type %q", typeName)
	}
	return Enumerate(nil, g, []Attr{{Name: attr, Type: nt}}, []NodeSet{SetOf(g.NodesOfType(typeName))}, []TreeEdge{{}})
}

// pairs is the join of two node types' every node along edgeType,
// oriented from → to (a two-node Enumerate): rows ascend by the from
// node, each one's to nodes in adjacency order. Unlike JoinScan it
// costs what it returns, so it builds the fixtures that span morsels.
func pairs(g *tgm.InstanceGraph, from, to, edgeType string) (*Relation, error) {
	attrs := []Attr{{Name: from, Type: g.Schema().NodeType(from)}, {Name: to, Type: g.Schema().NodeType(to)}}
	sets := []NodeSet{SetOf(g.NodesOfType(from)), SetOf(g.NodesOfType(to))}
	return Enumerate(nil, g, attrs, sets, []TreeEdge{{}, {Down: g.Adjacency(edgeType)}})
}

// Select returns the tuples whose node at the named attribute satisfies
// pred (σ_Ci applied to attribute A_i); a nil pred returns r unchanged.
// One scan keeps the rows and one gather copies them out, in row order.
func Select(r *Relation, attrName string, pred *expr.Pred) (*Relation, error) {
	if pred == nil {
		return r, nil
	}
	ai := r.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	if nt := r.Attrs[ai].Type; nt.Name != pred.NodeType().Name {
		return nil, fmt.Errorf("graphrel: condition compiled for %q selects attribute %q of type %q",
			pred.NodeType().Name, attrName, nt.Name)
	}
	bound, err := pred.Bind(r.g)
	if err != nil {
		return nil, err
	}
	defer bound.Release()
	keep, err := bound.Select(r.cols[ai], 0, r.n, nil)
	if err != nil {
		return nil, err
	}
	return r.gather(keep), nil
}

// gather materializes the listed rows into a fresh relation, copying
// column-wise from the source.
func (r *Relation) gather(rows []int32) *Relation {
	out := r.sized(len(rows))
	for c, col := range r.cols {
		for j, ri := range rows {
			out.cols[c][j] = col[ri]
		}
	}
	return out
}

// sized returns a relation with r's attributes and n zeroed rows.
func (r *Relation) sized(n int) *Relation {
	out := &Relation{g: r.g, Attrs: r.Attrs, cols: make([][]tgm.NodeID, len(r.cols)), n: n}
	for c := range out.cols {
		out.cols[c] = make([]tgm.NodeID, n)
	}
	return out
}

// Retain returns r restricted to the named attributes without duplicate
// elimination. Columns are shared with r (zero copy).
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
