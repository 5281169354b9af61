package graphrel

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// The relational operators over tuples that the engine does not run —
// the join of a tree pattern's sets as tuples (enumerate) and Select
// over a relation — kept as references and fixtures: SelectSet is
// tested against Select, and Reduce and Relation.Len against JoinScan
// (join_oracle_test.go). base and pairs build the tests' relations.

// attr is one attribute of a tuple relation: a node type plus a unique
// name distinguishing repeated occurrences of the same type.
type attr struct {
	// Name is unique within the relation ("Papers", "Papers#2", …).
	Name string
	// Type is the node type defining the attribute's domain.
	Type *tgm.NodeType
}

// tuples is a graph relation R^G held as tuples: an attribute list
// and, per attribute, a column of node IDs. All columns are n long; the
// tuple at row i is (cols[0][i], …, cols[k-1][i]).
type tuples struct {
	g     *tgm.InstanceGraph
	Attrs []attr
	cols  [][]tgm.NodeID
	n     int
}

// AttrIndex returns the ordinal of the named attribute, or -1.
func (r *tuples) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the number of tuples.
func (r *tuples) Len() int { return r.n }

// ColumnNamed returns the named attribute's column, or nil.
func (r *tuples) ColumnNamed(name string) []tgm.NodeID {
	if ai := r.AttrIndex(name); ai >= 0 {
		return r.cols[ai]
	}
	return nil
}

// enumerate is the join of sets along tree as tuples, node i's column
// named attrs[i]. A depth-first walk places the nodes in tree order,
// node i's candidates being the members of sets[i] among the neighbors
// of its parent's node along tree[i].Down, so the rows come
// lexicographically in tree order: the root's members ascending, each
// other node's in adjacency order. Every Down is loaded first.
func enumerate(g *tgm.InstanceGraph, attrs []attr, sets []NodeSet, tree []TreeEdge) (*tuples, error) {
	if len(attrs) != len(sets) || len(tree) != len(sets) {
		return nil, fmt.Errorf("graphrel: %d attributes and %d sets over %d tree nodes", len(attrs), len(sets), len(tree))
	}
	for _, e := range tree[1:] {
		if err := e.Down.Ensure(); err != nil {
			return nil, err
		}
	}
	r := &tuples{g: g, Attrs: attrs, cols: make([][]tgm.NodeID, len(attrs))}
	tuple := make([]tgm.NodeID, len(sets))
	var place func(i int)
	place = func(i int) {
		if i == len(sets) {
			for c, id := range tuple {
				r.cols[c] = append(r.cols[c], id)
			}
			r.n++
			return
		}
		for _, y := range tree[i].Down.Neighbors(tuple[tree[i].Parent]) {
			if sets[i].Has(y) {
				tuple[i] = y
				place(i + 1)
			}
		}
	}
	for _, x := range sets[0].IDs() {
		tuple[0] = x
		place(1)
	}
	return r, nil
}

// base is a node type's base graph relation, its attribute named name:
// every node of the type, ascending (a one-node enumerate).
func base(g *tgm.InstanceGraph, typeName, name string) (*tuples, error) {
	nt := g.Schema().NodeType(typeName)
	if nt == nil {
		return nil, fmt.Errorf("graphrel: unknown node type %q", typeName)
	}
	return enumerate(g, []attr{{Name: name, Type: nt}}, []NodeSet{SetOf(g.NodesOfType(typeName))}, []TreeEdge{{}})
}

// pairs is the join of two node types' every node along edgeType,
// oriented from → to (a two-node enumerate): rows ascend by the from
// node, each one's to nodes in adjacency order. Unlike JoinScan it
// costs what it returns, so it builds the fixtures that span morsels.
func pairs(g *tgm.InstanceGraph, from, to, edgeType string) (*tuples, error) {
	attrs := []attr{{Name: from, Type: g.Schema().NodeType(from)}, {Name: to, Type: g.Schema().NodeType(to)}}
	sets := []NodeSet{SetOf(g.NodesOfType(from)), SetOf(g.NodesOfType(to))}
	return enumerate(g, attrs, sets, []TreeEdge{{}, {Down: g.Adjacency(edgeType)}})
}

// Select returns the tuples whose node at the named attribute satisfies
// pred (σ_Ci applied to attribute A_i); a nil pred returns r unchanged.
// One scan keeps the rows and one gather copies them out, in row order.
func Select(r *tuples, attrName string, pred *expr.Pred) (*tuples, error) {
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
func (r *tuples) gather(rows []int32) *tuples {
	out := r.sized(len(rows))
	for c, col := range r.cols {
		for j, ri := range rows {
			out.cols[c][j] = col[ri]
		}
	}
	return out
}

// sized returns a relation with r's attributes and n zeroed rows.
func (r *tuples) sized(n int) *tuples {
	out := &tuples{g: r.g, Attrs: r.Attrs, cols: make([][]tgm.NodeID, len(r.cols)), n: n}
	for c := range out.cols {
		out.cols[c] = make([]tgm.NodeID, n)
	}
	return out
}

// GroupNeighborsOracle is the grouping oracle, the fold the format
// transformation defines a participating cell by: every co-occurring
// value per group node collected into a map, each list sorted and
// compacted. It shares no code with Path, which must agree with it row
// for row.
func GroupNeighborsOracle(r *tuples, groupAttr, valueAttr string) (map[tgm.NodeID][]tgm.NodeID, error) {
	gi, vi := r.AttrIndex(groupAttr), r.AttrIndex(valueAttr)
	if gi < 0 || vi < 0 {
		return nil, fmt.Errorf("graphrel: bad group attributes %q, %q", groupAttr, valueAttr)
	}
	groups := make(map[tgm.NodeID][]tgm.NodeID)
	for i, g := range r.cols[gi] {
		groups[g] = append(groups[g], r.cols[vi][i])
	}
	for g, ids := range groups {
		slices.Sort(ids)
		groups[g] = slices.Compact(ids)
	}
	return groups, nil
}
