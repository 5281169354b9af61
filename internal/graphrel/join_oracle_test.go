package graphrel

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// JoinScan is the join oracle, r1 ∗_ρ r2: the tuples (t1, t2) such that
// an edge of type edgeType connects t1's node at leftAttr to t2's node
// at rightAttr. It nested-loops over both relations, scanning the left
// node's Neighbors for each pair, so it shares no code with Reduce,
// Relation.Len or the test walk (enumerate), which must agree with it
// (its tuples come in left-row, then right-row order).
func JoinScan(r1, r2 *tuples, edgeType, leftAttr, rightAttr string) (*tuples, error) {
	if r1.g.Schema().EdgeType(edgeType) == nil {
		return nil, fmt.Errorf("graphrel: unknown edge type %q", edgeType)
	}
	li, ri := r1.AttrIndex(leftAttr), r2.AttrIndex(rightAttr)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("graphrel: bad join attributes %q, %q", leftAttr, rightAttr)
	}
	out := &tuples{g: r1.g, Attrs: append(slices.Clone(r1.Attrs), r2.Attrs...),
		cols: make([][]tgm.NodeID, len(r1.cols)+len(r2.cols))}
	for i, lid := range r1.cols[li] {
		for j, rid := range r2.cols[ri] {
			if !slices.Contains(r1.g.Neighbors(lid, edgeType), rid) {
				continue
			}
			for c, col := range r1.cols {
				out.cols[c] = append(out.cols[c], col[i])
			}
			for c, col := range r2.cols {
				out.cols[len(r1.cols)+c] = append(out.cols[len(r1.cols)+c], col[j])
			}
			out.n++
		}
	}
	return out, nil
}

// selectCond is the tests' reference selection: cond compiled against
// the named attribute's node type, then the serial Select.
func selectCond(r *tuples, attrName string, cond expr.Expr) (*tuples, error) {
	pred, err := compileCond(r, attrName, cond)
	if err != nil {
		return nil, err
	}
	return Select(r, attrName, pred)
}

// compileCond compiles cond for r's named attribute (nil cond → nil
// pred, which Select passes through).
func compileCond(r *tuples, attrName string, cond expr.Expr) (*expr.Pred, error) {
	if cond == nil {
		return nil, nil
	}
	ai := r.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	return expr.Compile(cond, r.Attrs[ai].Type)
}
