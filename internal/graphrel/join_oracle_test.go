package graphrel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
)

// JoinScan is the join oracle: Join without the adjacency index or the
// hash side. It nested-loops over both relations, scanning the left
// node's Neighbors for each pair, so it shares no code with
// probeRange/buildJoinIndex and must
// return the same tuples as Join (possibly in a different order). The
// join operators are tested against it and
// BenchmarkAblation_AdjacencyIndex measures what the index buys.
func JoinScan(r1, r2 *Relation, edgeType, leftAttr, rightAttr string) (*Relation, error) {
	if r1.g.Schema().EdgeType(edgeType) == nil {
		return nil, fmt.Errorf("graphrel: unknown edge type %q", edgeType)
	}
	li, ri := r1.AttrIndex(leftAttr), r2.AttrIndex(rightAttr)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("graphrel: bad join attributes %q, %q", leftAttr, rightAttr)
	}
	var lrows, rrows []int32
	for i, lid := range r1.cols[li] {
		for j, rid := range r2.cols[ri] {
			if slices.Contains(r1.g.Neighbors(lid, edgeType), rid) {
				lrows = append(lrows, int32(i))
				rrows = append(rrows, int32(j))
			}
		}
	}
	return joinOutput(r1, r2, lrows, rrows), nil
}

// selectCond is the tests' reference selection: cond compiled against
// the named attribute's node type, then the serial Select.
func selectCond(r *Relation, attrName string, cond expr.Expr) (*Relation, error) {
	pred, err := compileCond(r, attrName, cond)
	if err != nil {
		return nil, err
	}
	return Select(nil, nil, 1, r, attrName, pred)
}

// compileCond compiles cond for r's named attribute (nil cond → nil
// pred, which Select passes through).
func compileCond(r *Relation, attrName string, cond expr.Expr) (*expr.Pred, error) {
	if cond == nil {
		return nil, nil
	}
	ai := r.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	return expr.Compile(cond, r.Attrs[ai].Type)
}

// BenchmarkAblation_AdjacencyIndex contrasts the adjacency-indexed Join
// with the nested-loop oracle: what the index buys on a many-to-many
// step. The scan arm is O(|left|·|right|), so the left side is narrowed
// first to keep one iteration in the low millions of probes.
func BenchmarkAblation_AdjacencyIndex(b *testing.B) {
	g := bigChainGraph(b, rand.New(rand.NewSource(1)))
	as, err := Base(g, "A")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := Base(g, "B")
	if err != nil {
		b.Fatal(err)
	}
	left, err := selectCond(as, "A", expr.MustParse("id % 16 = 0"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Join(left, bs, "A-B", "A", "B"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := JoinScan(left, bs, "A-B", "A", "B"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
