package graphrel

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/tgm"
)

// The relational operators over tuples that the engine no longer runs
// — Select over a relation, the materialized Join, Retain — kept as the
// references the kernels are tested against: SelectSet against Select,
// StreamJoin against Join, which JoinScan checks in turn.

// Select returns the tuples whose node at the named attribute satisfies
// pred (σ_Ci applied to attribute A_i); a nil pred returns r unchanged.
// Relations of more than one morsel fan out over pool under budget in
// three phases — each morsel filters into its own keep list, a prefix
// sum turns their counts into disjoint output offsets, and each morsel
// gathers its rows into its own window — so the output is the same
// relation, row for row, as the serial run over [0, n).
func Select(ctx context.Context, pool *exec.Pool, budget int, r *Relation, attrName string, pred *expr.Pred) (*Relation, error) {
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
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	bound, err := pred.Bind(r.g)
	if err != nil {
		return nil, err
	}
	defer bound.Release()
	col := r.cols[ai]
	if pool == nil || budget <= 1 || r.n <= MorselRows {
		keep, err := bound.Select(col, 0, r.n)
		if err != nil {
			return nil, err
		}
		return r.gather(keep), nil
	}
	bounds := morselBounds(r.n, MorselRows)

	// Phase 1: each morsel filters into its own keep list.
	keeps := make([][]int32, len(bounds))
	if err := pool.Map(ctx, len(bounds), budget, func(m int) error {
		keep, err := bound.Select(col, bounds[m][0], bounds[m][1])
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

// prefixOffsets turns per-morsel output slices into disjoint output
// offsets, returning the offsets and the total length.
func prefixOffsets(parts [][]int32) (offs []int, total int) {
	offs = make([]int, len(parts))
	for m, p := range parts {
		offs[m] = total
		total += len(p)
	}
	return offs, total
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
	li, ri, adj, err := checkJoin(r1, r2, edgeType, false, leftAttr, rightAttr)
	if err != nil {
		return nil, err
	}
	lrows, rrows := buildJoinIndex(r2, ri).probe(adj, r1.cols[li])
	return joinOutput(r1, r2, lrows, rrows), nil
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
