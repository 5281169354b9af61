package expr

import (
	"fmt"
	"strings"

	"repro/internal/tgm"
	"repro/internal/value"
)

// Pred is a selection condition compiled against one node type to run a
// column at a time. Column names are resolved to attribute ordinals
// once, NOT is pushed to the leaves, and every leaf of the shape
// Col op Const, Col [NOT] [I]LIKE Const, Col [NOT] IN (consts),
// Col [NOT] BETWEEN Const AND Const or Col IS [NOT] NULL is a kernel: a
// loop over one attribute column that keeps the rows whose value makes
// the leaf TRUE. AND and OR combine the kept rows (Kleene logic needs
// only the TRUE sets once NOT is at the leaves). Any other leaf shape
// runs the interpreted Eval per row, over the same columns.
//
// A Pred holds no graph: Bind pins the columns it reads on one, and the
// returned Bound selects rows.
type Pred struct {
	nt *tgm.NodeType
	// attrs lists the attribute ordinals the condition reads; kernels
	// name a column by its slot in this list.
	attrs []int
	root  kernel
	// ors counts the or kernels: each keeps its merge scratch in its own
	// slot of the batch.
	ors int
}

// Compile binds e's column references to attribute ordinals of nt and
// builds its kernels. Names resolve like the interpreted path: the bare
// name first, then the unqualified suffix of a dotted name. Unknown
// columns are reported here rather than on the first row.
func Compile(e Expr, nt *tgm.NodeType) (*Pred, error) {
	c := &compiler{nt: nt}
	root, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return &Pred{nt: nt, attrs: c.attrs, root: root, ors: c.ors}, nil
}

// NodeType returns the node type p was compiled against.
func (p *Pred) NodeType() *tgm.NodeType { return p.nt }

// resolveAttr mirrors MapEnv's lookup order.
func resolveAttr(nt *tgm.NodeType, name string) int {
	if i := nt.AttrIndex(name); i >= 0 {
		return i
	}
	if j := strings.LastIndexByte(name, '.'); j >= 0 {
		return nt.AttrIndex(name[j+1:])
	}
	return -1
}

type compiler struct {
	nt    *tgm.NodeType
	attrs []int
	ors   int
}

// slot resolves a column name to its column slot, adding one on first
// use.
func (c *compiler) slot(name string) (int, error) {
	ai := resolveAttr(c.nt, name)
	if ai < 0 {
		return 0, fmt.Errorf("expr: unknown column %q", name)
	}
	for s, a := range c.attrs {
		if a == ai {
			return s, nil
		}
	}
	c.attrs = append(c.attrs, ai)
	return len(c.attrs) - 1, nil
}

func (c *compiler) compile(e Expr) (kernel, error) {
	switch ex := e.(type) {
	case And:
		l, r, err := c.compile2(ex.Left, ex.Right)
		return and{l, r}, err
	case Or:
		l, r, err := c.compile2(ex.Left, ex.Right)
		c.ors++
		return or{l, r, c.ors - 1}, err
	case Not:
		if n, ok := negate(ex.Inner); ok {
			return c.compile(n)
		}
	case Cmp:
		op := ex.Op
		col, okL := ex.Left.(Col)
		k, okR := ex.Right.(Const)
		if !okL || !okR {
			// Const op Col is Col op' Const with the operands swapped.
			col, okL = ex.Right.(Col)
			k, okR = ex.Left.(Const)
			op = mirror(op)
		}
		if okL && okR {
			s, err := c.slot(col.Name)
			if err != nil {
				return nil, err
			}
			return cmpKernel(s, op, k.Val), nil
		}
	case Like:
		col, okL := ex.Left.(Col)
		k, okR := ex.Pattern.(Const)
		if okL && okR {
			s, err := c.slot(col.Name)
			if err != nil {
				return nil, err
			}
			return likeKernel(s, k.Val, ex.CaseFold, ex.Negate), nil
		}
	case In:
		if col, ok := ex.Left.(Col); ok {
			if list, ok := consts(ex.List); ok {
				s, err := c.slot(col.Name)
				if err != nil {
					return nil, err
				}
				return inKernel(s, list, ex.Negate), nil
			}
		}
	case Between:
		col, okC := ex.Left.(Col)
		lo, okL := ex.Low.(Const)
		hi, okH := ex.High.(Const)
		if okC && okL && okH {
			s, err := c.slot(col.Name)
			if err != nil {
				return nil, err
			}
			if lo.Val.IsNull() || hi.Val.IsNull() {
				return never{}, nil
			}
			return between{slot: s, lo: lo.Val, hi: hi.Val, negate: ex.Negate}, nil
		}
	case IsNull:
		if col, ok := ex.Left.(Col); ok {
			s, err := c.slot(col.Name)
			if err != nil {
				return nil, err
			}
			return isNull{slot: s, negate: ex.Negate}, nil
		}
	}
	// Every other shape runs the interpreted Eval per row. Its columns
	// are resolved and pinned like a kernel's.
	for _, name := range e.Columns(nil) {
		if _, err := c.slot(name); err != nil {
			return nil, err
		}
	}
	return evalRows{e}, nil
}

func (c *compiler) compile2(a, b Expr) (kernel, kernel, error) {
	ka, err := c.compile(a)
	if err != nil {
		return nil, nil, err
	}
	kb, err := c.compile(b)
	if err != nil {
		return nil, nil, err
	}
	return ka, kb, nil
}

// negate returns the expression that is TRUE exactly where e is FALSE
// (and so NULL exactly where e is NULL), for the shapes that have one:
// De Morgan for the connectives, the inverse operator for a comparison
// and the Negate flag for the rest. ok is false for any other shape.
func negate(e Expr) (Expr, bool) {
	switch ex := e.(type) {
	case Not:
		return ex.Inner, true
	case And:
		return Or{Left: Not{ex.Left}, Right: Not{ex.Right}}, true
	case Or:
		return And{Left: Not{ex.Left}, Right: Not{ex.Right}}, true
	case Cmp:
		ex.Op = [...]CmpOp{OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt}[ex.Op]
		return ex, true
	case Like:
		ex.Negate = !ex.Negate
		return ex, true
	case In:
		ex.Negate = !ex.Negate
		return ex, true
	case Between:
		ex.Negate = !ex.Negate
		return ex, true
	case IsNull:
		ex.Negate = !ex.Negate
		return ex, true
	}
	return nil, false
}

// mirror returns op' with a op b ⇔ b op' a.
func mirror(op CmpOp) CmpOp {
	return [...]CmpOp{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}[op]
}

// consts returns the values of a list made only of constants.
func consts(list []Expr) ([]value.V, bool) {
	vals := make([]value.V, len(list))
	for i, e := range list {
		k, ok := e.(Const)
		if !ok {
			return nil, false
		}
		vals[i] = k.Val
	}
	return vals, true
}

// Bound is a Pred bound to one graph: the columns it reads are pinned
// resident until Release. It is used by one goroutine at a time.
type Bound struct {
	releases []func()
	// in is the batch every Select fills in: the Pred, its pinned
	// columns and the type's first node ID (a node's column row is its
	// ID − base), with the called range's IDs and the kernels' scratch,
	// kept across calls.
	in batch
}

// Bind pins every column p reads on g. A column that fails to fault in
// returns the column source's typed error (a *snapshot.CorruptError,
// say) with nothing left pinned. The caller must Release the Bound.
func (p *Pred) Bind(g *tgm.InstanceGraph) (*Bound, error) {
	b := &Bound{releases: make([]func(), 0, len(p.attrs)),
		in: batch{p: p, cols: make([]value.Column, len(p.attrs)), scratch: make([][]int32, p.ors)}}
	b.in.env.b = &b.in
	for s, ai := range p.attrs {
		col, release, err := g.PinAttrColumn(p.nt.Name, ai)
		if err != nil {
			b.Release()
			return nil, err
		}
		b.in.cols[s] = col
		b.releases = append(b.releases, release)
	}
	b.in.base, _ = g.TypeIDRange(p.nt.Name)
	return b, nil
}

// Release unpins the Bound's columns. It is idempotent.
func (b *Bound) Release() {
	for _, release := range b.releases {
		release()
	}
	b.releases = nil
}

// Select returns, ascending, the indexes i in [lo, hi) whose node ids[i]
// (of the Pred's type) satisfies the condition: its value is TRUE, not
// FALSE or NULL. The result is written over sel, which is grown when it
// has room for fewer than hi−lo indexes, so a caller that scans many
// ranges passes the previous result back and allocates once.
func (b *Bound) Select(ids []tgm.NodeID, lo, hi int, sel []int32) ([]int32, error) {
	if hi <= lo {
		return sel[:0], nil
	}
	if cap(sel) < hi-lo {
		sel = make([]int32, hi-lo)
	}
	sel = sel[:hi-lo]
	for k := range sel {
		sel[k] = int32(k)
	}
	b.in.ids = ids[lo:hi]
	n, err := b.in.p.root.filter(&b.in, sel, sel)
	if err != nil {
		return nil, err
	}
	keep := sel[:n]
	if lo != 0 {
		for k := range keep {
			keep[k] += int32(lo)
		}
	}
	return keep, nil
}
