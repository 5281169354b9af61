package expr

import (
	"strings"

	"repro/internal/tgm"
	"repro/internal/value"
)

// batch is one row range a Pred's kernels run over. Positions are
// indexes into ids; the column row of position k is ids[k] − base.
type batch struct {
	p    *Pred
	cols []value.Column
	ids  []tgm.NodeID
	base tgm.NodeID
	// scratch holds each or kernel's merge buffers (Pred.ors slots) and
	// env the interpreted kernel's row environment, reused across calls.
	scratch [][]int32
	env     rowEnv
}

// column returns column slot s with the batch's ids and base, for a
// leaf loop to hold in registers: position k's row is ids[k]-base.
func (b *batch) column(s int) (col value.Column, ids []tgm.NodeID, base tgm.NodeID) {
	return b.cols[s], b.ids, b.base
}

// kernel is one compiled node of a condition.
type kernel interface {
	// filter writes to out, in order, the positions of sel (ascending)
	// at which the condition is TRUE, and returns how many it wrote.
	// out has room for len(sel) positions and may be sel itself: a
	// kernel reads sel[j] before it writes out[n], and n <= j.
	filter(b *batch, sel, out []int32) (int, error)
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch, which is what keeps the leaf loops free of mispredictions on
// the outcome.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// and keeps the rows its left side keeps and then its right side keeps:
// the left side narrows the row vector the right side runs over.
type and struct{ l, r kernel }

func (k and) filter(b *batch, sel, out []int32) (int, error) {
	n, err := k.l.filter(b, sel, out)
	if err != nil {
		return 0, err
	}
	return k.r.filter(b, out[:n], out)
}

// or keeps the union of the rows either side keeps, merging the two
// ascending vectors, which it keeps in the batch's scratch slot.
type or struct {
	l, r kernel
	slot int
}

func (k or) filter(b *batch, sel, out []int32) (int, error) {
	buf := b.scratch[k.slot]
	if cap(buf) < 2*len(sel) {
		buf = make([]int32, 2*len(sel))
		b.scratch[k.slot] = buf
	}
	x, y := buf[:len(sel)], buf[len(sel):2*len(sel)]
	nx, err := k.l.filter(b, sel, x)
	if err != nil {
		return 0, err
	}
	ny, err := k.r.filter(b, sel, y)
	if err != nil {
		return 0, err
	}
	x, y = x[:nx], y[:ny]
	n := 0
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			out[n], x = x[0], x[1:]
		case y[0] < x[0]:
			out[n], y = y[0], y[1:]
		default:
			out[n], x, y = x[0], x[1:], y[1:]
		}
		n++
	}
	n += copy(out[n:], x)
	n += copy(out[n:], y)
	return n, nil
}

// never keeps no row: a comparison, LIKE or BETWEEN against a NULL
// constant is NULL.
type never struct{}

func (never) filter(*batch, []int32, []int32) (int, error) { return 0, nil }

// Outcome masks of a comparison: bit 0 is set when the operator holds
// for d < 0, bit 1 for d == 0 and bit 2 for d > 0, where d is
// value.Compare of the column value against the constant. A kernel
// keeps a row with mask >> (1 + gt − lt) & 1.
var opMasks = [...]uint8{OpEq: 0b010, OpNe: 0b101, OpLt: 0b001, OpLe: 0b011, OpGt: 0b100, OpGe: 0b110}

// cmpKernel returns the kernel of Col op c.
func cmpKernel(s int, op CmpOp, c value.V) kernel {
	mask := opMasks[op]
	switch c.Kind() {
	case value.KindNull:
		return never{}
	case value.KindInt, value.KindFloat:
		return cmpNum{slot: s, mask: mask, c: value.NewNumOrder(c)}
	case value.KindString:
		return cmpStr{slot: s, mask: mask, s: c.AsString(), eqOnly: op == OpEq || op == OpNe}
	}
	return cmpAny{slot: s, mask: mask, c: c}
}

// cmpNum is Col op c for a numeric c, in value.Compare's order
// (value.NumOrder reads each row's kind and payload word).
type cmpNum struct {
	slot int
	mask uint8
	c    value.NumOrder
}

func (k cmpNum) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	kinds, nums := col.Kinds(), col.Nums()
	n := 0
	for _, p := range sel {
		r := ids[p] - base
		lt, gt, null := k.c.Order(kinds[r], nums[r])
		if null {
			continue
		}
		out[n] = p
		n += int(k.mask>>(1+b2i(gt)-b2i(lt))) & 1
	}
	return n, nil
}

// cmpStr is Col op c for a STRING c: strings compare bytewise, and
// every other non-NULL kind ranks below STRING. For = and <> only
// equality matters, which a length check mostly settles.
type cmpStr struct {
	slot   int
	mask   uint8
	s      string
	eqOnly bool
}

func (k cmpStr) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	kinds, nums := col.Kinds(), col.Nums()
	n := 0
	for _, p := range sel {
		r := ids[p] - base
		var lt, gt bool
		switch kinds[r] {
		case value.KindString:
			if k.eqOnly {
				// d != 0 is all = and <> read; the payload word's low
				// half is the length.
				lt = uint32(nums[r]) != uint32(len(k.s)) || col.Str(int(r)) != k.s
			} else {
				d := strings.Compare(col.Str(int(r)), k.s)
				lt, gt = d < 0, d > 0
			}
		case value.KindNull:
			continue
		default:
			lt = true
		}
		out[n] = p
		n += int(k.mask>>(1+b2i(gt)-b2i(lt))) & 1
	}
	return n, nil
}

// cmpAny is Col op c for a BOOL c, through value.Compare.
type cmpAny struct {
	slot int
	mask uint8
	c    value.V
}

func (k cmpAny) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	n := 0
	for _, p := range sel {
		v := col.At(int(ids[p] - base))
		if v.IsNull() {
			continue
		}
		out[n] = p
		n += int(k.mask>>(1+value.Compare(v, k.c))) & 1
	}
	return n, nil
}

// likeKernel returns the kernel of Col [NOT] [I]LIKE pattern.
func likeKernel(s int, pattern value.V, fold, negate bool) kernel {
	if pattern.IsNull() {
		return never{}
	}
	p := pattern.AsString()
	if fold {
		p = strings.ToLower(p)
	}
	shape, lit := classifyLike(p)
	return like{slot: s, shape: shape, lit: lit, pattern: p, fold: fold, negate: negate}
}

// like is Col [NOT] [I]LIKE pattern. A pattern that is a literal with a
// leading and/or trailing '%' runs as strings.Contains, HasPrefix,
// HasSuffix or ==; any other runs likeMatch. For ILIKE the pattern was
// lowered once and each value is lowered per row, as MatchLike does.
type like struct {
	slot         int
	shape        likeShape
	lit, pattern string
	fold, negate bool
}

func (k like) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	kinds := col.Kinds()
	n := 0
	for _, p := range sel {
		r := int(ids[p] - base)
		var s string
		switch kinds[r] {
		case value.KindNull:
			continue
		case value.KindString:
			s = col.Str(r)
		default:
			s = col.At(r).AsString()
		}
		if k.fold {
			s = strings.ToLower(s)
		}
		var ok bool
		switch k.shape {
		case likeContains:
			ok = strings.Contains(s, k.lit)
		case likePrefix:
			ok = strings.HasPrefix(s, k.lit)
		case likeSuffix:
			ok = strings.HasSuffix(s, k.lit)
		case likeEqual:
			ok = s == k.lit
		default:
			ok = likeMatch(s, k.pattern)
		}
		out[n] = p
		n += b2i(ok != k.negate)
	}
	return n, nil
}

// inList is Col [NOT] IN (consts): TRUE on a match (under value.Equal,
// so INT and FLOAT meet), and on no match NULL if the list holds a NULL,
// else FALSE — In.Eval's semantics.
type inList struct {
	slot    int
	vals    []value.V // the list's non-NULL constants
	hasNull bool
	negate  bool
}

func inKernel(s int, list []value.V, negate bool) kernel {
	k := inList{slot: s, negate: negate}
	for _, v := range list {
		if v.IsNull() {
			k.hasNull = true
		} else {
			k.vals = append(k.vals, v)
		}
	}
	return k
}

func (k inList) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	n := 0
	for _, p := range sel {
		v := col.At(int(ids[p] - base))
		if v.IsNull() {
			continue
		}
		found := false
		for _, c := range k.vals {
			if value.Equal(v, c) {
				found = true
				break
			}
		}
		if !found && k.hasNull {
			continue
		}
		out[n] = p
		n += b2i(found != k.negate)
	}
	return n, nil
}

// between is Col [NOT] BETWEEN lo AND hi over non-NULL bounds.
type between struct {
	slot   int
	lo, hi value.V
	negate bool
}

func (k between) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	n := 0
	for _, p := range sel {
		v := col.At(int(ids[p] - base))
		if v.IsNull() {
			continue
		}
		ok := value.Compare(v, k.lo) >= 0 && value.Compare(v, k.hi) <= 0
		out[n] = p
		n += b2i(ok != k.negate)
	}
	return n, nil
}

// isNull is Col IS [NOT] NULL.
type isNull struct {
	slot   int
	negate bool
}

func (k isNull) filter(b *batch, sel, out []int32) (int, error) {
	col, ids, base := b.column(k.slot)
	kinds := col.Kinds()
	n := 0
	for _, p := range sel {
		out[n] = p
		n += b2i((kinds[ids[p]-base] == value.KindNull) != k.negate)
	}
	return n, nil
}

// evalRows runs the interpreted Eval per row, for the shapes no kernel
// covers (arithmetic, column against column, an unknown Expr type).
// Its environment reads the pinned columns.
type evalRows struct{ e Expr }

func (k evalRows) filter(b *batch, sel, out []int32) (int, error) {
	env := &b.env
	n := 0
	for _, p := range sel {
		env.pos = p
		ok, err := Truthy(k.e, env)
		if err != nil {
			return 0, err
		}
		if ok {
			out[n] = p
			n++
		}
	}
	return n, nil
}

// rowEnv resolves column names at one position of a batch.
type rowEnv struct {
	b   *batch
	pos int32
}

// Lookup implements Env. Only the columns the expression declares
// (Expr.Columns) are pinned; any other name is unknown.
func (e *rowEnv) Lookup(name string) (value.V, bool) {
	if ai := resolveAttr(e.b.p.nt, name); ai >= 0 {
		for s, a := range e.b.p.attrs {
			if a == ai {
				col, ids, base := e.b.column(s)
				return col.At(int(ids[e.pos] - base)), true
			}
		}
	}
	return value.Null, false
}
