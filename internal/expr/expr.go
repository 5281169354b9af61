// Package expr implements the condition language used for selection
// conditions throughout the system: in the relational engine's WHERE
// evaluation, in the ETable query pattern's per-node-type conditions
// (the C component of Q(τa, T, P, C) in the paper's Definition 3), and
// in the SQL subset parser.
//
// An expression evaluates against an Env, which resolves column names to
// values. Expressions support comparisons, SQL LIKE/ILIKE patterns,
// IN lists, BETWEEN, IS [NOT] NULL, boolean connectives, and the four
// arithmetic operators, with SQL's three-valued logic: a NULL operand
// makes a comparison NULL, and a WHERE clause keeps only TRUE (Truthy).
//
// There are two ways to run a condition. Expr.Eval interprets it over
// one Env and is the reference: the relational engine's WHERE and the
// §6.2 SQL oracle use it. Compile turns a condition on one node type
// into a Pred that runs a column at a time (compile.go, kernel.go):
// NOT is pushed to the leaves, each leaf of a known shape is a loop over
// one pinned attribute column that keeps the rows where it is TRUE, and
// AND/OR narrow and merge those row vectors. graphrel.SelectSet is its
// one non-test caller. Leaves of any other shape run Eval per row over
// the same columns, so the two ways agree row for row, which
// graphrel.FuzzSelectParity checks.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Env resolves a (possibly qualified) column name to a value. The second
// return reports whether the name is known.
type Env interface {
	Lookup(name string) (value.V, bool)
}

// MapEnv is an Env backed by a map. Lookup falls back to the unqualified
// suffix of a dotted name.
type MapEnv map[string]value.V

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (value.V, bool) {
	if v, ok := m[name]; ok {
		return v, true
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		if v, ok := m[name[i+1:]]; ok {
			return v, true
		}
	}
	return value.Null, false
}

// Expr is a node in the expression tree.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(env Env) (value.V, error)
	// String renders the expression in SQL-like syntax.
	String() string
	// Columns appends the column names referenced by the expression.
	Columns(dst []string) []string
}

// Const is a literal value.
type Const struct{ Val value.V }

// Eval implements Expr.
func (c Const) Eval(Env) (value.V, error) { return c.Val, nil }

// String implements Expr.
func (c Const) String() string { return c.Val.SQL() }

// Columns implements Expr.
func (c Const) Columns(dst []string) []string { return dst }

// Col references a column by name ("year" or "Papers.year").
type Col struct{ Name string }

// Eval implements Expr.
func (c Col) Eval(env Env) (value.V, error) {
	v, ok := env.Lookup(c.Name)
	if !ok {
		return value.Null, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return v, nil
}

// String implements Expr.
func (c Col) String() string { return c.Name }

// Columns implements Expr.
func (c Col) Columns(dst []string) []string { return append(dst, c.Name) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Cmp compares two sub-expressions. Comparisons involving NULL yield
// NULL (three-valued logic), which callers treat as false.
type Cmp struct {
	Op          CmpOp
	Left, Right Expr
}

// Eval implements Expr.
func (c Cmp) Eval(env Env) (value.V, error) {
	l, err := c.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	r, err := c.Right.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	d := value.Compare(l, r)
	var out bool
	switch c.Op {
	case OpEq:
		out = d == 0
	case OpNe:
		out = d != 0
	case OpLt:
		out = d < 0
	case OpLe:
		out = d <= 0
	case OpGt:
		out = d > 0
	case OpGe:
		out = d >= 0
	}
	return value.Bool(out), nil
}

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// Columns implements Expr.
func (c Cmp) Columns(dst []string) []string {
	return c.Right.Columns(c.Left.Columns(dst))
}

// Like matches Left against a SQL LIKE pattern. CaseFold selects
// ILIKE-style case-insensitive matching. Negate inverts the result.
type Like struct {
	Left     Expr
	Pattern  Expr
	CaseFold bool
	Negate   bool
}

// Eval implements Expr.
func (l Like) Eval(env Env) (value.V, error) {
	lv, err := l.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	pv, err := l.Pattern.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if lv.IsNull() || pv.IsNull() {
		return value.Null, nil
	}
	ok := MatchLike(lv.AsString(), pv.AsString(), l.CaseFold)
	if l.Negate {
		ok = !ok
	}
	return value.Bool(ok), nil
}

// String implements Expr.
func (l Like) String() string {
	op := "LIKE"
	if l.CaseFold {
		op = "ILIKE"
	}
	if l.Negate {
		op = "NOT " + op
	}
	return fmt.Sprintf("%s %s %s", l.Left, op, l.Pattern)
}

// Columns implements Expr.
func (l Like) Columns(dst []string) []string {
	return l.Pattern.Columns(l.Left.Columns(dst))
}

// In tests membership of Left in a literal list with SQL semantics: a
// NULL Left is NULL, a match is TRUE, and no match is NULL (UNKNOWN)
// when any list element is NULL, FALSE otherwise. Negate inverts TRUE
// and FALSE and keeps NULL, so NOT IN over a list holding a NULL is
// never TRUE.
type In struct {
	Left   Expr
	List   []Expr
	Negate bool
}

// Eval implements Expr.
func (in In) Eval(env Env) (value.V, error) {
	lv, err := in.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if lv.IsNull() {
		return value.Null, nil
	}
	found, sawNull := false, false
	for _, e := range in.List {
		rv, err := e.Eval(env)
		if err != nil {
			return value.Null, err
		}
		if rv.IsNull() {
			sawNull = true
		} else if value.Equal(lv, rv) {
			found = true
			break
		}
	}
	if !found && sawNull {
		return value.Null, nil
	}
	if in.Negate {
		found = !found
	}
	return value.Bool(found), nil
}

// String implements Expr.
func (in In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", in.Left, op, strings.Join(parts, ", "))
}

// Columns implements Expr.
func (in In) Columns(dst []string) []string {
	dst = in.Left.Columns(dst)
	for _, e := range in.List {
		dst = e.Columns(dst)
	}
	return dst
}

// Between tests Low <= Left <= High.
type Between struct {
	Left, Low, High Expr
	Negate          bool
}

// Eval implements Expr.
func (b Between) Eval(env Env) (value.V, error) {
	lv, err := b.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	lo, err := b.Low.Eval(env)
	if err != nil {
		return value.Null, err
	}
	hi, err := b.High.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if lv.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null, nil
	}
	ok := value.Compare(lv, lo) >= 0 && value.Compare(lv, hi) <= 0
	if b.Negate {
		ok = !ok
	}
	return value.Bool(ok), nil
}

// String implements Expr.
func (b Between) String() string {
	op := "BETWEEN"
	if b.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", b.Left, op, b.Low, b.High)
}

// Columns implements Expr.
func (b Between) Columns(dst []string) []string {
	return b.High.Columns(b.Low.Columns(b.Left.Columns(dst)))
}

// IsNull tests Left for NULL-ness.
type IsNull struct {
	Left   Expr
	Negate bool
}

// Eval implements Expr.
func (n IsNull) Eval(env Env) (value.V, error) {
	lv, err := n.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	ok := lv.IsNull()
	if n.Negate {
		ok = !ok
	}
	return value.Bool(ok), nil
}

// String implements Expr.
func (n IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("%s IS NOT NULL", n.Left)
	}
	return fmt.Sprintf("%s IS NULL", n.Left)
}

// Columns implements Expr.
func (n IsNull) Columns(dst []string) []string { return n.Left.Columns(dst) }

// And is logical conjunction with SQL three-valued semantics.
type And struct{ Left, Right Expr }

// Eval implements Expr.
func (a And) Eval(env Env) (value.V, error) {
	l, err := a.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if !l.IsNull() && !l.AsBool() {
		return value.Bool(false), nil
	}
	r, err := a.Right.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if !r.IsNull() && !r.AsBool() {
		return value.Bool(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	return value.Bool(true), nil
}

// String implements Expr.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.Left, a.Right) }

// Columns implements Expr.
func (a And) Columns(dst []string) []string {
	return a.Right.Columns(a.Left.Columns(dst))
}

// Or is logical disjunction with SQL three-valued semantics.
type Or struct{ Left, Right Expr }

// Eval implements Expr.
func (o Or) Eval(env Env) (value.V, error) {
	l, err := o.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if !l.IsNull() && l.AsBool() {
		return value.Bool(true), nil
	}
	r, err := o.Right.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if !r.IsNull() && r.AsBool() {
		return value.Bool(true), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	return value.Bool(false), nil
}

// String implements Expr.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.Left, o.Right) }

// Columns implements Expr.
func (o Or) Columns(dst []string) []string {
	return o.Right.Columns(o.Left.Columns(dst))
}

// Not is logical negation.
type Not struct{ Inner Expr }

// Eval implements Expr.
func (n Not) Eval(env Env) (value.V, error) {
	v, err := n.Inner.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	return value.Bool(!v.AsBool()), nil
}

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.Inner) }

// Columns implements Expr.
func (n Not) Columns(dst []string) []string { return n.Inner.Columns(dst) }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the operator's spelling.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith applies an arithmetic operator. Integer operands use integer
// arithmetic; mixed or float operands use floats. Division by zero and
// NULL operands yield NULL.
type Arith struct {
	Op          ArithOp
	Left, Right Expr
}

// Eval implements Expr.
func (a Arith) Eval(env Env) (value.V, error) {
	l, err := a.Left.Eval(env)
	if err != nil {
		return value.Null, err
	}
	r, err := a.Right.Eval(env)
	if err != nil {
		return value.Null, err
	}
	return arithApply(a.Op, l, r)
}

// arithApply evaluates one arithmetic operation on computed operands; it
// is shared by the interpreted and compiled paths.
func arithApply(op ArithOp, l, r value.V) (value.V, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		x, y := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return value.Int(x + y), nil
		case OpSub:
			return value.Int(x - y), nil
		case OpMul:
			return value.Int(x * y), nil
		case OpDiv:
			if y == 0 {
				return value.Null, nil
			}
			return value.Int(x / y), nil
		case OpMod:
			if y == 0 {
				return value.Null, nil
			}
			return value.Int(x % y), nil
		}
	}
	x, y := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return value.Float(x + y), nil
	case OpSub:
		return value.Float(x - y), nil
	case OpMul:
		return value.Float(x * y), nil
	case OpDiv:
		if y == 0 {
			return value.Null, nil
		}
		return value.Float(x / y), nil
	case OpMod:
		if y == 0 {
			return value.Null, nil
		}
		return value.Float(float64(int64(x) % int64(y))), nil
	}
	return value.Null, fmt.Errorf("expr: bad arithmetic operator %v", op)
}

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// Columns implements Expr.
func (a Arith) Columns(dst []string) []string {
	return a.Right.Columns(a.Left.Columns(dst))
}

// MapCols returns a copy of e in which every column reference c is
// replaced by f(c); operators, flags and constants are kept.
func MapCols(e Expr, f func(Col) Expr) Expr {
	m := func(e Expr) Expr { return MapCols(e, f) }
	switch n := e.(type) {
	case Col:
		return f(n)
	case Cmp:
		n.Left, n.Right = m(n.Left), m(n.Right)
		return n
	case Like:
		n.Left, n.Pattern = m(n.Left), m(n.Pattern)
		return n
	case In:
		list := make([]Expr, len(n.List))
		for i, el := range n.List {
			list[i] = m(el)
		}
		n.Left, n.List = m(n.Left), list
		return n
	case Between:
		n.Left, n.Low, n.High = m(n.Left), m(n.Low), m(n.High)
		return n
	case IsNull:
		n.Left = m(n.Left)
		return n
	case And:
		return And{Left: m(n.Left), Right: m(n.Right)}
	case Or:
		return Or{Left: m(n.Left), Right: m(n.Right)}
	case Not:
		return Not{Inner: m(n.Inner)}
	case Arith:
		n.Left, n.Right = m(n.Left), m(n.Right)
		return n
	default:
		return e
	}
}

// Truthy evaluates e and reports whether the result is a non-NULL true
// value. This is the standard WHERE-clause interpretation.
func Truthy(e Expr, env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.AsBool(), nil
}
