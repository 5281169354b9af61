// Package value implements the typed scalar value system shared by the
// relational engine, the typed graph model, and the ETable presentation
// layer. A value is one of NULL, INT, FLOAT, STRING, or BOOL.
//
// Values are small immutable tagged unions. Comparison follows SQL-like
// semantics: NULL sorts before everything, numeric kinds compare across
// INT/FLOAT, and comparisons between incompatible kinds fall back to a
// stable kind ordering so sorting is always total.
//
// A V is the unit of one value; a Column is the unit of an attribute's
// values. A Column stores no V: each row is one kind byte and one 64-bit
// payload word (an INT's or a FLOAT's exact bits, a BOOL's 0/1, or a
// STRING's offset and length), and every string lives in one shared
// blob, so a column of any size is three pointer-free blocks — what the
// snapshot decoder fills in one pass and what column kernels scan.
// Column.At rebuilds the exact V of a row. Builder appends rows one at
// a time; MakeColumn adopts decoded parts after checking them.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// V is an immutable scalar value.
type V struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the NULL value.
var Null = V{kind: KindNull}

// Int returns an INT value.
func Int(i int64) V { return V{kind: KindInt, i: i} }

// Float returns a FLOAT value.
func Float(f float64) V { return V{kind: KindFloat, f: f} }

// Str returns a STRING value.
func Str(s string) V { return V{kind: KindString, s: s} }

// Bool returns a BOOL value.
func Bool(b bool) V {
	var i int64
	if b {
		i = 1
	}
	return V{kind: KindBool, i: i}
}

// Kind reports the value's kind.
func (v V) Kind() Kind { return v.kind }

// Clone returns v holding its own copy of a STRING's bytes. A value read
// from a Column shares the column's string blob; one kept past the
// column's residency is cloned, so it does not keep the blob reachable.
func (v V) Clone() V {
	if v.kind == KindString {
		v.s = strings.Clone(v.s)
	}
	return v
}

// IsNull reports whether the value is NULL.
func (v V) IsNull() bool { return v.kind == KindNull }

// AsInt returns the value as an int64. FLOATs are truncated, BOOLs map to
// 0/1, everything else returns 0.
func (v V) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.f)
	default:
		return 0
	}
}

// AsFloat returns the value as a float64.
func (v V) AsFloat() float64 {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return 0
	}
}

// AsString returns the value as a string. For STRING values it is the
// underlying string; otherwise the formatted representation.
func (v V) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return v.Format()
}

// AsBool returns the truthiness of the value. NULL is false; numbers are
// true when nonzero; strings when nonempty.
func (v V) AsBool() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindInt, KindBool:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// IsNumeric reports whether the value is INT or FLOAT.
func (v V) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Format renders the value for display.
func (v V) Format() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// AppendFormat appends Format's rendering of the value to dst without
// allocating a string for it.
func (v V) AppendFormat(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	case KindBool:
		if v.i != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return append(dst, '?')
	}
}

// SQL renders the value as a SQL literal.
func (v V) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	default:
		return v.Format()
	}
}

// String implements fmt.Stringer.
func (v V) String() string { return v.Format() }

// Key returns a string usable as a map key: equal values produce equal
// keys, and distinct values (modulo numeric INT/FLOAT equality) produce
// distinct keys.
func (v V) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00n"
	case KindInt:
		return "\x01" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) &&
			v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			// Integral floats share a key with the equal INT.
			return "\x01" + strconv.FormatInt(int64(v.f), 10)
		}
		return "\x02" + strconv.FormatFloat(v.f, 'b', -1, 64)
	case KindString:
		return "\x03" + v.s
	case KindBool:
		return "\x04" + strconv.FormatInt(v.i, 10)
	default:
		return "\x7f"
	}
}

// kindRank orders kinds for cross-kind comparisons.
func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

// Compare returns -1, 0, or +1 ordering v relative to o. NULL compares
// less than every non-NULL value; INT and FLOAT compare numerically;
// otherwise values of different kinds order by kind rank.
func Compare(v, o V) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	rv, ro := kindRank(v.kind), kindRank(o.kind)
	if rv != ro {
		if rv < ro {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		if o.kind == KindInt {
			return cmpInt(v.i, o.i)
		}
		return cmpFloat(float64(v.i), o.f)
	case KindFloat:
		if o.kind == KindInt {
			return cmpFloat(v.f, float64(o.i))
		}
		return cmpFloat(v.f, o.f)
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		return cmpInt(v.i, o.i)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// NumOrder is a numeric constant prepared for ordering many column rows
// against it, as a column-at-a-time selection does.
type NumOrder struct {
	i     int64
	f     float64
	isInt bool
}

// NewNumOrder prepares c, which must be INT or FLOAT.
func NewNumOrder(c V) NumOrder {
	return NumOrder{i: c.i, f: c.AsFloat(), isInt: c.kind == KindInt}
}

// Order returns Compare(v, c) as two flags, lt for -1 and gt for +1
// (neither for 0), for the column row v of kind k and payload word n
// (see Column); null reports a NULL v, which a SQL comparison leaves
// unordered.
func (c *NumOrder) Order(k Kind, n uint64) (lt, gt, null bool) {
	switch k {
	case KindInt:
		if c.isInt {
			return int64(n) < c.i, int64(n) > c.i, false
		}
		x := float64(int64(n))
		return x < c.f, x > c.f, false
	case KindFloat:
		x := math.Float64frombits(n)
		return x < c.f, x > c.f, false
	case KindNull:
		return false, false, true
	case KindBool:
		return true, false, false
	}
	return false, true, false
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(v, o V) bool { return Compare(v, o) == 0 }

// Parse converts a textual literal into a value, preferring INT, then
// FLOAT, then BOOL, falling back to STRING. The empty string parses as
// STRING "".
func Parse(s string) V {
	if s == "" {
		return Str("")
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(s) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	case "null":
		return Null
	}
	return Str(s)
}
