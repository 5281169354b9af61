package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "STRING",
		KindBool:   "BOOL",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(42); got.Kind() != KindInt || got.AsInt() != 42 {
		t.Errorf("Int(42) = %v", got)
	}
	if got := Float(2.5); got.Kind() != KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", got)
	}
	if got := Str("hi"); got.Kind() != KindString || got.AsString() != "hi" {
		t.Errorf("Str(hi) = %v", got)
	}
	if got := Bool(true); got.Kind() != KindBool || !got.AsBool() {
		t.Errorf("Bool(true) = %v", got)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null = %v", Null)
	}
}

func TestConversions(t *testing.T) {
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int.AsFloat")
	}
	if Float(7.9).AsInt() != 7 {
		t.Error("Float.AsInt should truncate")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Error("Bool.AsInt")
	}
	if Str("x").AsInt() != 0 || Str("x").AsFloat() != 0 {
		t.Error("Str numeric conversions should be 0")
	}
	if Null.AsBool() || Int(0).AsBool() || Float(0).AsBool() || Str("").AsBool() {
		t.Error("falsy values should be false")
	}
	if !Int(3).AsBool() || !Float(0.5).AsBool() || !Str("a").AsBool() {
		t.Error("truthy values should be true")
	}
	if Null.AsString() != "NULL" {
		t.Error("Null.AsString")
	}
}

func TestIsNumeric(t *testing.T) {
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() {
		t.Error("numbers are numeric")
	}
	if Str("1").IsNumeric() || Bool(true).IsNumeric() || Null.IsNumeric() {
		t.Error("non-numbers are not numeric")
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{
		{Null, "NULL"},
		{Int(-5), "-5"},
		{Float(1.25), "1.25"},
		{Str("abc"), "abc"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.Format(); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.v, got, c.want)
		}
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestAppendFormat: AppendFormat appends exactly Format's bytes for every
// kind and its edge values, after whatever dst already holds.
func TestAppendFormat(t *testing.T) {
	vals := []V{
		Null, Bool(true), Bool(false), Str(""), Str("abc"), Str("日本\x00\xff"),
		Int(0), Int(7), Int(-5), Int(99), Int(100), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1.25), Float(-3), Float(1e20), Float(1e21),
		Float(1e-7), Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		{kind: Kind(99)},
	}
	for _, v := range vals {
		got := v.AppendFormat([]byte("prefix|"))
		if want := "prefix|" + v.Format(); string(got) != want {
			t.Errorf("AppendFormat(%v kind %v) = %q, want %q", v, v.Kind(), got, want)
		}
	}
}

func TestSQL(t *testing.T) {
	if got := Str("it's").SQL(); got != "'it''s'" {
		t.Errorf("SQL quoting = %q", got)
	}
	if got := Int(3).SQL(); got != "3" {
		t.Errorf("Int SQL = %q", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b V
		want int
	}{
		{Null, Null, 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Int(0), -1}, // bool ranks below numerics
		{Int(5), Str("a"), -1},   // numerics rank below strings
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(2), Float(2)) {
		t.Error("Int 2 should equal Float 2")
	}
	if Equal(Str("2"), Int(2)) {
		t.Error("Str 2 should not equal Int 2")
	}
}

func TestKeyEqualityAgreement(t *testing.T) {
	vals := []V{
		Null, Int(0), Int(1), Int(-1), Float(0), Float(1), Float(1.5),
		Str(""), Str("1"), Str("a"), Bool(true), Bool(false),
		Float(math.Pow(2, 70)), Int(math.MaxInt64),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := Equal(a, b)
			keyEq := a.Key() == b.Key()
			if eq != keyEq {
				t.Errorf("Key/Equal disagree: %v vs %v (eq=%v keyEq=%v)", a, b, eq, keyEq)
			}
		}
	}
}

// Property: Compare is antisymmetric and reflexive over random ints/floats.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := Float(a), Float(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: cross-kind comparison yields a total order (sorting never
// panics and is idempotent).
func TestCompareTotalOrder(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string) bool {
		var vals []V
		for _, i := range ints {
			vals = append(vals, Int(i))
		}
		for _, fl := range floats {
			if !math.IsNaN(fl) {
				vals = append(vals, Float(fl))
			}
		}
		for _, s := range strs {
			vals = append(vals, Str(s))
		}
		vals = append(vals, Null, Bool(true), Bool(false))
		sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
		return sort.SliceIsSorted(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNumOrderMatchesCompare holds NumOrder.Order to Compare for every
// pair of a column row against a numeric constant, over the edges Compare
// distinguishes: INT against FLOAT, NaN (equal to everything), ±0,
// ±Inf, the int64 extremes and integers past float64's precision,
// BOOL below and STRING above every number, and NULL.
func TestNumOrderMatchesCompare(t *testing.T) {
	nums := []V{
		Int(0), Int(1), Int(-1), Int(math.MinInt64), Int(math.MaxInt64), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1.5), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(1 << 53), Float(9.223372036854776e18),
	}
	vals := append([]V{Null, Bool(true), Bool(false), Str(""), Str("1")}, nums...)
	col := NewColumn(vals)
	for _, c := range nums {
		o := NewNumOrder(c)
		for i, v := range vals {
			lt, gt, null := o.Order(col.Kind(i), col.Nums()[i])
			if null != v.IsNull() {
				t.Fatalf("Order(%v) against %v: null = %v", v, c, null)
			}
			if null {
				continue
			}
			got := 0
			if lt {
				got = -1
			} else if gt {
				got = 1
			}
			if want := Compare(v, c); got != want || lt && gt {
				t.Errorf("Order(%v) against %v = (%v, %v), Compare = %d", v, c, lt, gt, want)
			}
		}
	}
}
