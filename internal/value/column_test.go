package value

import (
	"math"
	"testing"
)

// sameV reports whether two values are identical: same kind and the
// same bits (NaN payloads and −0 included), not merely Equal.
func sameV(a, b V) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// TestColumnAtRebuildsEveryValue: every kind and edge value — the int64
// extremes, NaN with a payload, ±Inf, −0, empty and invalid-UTF-8
// strings, both BOOLs and NULL — comes back from At bit for bit, and a
// column taken from a Builder keeps its rows as more are appended.
func TestColumnAtRebuildsEveryValue(t *testing.T) {
	vals := []V{
		Null, Int(0), Int(math.MinInt64), Int(math.MaxInt64), Float(math.Float64frombits(0x7ff8000000000123)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.Copysign(0, -1)), Str(""), Str("\xff\xfe"),
		Str("Zoë"), Bool(true), Bool(false), Null, Str("tail"),
	}
	var b Builder
	var early Column
	for i, v := range vals {
		b.Append(v)
		if i == 8 {
			early = b.Column()
		}
	}
	col := b.Column()
	if col.Len() != len(vals) || early.Len() != 9 {
		t.Fatalf("lengths %d and %d, want %d and 9", col.Len(), early.Len(), len(vals))
	}
	for i, want := range vals {
		if got := col.At(i); !sameV(got, want) || col.Kind(i) != want.Kind() {
			t.Errorf("row %d: At = %#v, want %#v", i, got, want)
		}
		if i < early.Len() && !sameV(early.At(i), want) {
			t.Errorf("row %d of the earlier column changed to %#v", i, early.At(i))
		}
	}
	if got, want := col.Bytes(), int64(9*len(vals)+len("\xff\xfeZoëtail")); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	if !NewColumn([]V{Int(1), Int(2)}).Uniform(KindInt) || col.Uniform(KindInt) {
		t.Error("Uniform misreports")
	}
}

// TestMakeColumnChecksEveryRow: parts that would let At read outside the
// blob or rebuild a value no V holds are rejected.
func TestMakeColumnChecksEveryRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kinds []Kind
		nums  []uint64
	}{
		{"lengths differ", []Kind{KindInt}, nil},
		{"unknown kind", []Kind{Kind(9)}, []uint64{0}},
		{"string past blob", []Kind{KindString}, []uint64{2<<32 | 3}},
		{"BOOL word 2", []Kind{KindBool}, []uint64{2}},
		{"NULL word set", []Kind{KindNull}, []uint64{1}},
	} {
		if _, err := MakeColumn(tc.kinds, tc.nums, "abcd"); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	col, err := MakeColumn([]Kind{KindString, KindInt}, []uint64{1<<32 | 3, uint64(1<<64 - 5)}, "abcd")
	if err != nil {
		t.Fatal(err)
	}
	if !sameV(col.At(0), Str("bcd")) || !sameV(col.At(1), Int(-5)) {
		t.Fatalf("rows %#v, %#v", col.At(0), col.At(1))
	}
}
