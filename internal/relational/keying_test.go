package relational

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// TestGroupBySeparatorCollision pins the fix for the row-key collision:
// under the old 0x1f-separator scheme these two distinct key tuples
// produced identical keys (the second value's leading bytes mimicked a
// component boundary), so GroupBy merged their groups and RowKey
// deduplicated one of the rows away.
func TestGroupBySeparatorCollision(t *testing.T) {
	r := &Rel{
		Cols: []ColRef{{Name: "a"}, {Name: "b"}},
		Rows: []Row{
			{value.Str("a"), value.Str("b\x1f\x03c")},
			{value.Str("a\x1f\x03b"), value.Str("c")},
		},
	}
	got, err := GroupBy(r, []expr.Expr{expr.Col{Name: "a"}, expr.Col{Name: "b"}}, []string{"a", "b"},
		[]Aggregate{{Func: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("GroupBy merged %d distinct key tuples into %d groups", len(r.Rows), len(got.Rows))
	}
	if RowKey(r.Rows[0]) == RowKey(r.Rows[1]) {
		t.Fatal("RowKey still collides on embedded separator bytes")
	}
}

// TestEquiJoinSeparatorBytes asserts the shared keying joins values
// containing arbitrary bytes correctly.
func TestEquiJoinSeparatorBytes(t *testing.T) {
	l := &Rel{
		Cols: []ColRef{{Name: "k"}, {Name: "lv"}},
		Rows: []Row{
			{value.Str("x\x1fy"), value.Int(1)},
			{value.Str("x"), value.Int(2)},
		},
	}
	r := &Rel{
		Cols: []ColRef{{Name: "k2"}, {Name: "rv"}},
		Rows: []Row{
			{value.Str("x\x1fy"), value.Int(10)},
			{value.Str("z"), value.Int(20)},
		},
	}
	out, err := EquiJoin(l, r, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][1].AsInt() != 1 || out.Rows[0][3].AsInt() != 10 {
		t.Fatalf("join rows = %v", out.Rows)
	}
}

// TestLimitDoesNotAliasParent pins the Limit fix: appending to the
// limited relation's Rows must not write through into the parent.
func TestLimitDoesNotAliasParent(t *testing.T) {
	r := &Rel{
		Cols: []ColRef{{Name: "n"}},
		Rows: []Row{{value.Int(0)}, {value.Int(1)}, {value.Int(2)}},
	}
	lim := Limit(r, 0, 2)
	if len(lim.Rows) != 2 {
		t.Fatalf("limit rows = %d", len(lim.Rows))
	}
	lim.Rows = append(lim.Rows, Row{value.Int(99)})
	if r.Rows[2][0].AsInt() != 2 {
		t.Fatalf("parent row mutated through Limit alias: %v", r.Rows[2])
	}
	// Offset slicing must be copied too.
	tail := Limit(r, 1, -1)
	tail.Rows[0] = Row{value.Int(42)}
	if r.Rows[1][0].AsInt() != 1 {
		t.Fatalf("parent row replaced through Limit alias: %v", r.Rows[1])
	}
}
