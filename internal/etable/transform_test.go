package etable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

// windowFixture prepares the Figure 7 presentation plus its serial
// full render, the equivalence baseline every windowed test compares
// against.
func windowFixture(t *testing.T) (*Presentation, *Result) {
	t.Helper()
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumRows() != full.NumRows() || pr.NumRows() == 0 {
		t.Fatalf("presentation has %d rows, full render %d", pr.NumRows(), full.NumRows())
	}
	return pr, full
}

// sliceOf builds the expected window result from a full render.
func sliceOf(full *Result, start, end int) *Result {
	out := *full
	out.Rows = full.Rows[start:end]
	out.TotalRows = len(full.Rows)
	out.Offset = start
	return &out
}

// assertSameWindow compares a materialized window against the matching
// slice of the full render, cell for cell.
func assertSameWindow(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalRows != want.TotalRows || got.Offset != want.Offset {
		t.Fatalf("%s: window [%d +%d of %d], want [%d +%d of %d]", label,
			got.Offset, len(got.Rows), got.TotalRows, want.Offset, len(want.Rows), want.TotalRows)
	}
	assertSameResults(t, label, got, want)
}

// TestPresentationWindowEdgeCases pins the window clamping rules:
// offsets beyond the table, zero and negative limits, and empty windows
// still carrying table metadata.
func TestPresentationWindowEdgeCases(t *testing.T) {
	pr, full := windowFixture(t)
	total := len(full.Rows)

	cases := []struct {
		name          string
		offset, limit int
		start, end    int
	}{
		{"all", 0, -1, 0, total},
		{"first_page", 0, 2, 0, min(2, total)},
		{"mid", 1, 2, 1, min(3, total)},
		{"offset_beyond_total", total + 10, 5, total, total},
		{"offset_at_total", total, -1, total, total},
		{"limit_zero", 0, 0, 0, 0},
		{"limit_past_end", total - 1, 100, total - 1, total},
		{"huge_limit_no_overflow", 1, int(^uint(0) >> 1), 1, total},
	}
	for _, tc := range cases {
		got, err := pr.Window(tc.offset, tc.limit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSameWindow(t, tc.name, got, sliceOf(full, tc.start, tc.end))
	}

	if _, err := pr.Window(-1, 5); err == nil {
		t.Error("negative offset: want error")
	}
}

// TestSortThenPageEquivalence is the satellite equivalence test: a
// sorted view's window must equal rendering the full table,
// Result.Sort-ing it, and slicing — for base attribute sorts and
// entity-reference count sorts, both directions.
func TestSortThenPageEquivalence(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	var refCol string
	for _, c := range full.Columns {
		if c.IsEntityRef() {
			refCol = c.Name
			break
		}
	}
	if refCol == "" {
		t.Fatal("no entity-reference column in Figure 7 result")
	}
	specs := []SortSpec{
		{Attr: full.Columns[0].Attr},
		{Attr: full.Columns[0].Attr, Desc: true},
		{Column: refCol},
		{Column: refCol, Desc: true},
	}
	total := len(full.Rows)
	for _, spec := range specs {
		want, err := Execute(tr.Instance, p) // fresh render to sort
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Sort(spec); err != nil {
			t.Fatal(err)
		}
		pr, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.ValidateSort(spec); err != nil {
			t.Fatal(err)
		}
		if pr, err = pr.SortedView(spec); err != nil {
			t.Fatal(err)
		}
		for _, win := range [][2]int{{0, -1}, {0, 3}, {2, 3}, {total - 2, 5}} {
			got, err := pr.Window(win[0], win[1])
			if err != nil {
				t.Fatal(err)
			}
			start := min(win[0], total)
			end := total
			if win[1] >= 0 && start+win[1] < total {
				end = start + win[1]
			}
			assertSameWindow(t, "sorted window", got, sliceOf(want, start, end))
		}
	}
	// Invalid specs fail identically to the result-level validator.
	for _, spec := range []SortSpec{{}, {Attr: "nope"}, {Column: "nope"}} {
		pr, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.ValidateSort(spec); err == nil {
			t.Errorf("spec %+v: want validation error", spec)
		}
		if err := full.ValidateSort(spec); err == nil {
			t.Errorf("spec %+v: result validator disagrees", spec)
		}
	}
}

// TestRefsEmptyZeroAlloc is the satellite zero-alloc assertion: empty
// reference lists share one package-level slice — materializing them
// allocates nothing and never carves arena.
func TestRefsEmptyZeroAlloc(t *testing.T) {
	var arena []EntityRef
	intern := labelInterner{}
	lc := &labelCol{}
	allocs := testing.AllocsPerRun(100, func() {
		var w []EntityRef
		arena, w = appendRefs(arena, lc, intern, nil)
		if len(w) != 0 {
			t.Fatal("non-empty window from empty ids")
		}
	})
	if allocs != 0 {
		t.Errorf("empty refs allocated %.1f objects/op, want 0", allocs)
	}
	_, w := appendRefs(nil, lc, intern, nil)
	if w == nil || len(w) != 0 || cap(w) != 0 {
		t.Error("empty refs must be the shared zero-length slice, not nil")
	}
}

// TestLabelInterner pins the interning rules: string labels pass
// through uninterned, non-string labels render once per node.
func TestLabelInterner(t *testing.T) {
	s := tgm.NewSchemaGraph()
	if _, err := s.AddNodeType(tgm.NodeType{Name: "Y", Label: "year",
		Attrs: []tgm.Attr{{Name: "year", Type: value.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	id, err := g.AddNode("Y", []value.V{value.Int(2016)})
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	li := labelInterner{}
	col, err := g.AttrColumn("Y", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := li.label(id, &col, 0), li.label(id, &col, 0)
	if a != "2016" || b != "2016" {
		t.Fatalf("labels = %q, %q", a, b)
	}
	if len(li) != 1 {
		t.Fatalf("interner holds %d entries, want 1", len(li))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if li.label(id, &col, 0) != "2016" {
			t.Fatal("bad label")
		}
	})
	if allocs != 0 {
		t.Errorf("interned label allocated %.1f objects/op, want 0", allocs)
	}
	zoe := value.NewColumn([]value.V{value.Str("Zoë")})
	if s := li.label(id+1, &zoe, 0); s != "Zoë" || len(li) != 1 {
		t.Errorf("string label = %q with %d interned, want it passed through uninterned", s, len(li))
	}
}

// TestPresentationCancellation: canceled contexts stop Prepare and
// Window up front.
func TestPresentationCancellation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{Ctx: ctx}); err == nil {
		t.Error("canceled Prepare: want error")
	}
	pr, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.WindowOpts(0, -1, ExecOptions{Ctx: ctx}); err == nil {
		t.Error("canceled Window: want error")
	}
}

// TestSortedViewSharesPreparedState: SortedView is an O(rows) reorder
// over the base presentation's prepared state — the columns, reduced
// sets, count vectors and neighbor layout are shared by identity, only
// the row-ID order is private — and building one never mutates the
// base.
func TestSortedViewSharesPreparedState(t *testing.T) {
	tr := planFixture(t)
	p := figure1PlanPattern(t, tr)
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseOrder := append([]tgm.NodeID(nil), pres.order()...)

	v, err := pres.SortedView(SortSpec{Attr: "year", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pres.order(), baseOrder) {
		t.Fatal("SortedView reordered the base presentation's rows")
	}
	if len(v.parts) != len(pres.parts) {
		t.Fatalf("view has %d participating columns, base %d", len(v.parts), len(pres.parts))
	}
	for i := range v.parts {
		if v.parts[i].counts != pres.parts[i].counts {
			t.Fatalf("participating column %d: view has its own count vector instead of sharing the base's", i)
		}
	}
	if len(v.columns) != len(pres.columns) || len(v.neighbors) != len(pres.neighbors) {
		t.Fatal("view's column layout differs from the base's")
	}
	if len(v.order()) != len(baseOrder) {
		t.Fatalf("view has %d rows, base %d", len(v.order()), len(baseOrder))
	}

	// The view renders exactly what sorting the full render renders.
	want, err := pres.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Sort(SortSpec{Attr: "year", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.order(), nodesOf(want)) {
		t.Fatal("view's row order differs from the sorted full render")
	}
}
