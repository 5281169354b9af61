package etable

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphrel"
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
	matched, err := Match(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(tr.Instance, p, matched)
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

// TestTransformRangeEquivalence is the tentpole equivalence test: the
// morsel-parallel transform fan-out (forced multi-range via a tiny
// chunk size) is row- and cell-identical to the serial transform, on
// the Figure 1 and Figure 7 patterns, across budgets. Run under -race
// by scripts/check.sh, which also exercises the disjoint-window splice
// discipline.
func TestTransformRangeEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		want, err := Execute(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		matched, err := Match(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{2, 4} {
			pr, err := PrepareOpts(tr.Instance, p, matched,
				ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: budget})
			if err != nil {
				t.Fatal(err)
			}
			// chunk=3 forces many ranges (with a final partial one) even
			// on this small corpus, so the fan-out path really runs.
			got, err := pr.window(0, -1, ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: budget}, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name, got, want)
		}
		// The public full-render path under options must agree too.
		got, err := ExecuteOpts(tr.Instance, p,
			ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, name+"/execute", got, want)
	}
}

// TestPresentationWindowEdgeCases pins the window clamping rules:
// offsets beyond the table, zero and negative limits, windows
// straddling the final partial chunk, and empty windows still carrying
// table metadata.
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

	// A window straddling the final partial chunk of the parallel path:
	// chunk=4 over a window ending at the table's last row exercises the
	// short tail range.
	if total >= 6 {
		pool := exec.NewPool(4)
		opt := ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4}
		got, err := pr.window(total-6, -1, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameWindow(t, "straddle_final_partial_chunk", got, sliceOf(full, total-6, total))
	}

	if _, err := pr.Window(-1, 5); err == nil {
		t.Error("negative offset: want error")
	}
}

// TestSortThenPageEquivalence is the satellite equivalence test:
// sorting the presentation and materializing a window must equal
// rendering the full table, Result.Sort-ing it, and slicing — for base
// attribute sorts and entity-reference count sorts, both directions.
func TestSortThenPageEquivalence(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := Match(tr.Instance, p)
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
		pr, err := Prepare(tr.Instance, p, matched)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.ValidateSort(spec); err != nil {
			t.Fatal(err)
		}
		if err := pr.Sort(spec); err != nil {
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
		pr, err := Prepare(tr.Instance, p, matched)
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
	tr := planFixture(t)
	var arena []EntityRef
	intern := labelInterner{}
	view := &colView{}
	allocs := testing.AllocsPerRun(100, func() {
		var w []EntityRef
		arena, w = appendRefs(arena, tr.Instance, view, intern, nil)
		if len(w) != 0 {
			t.Fatal("non-empty window from empty ids")
		}
	})
	if allocs != 0 {
		t.Errorf("empty refs allocated %.1f objects/op, want 0", allocs)
	}
	_, w := appendRefs(nil, tr.Instance, view, intern, nil)
	if w == nil || len(w) != 0 || cap(w) != 0 {
		t.Error("empty refs must be the shared zero-length slice, not nil")
	}
}

// TestTransformWindowOneShot covers the one-window caller: a single
// window over a freshly prepared match is identical to the full
// render's slice.
func TestTransformWindowOneShot(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := Match(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(tr.Instance, p, matched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pr.Window(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	end := min(3, len(full.Rows))
	assertSameWindow(t, "one-shot", got, sliceOf(full, min(1, len(full.Rows)), end))
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
	n := g.Node(id)
	col, err := g.AttrColumn("Y", 0)
	if err != nil {
		t.Fatal(err)
	}
	view := &colView{labels: map[string][]value.V{"Y": col}}
	a, b := li.label(view, n), li.label(view, n)
	if a != "2016" || b != "2016" {
		t.Fatalf("labels = %q, %q", a, b)
	}
	if len(li) != 1 {
		t.Fatalf("interner holds %d entries, want 1", len(li))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if li.label(view, n) != "2016" {
			t.Fatal("bad label")
		}
	})
	if allocs != 0 {
		t.Errorf("interned label allocated %.1f objects/op, want 0", allocs)
	}
}

// TestWindowRecycleReuseAndEquivalence pins the window-arena recycling
// satellite: Recycle returns a window's backing arrays to the pool, the
// next materialization reuses them (asserted by backing-array identity,
// with GC disabled so the pool cannot be cleared mid-test), and windows
// built on recycled arenas — smaller than the previous occupant, and
// through the parallel multi-range path — are cell-identical to fresh
// ones (recycled arenas carry stale cells; transformRange must fully
// assign every cell).
func TestWindowRecycleReuseAndEquivalence(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pr, full := windowFixture(t)
	total := len(full.Rows)
	if total < 4 {
		t.Fatalf("fixture too small: %d rows", total)
	}

	// Largest window first, so every later window fits its capacity.
	res, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWindow(t, "fresh full", res, sliceOf(full, 0, total))
	firstRow := &res.Rows[0]
	res.Recycle()
	if res.Rows != nil || res.store != nil {
		t.Fatal("Recycle must sever the result from its arenas")
	}
	res.Recycle() // idempotent: a second call must not double-Put

	// A smaller window on the recycled store: identical cells, same
	// backing array.
	res2, err := pr.Window(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWindow(t, "recycled smaller", res2, sliceOf(full, 1, 4))
	// Reuse identity cannot be asserted under -race: the race-mode
	// sync.Pool randomly drops Puts (see race_enabled_test.go). The
	// cell-equivalence assertions above and below still run.
	if !raceDetectorEnabled && &res2.Rows[0] != firstRow {
		t.Error("window did not reuse the recycled row arena")
	}
	res2.Recycle()

	// The parallel multi-range path over a recycled store (chunk=3
	// forces several ranges, growing the per-range arena table).
	pool := exec.NewPool(4)
	opt := ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4}
	res3, err := pr.window(0, -1, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWindow(t, "recycled parallel", res3, sliceOf(full, 0, total))
	res3.Recycle()

	// Results without a store (hand-built, zero-row windows) no-op.
	(&Result{}).Recycle()
	empty, err := pr.Window(total+5, 10)
	if err != nil {
		t.Fatal(err)
	}
	empty.Recycle()
}

// TestWindowRecycleSteadyStateAllocs is the satellite's allocation
// claim: a paging loop that recycles each window before fetching the
// next allocates only O(1) bookkeeping per page (Result header, label
// interner), never the O(window) cell/row/ref arenas — those come from
// the pool.
func TestWindowRecycleSteadyStateAllocs(t *testing.T) {
	pr, full := windowFixture(t)
	total := len(full.Rows)
	// Warm the pool with a full-size window so the loop never grows.
	warm, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	warm.Recycle()
	off := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := pr.Window(off%total, 2)
		if err != nil {
			t.Fatal(err)
		}
		off++
		res.Recycle()
	})
	// Fixed per-page bookkeeping, independent of the window size:
	// the Result, the interner map, and pool internals. Not asserted
	// under -race, where dropped pool Puts force arena reallocations
	// (see race_enabled_test.go).
	if !raceDetectorEnabled && allocs > 6 {
		t.Errorf("steady-state paging allocated %.1f objects/page, want <= 6", allocs)
	}
}

// TestPresentationCancellation: canceled contexts stop Prepare and
// Window up front.
func TestPresentationCancellation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	matched, err := Match(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{Ctx: ctx}); err == nil {
		t.Error("canceled Prepare: want error")
	}
	pr, err := Prepare(tr.Instance, p, matched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.WindowOpts(0, -1, ExecOptions{Ctx: ctx}); err == nil {
		t.Error("canceled Window: want error")
	}
}

// TestSortedViewSharesPreparedState: SortedView is an O(rows) reorder
// over the base presentation's prepared state — the columns, groupings,
// and neighbor layout are shared by identity, only the row-ID
// order is private — and building one never mutates the base.
func TestSortedViewSharesPreparedState(t *testing.T) {
	tr := planFixture(t)
	p := figure1PlanPattern(t, tr)
	matched, err := Match(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Prepare(tr.Instance, p, matched)
	if err != nil {
		t.Fatal(err)
	}
	baseOrder := append([]tgm.NodeID(nil), pres.rowIDs...)

	v, err := pres.SortedView(SortSpec{Attr: "year", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pres.rowIDs, baseOrder) {
		t.Fatal("SortedView reordered the base presentation's rows")
	}
	if len(v.parts) != len(pres.parts) {
		t.Fatalf("view has %d participating columns, base %d", len(v.parts), len(pres.parts))
	}
	for i := range v.parts {
		if _, heap := pres.parts[i].src.(*graphrel.Groups); !heap || v.parts[i].src != pres.parts[i].src {
			t.Fatalf("participating column %d: view rebuilt the grouping (%T) instead of sharing the base's *graphrel.Groups", i, pres.parts[i].src)
		}
	}
	if len(v.columns) != len(pres.columns) || len(v.neighbors) != len(pres.neighbors) {
		t.Fatal("view's column layout differs from the base's")
	}
	if len(v.rowIDs) != len(baseOrder) {
		t.Fatalf("view has %d rows, base %d", len(v.rowIDs), len(baseOrder))
	}

	// The view renders exactly what sorting a fresh presentation renders.
	want, err := Prepare(tr.Instance, p, matched)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Sort(SortSpec{Attr: "year", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.rowIDs, want.rowIDs) {
		t.Fatal("view's row order differs from an in-place Sort")
	}
}
