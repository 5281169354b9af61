package session

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/etable"
	"repro/internal/graphrel"
	"repro/internal/testdb"
)

// newSharedSession builds a session over the Figure 3 corpus with an
// externally visible shared cache, so tests can observe its traffic.
func newSharedSession(t testing.TB) (*Session, *etable.Cache) {
	return newCachedSession(t, 64)
}

// newCachedSession is newSharedSession with a chosen cache capacity.
func newCachedSession(t testing.TB, entries int) (*Session, *etable.Cache) {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	cache := etable.NewCache(entries)
	return NewShared(res.Schema, res.Instance, cache), cache
}

// TestWindowMatchesFullRender: every window of the presented result is
// exactly the corresponding slice of the full render — across plain,
// sorted, and hidden-column presentations.
func TestWindowMatchesFullRender(t *testing.T) {
	s, _ := newSharedSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stages := []struct {
		name  string
		mutch func() error
	}{
		{"open", func() error { return nil }},
		{"sorted", func() error { return s.SortBy(etable.SortSpec{Attr: "year", Desc: true}) }},
		{"hidden", func() error { return s.HideColumn("year") }},
	}
	for _, st := range stages {
		if err := st.mutch(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		full, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		total := full.NumRows()
		if full.Total() != total || full.Offset != 0 {
			t.Fatalf("%s: full render window metadata [%d +%d of %d]", st.name, full.Offset, total, full.Total())
		}
		for _, win := range [][2]int{{0, 2}, {1, 3}, {total - 1, 10}, {total + 5, 2}, {0, 0}} {
			res, err := s.WindowCtx(ctx, win[0], win[1])
			if err != nil {
				t.Fatalf("%s window %v: %v", st.name, win, err)
			}
			start := win[0]
			if start > total {
				start = total
			}
			end := total
			if win[1] >= 0 && start+win[1] < total {
				end = start + win[1]
			}
			if res.Total() != total || res.Offset != start || len(res.Rows) != end-start {
				t.Fatalf("%s window %v: got [%d +%d of %d], want [%d +%d of %d]",
					st.name, win, res.Offset, len(res.Rows), res.Total(), start, end-start, total)
			}
			if len(res.Columns) != len(full.Columns) {
				t.Fatalf("%s window %v: %d columns, want %d", st.name, win, len(res.Columns), len(full.Columns))
			}
			for i, row := range res.Rows {
				want := full.Rows[start+i]
				if row.Node != want.Node || row.Label != want.Label {
					t.Fatalf("%s window %v row %d: %d/%q, want %d/%q",
						st.name, win, i, row.Node, row.Label, want.Node, want.Label)
				}
				for ci := range want.Cells {
					if row.Cells[ci].Count() != want.Cells[ci].Count() {
						t.Fatalf("%s window %v row %d cell %d ref count differs", st.name, win, i, ci)
					}
				}
			}
			// Re-reading the same window hits the memo (same pointer).
			again, err := s.WindowCtx(ctx, win[0], win[1])
			if err != nil {
				t.Fatal(err)
			}
			if again != res {
				t.Errorf("%s window %v: not served from the window memo", st.name, win)
			}
		}
	}
}

// TestWindowOutlivesMatchedRelation: a memoized presentation owns
// everything its windows read. With one cache entry per shard,
// unrelated traffic evicts the joined pattern's matched relation; fresh
// windows, a hide, a sort and a revert over the memoized presentation
// still render what an undisturbed session renders — without ever
// re-preparing, which the closing Match proves (a re-prepare would have
// re-inserted the relation and the Match would hit).
func TestWindowOutlivesMatchedRelation(t *testing.T) {
	s, cache := newCachedSession(t, 16)
	plain := newSession(t)
	ctx := context.Background()
	both := func(name string, apply func(*Session) error) {
		t.Helper()
		for _, sess := range []*Session{s, plain} {
			if err := apply(sess); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	sameWindow := func(name string, offset, limit int) {
		t.Helper()
		got, err := s.WindowCtx(ctx, offset, limit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := plain.WindowCtx(ctx, offset, limit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rg, rw := renderWindow(got), renderWindow(want); rg != rw {
			t.Fatalf("%s: window [%d,+%d) differs\ngot:\n%s\nwant:\n%s", name, offset, limit, rg, rw)
		}
	}
	both("open", func(x *Session) error { return x.Open("Papers") })
	both("pivot", func(x *Session) error { return x.Pivot("Authors") })
	sameWindow("prepared", 0, 2)

	// Evict everything the prepare left in the cache.
	for i := 0; i < 1024; i++ {
		if _, err := cache.GetOrCompute(fmt.Sprintf("filler-%d", i), func() (*graphrel.Relation, error) {
			return &graphrel.Relation{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	sameWindow("fresh window", 2, 3)
	both("hide", func(x *Session) error { return x.HideColumn("id") })
	sameWindow("hidden", 0, -1)
	both("sort", func(x *Session) error { return x.SortBy(etable.SortSpec{Attr: "name", Desc: true}) })
	sameWindow("sorted", 0, -1)
	both("revert", func(x *Session) error { return x.Revert(1) })
	sameWindow("reverted", 1, 2)

	misses := cache.Misses()
	if _, err := etable.NewSharedExecutor(s.Graph(), cache).Match(s.Pattern()); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() == misses {
		t.Fatal("the matched relation was cached all along: the flood evicted nothing, or a read re-prepared")
	}
}

// TestCloseReleasesSpillFilesAndReprepares: closing a session (what
// the server does on eviction) releases every spill file its memo
// holds, and a later read on the closed session re-prepares and renders
// the same window.
func TestCloseReleasesSpillFilesAndReprepares(t *testing.T) {
	s, pol := spillSession(t, 2)
	ctx := context.Background()
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pivot("Authors"); err != nil {
		t.Fatal(err)
	}
	before, err := s.WindowCtx(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := renderWindow(before)
	if len(runFiles(t, pol.Dir)) == 0 {
		t.Fatal("pivot did not spill")
	}
	s.Close()
	s.Close() // idempotent
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("run files left after Close: %v", left)
	}
	after, err := s.WindowCtx(ctx, 0, 2)
	if err != nil {
		t.Fatalf("read after Close: %v", err)
	}
	if got := renderWindow(after); got != want {
		t.Fatalf("window after Close differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if len(runFiles(t, pol.Dir)) == 0 {
		t.Fatal("read after Close did not re-prepare a spilled presentation")
	}
	s.Close()
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("run files left after the second Close: %v", left)
	}
}

// TestStateWindowCtx: the snapshot carries the windowed result plus
// consistent history, and a session with no open table still snapshots.
func TestStateWindowCtx(t *testing.T) {
	s, _ := newSharedSession(t)
	st, err := s.StateWindowCtx(context.Background(), 0, 5)
	if err != nil || st.Result != nil || st.Cursor != -1 {
		t.Fatalf("empty session snapshot: %+v, %v", st, err)
	}
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Filter("year > 2000"); err != nil {
		t.Fatal(err)
	}
	st, err = s.StateWindowCtx(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Offset != 1 || len(st.Result.Rows) > 2 {
		t.Fatalf("windowed snapshot: %+v", st.Result)
	}
	if len(st.History) != 2 || st.Cursor != 1 {
		t.Fatalf("history %d entries, cursor %d", len(st.History), st.Cursor)
	}
}

// TestSessionMaxRows pins the window side of the max-rows guard: an
// unbounded read of a table larger than the cap fails up front with a
// structured *graphrel.RowLimitError (before any cell is transformed),
// while metadata reads and paging within the cap are unaffected.
func TestSessionMaxRows(t *testing.T) {
	s, _ := newSharedSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	meta, err := s.WindowCtx(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := meta.Total()
	if total < 2 {
		t.Fatalf("fixture too small: %d rows", total)
	}
	s.SetMaxRows(total - 1)
	var rl *graphrel.RowLimitError
	if _, err := s.WindowCtx(ctx, 0, -1); !errors.As(err, &rl) || rl.Limit != total-1 {
		t.Fatalf("unbounded read under cap %d: err = %v", total-1, err)
	}
	if _, err := s.WindowCtx(ctx, 0, total-1); err != nil {
		t.Fatalf("read within cap: %v", err)
	}
	// An unbounded tail read is effectively small — allowed.
	if res, err := s.WindowCtx(ctx, total-1, -1); err != nil || len(res.Rows) != 1 {
		t.Fatalf("tail window: %v (%d rows)", err, len(res.Rows))
	}
	// Metadata-only reads never trip the cap, and the error surfaces
	// through snapshots identically.
	if _, err := s.WindowCtx(ctx, 0, 0); err != nil {
		t.Fatalf("metadata read: %v", err)
	}
	if _, err := s.StateWindowCtx(ctx, 0, -1); !errors.As(err, &rl) {
		t.Fatalf("snapshot: err = %v", err)
	}
	// Lifting the cap restores unbounded reads.
	s.SetMaxRows(0)
	if _, err := s.WindowCtx(ctx, 0, -1); err != nil {
		t.Fatalf("uncapped read: %v", err)
	}
}

// TestSessionWindowRecycling: with recycling on, paging through more
// distinct windows than the memo holds (forcing evictions that feed
// earlier windows' arenas into later materializations) still yields
// windows identical to an untouched session's full render. Each result
// is verified before the next session call, per the recycling contract.
func TestSessionWindowRecycling(t *testing.T) {
	base, _ := newSharedSession(t)
	if err := base.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	full, err := base.Result()
	if err != nil {
		t.Fatal(err)
	}
	total := full.NumRows()
	if total < 2 {
		t.Fatalf("fixture too small: %d rows", total)
	}

	s, _ := newSharedSession(t)
	s.SetWindowRecycling(true)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(label string, res *etable.Result, start, end int) {
		t.Helper()
		if len(res.Rows) != end-start {
			t.Fatalf("%s: %d rows, want %d", label, len(res.Rows), end-start)
		}
		for i, row := range res.Rows {
			want := full.Rows[start+i]
			if row.Node != want.Node || row.Label != want.Label {
				t.Fatalf("%s row %d: %d/%q, want %d/%q", label, i, row.Node, row.Label, want.Node, want.Label)
			}
			for ci := range want.Cells {
				if row.Cells[ci].Count() != want.Cells[ci].Count() {
					t.Fatalf("%s row %d cell %d: ref count differs", label, i, ci)
				}
				if res.Columns[ci].Kind == etable.ColBase &&
					row.Cells[ci].Value.Format() != want.Cells[ci].Value.Format() {
					t.Fatalf("%s row %d cell %d: %q, want %q", label, i, ci,
						row.Cells[ci].Value.Format(), want.Cells[ci].Value.Format())
				}
			}
		}
	}
	// Varying limits make each window a distinct memo key, so rounds
	// past windowMemoEntries evict — and recycle — the oldest windows.
	for round := 0; round < 3; round++ {
		for l := 1; l <= windowMemoEntries+4; l++ {
			res, err := s.WindowCtx(ctx, 0, l)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d limit %d", round, l), res, 0, min(l, total))
		}
	}
	// Close recycles the remaining memoized windows; the session still
	// serves correct (freshly materialized) reads afterwards.
	s.Close()
	res, err := s.WindowCtx(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("after close", res, 0, min(2, total))
}

// TestSortValidationWithoutRender: sort ops validate against the
// visible columns without materializing rows, and sorting by a hidden
// column still fails.
func TestSortValidationWithoutRender(t *testing.T) {
	s, _ := newSharedSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.HideColumn("year"); err != nil {
		t.Fatal(err)
	}
	if err := s.SortBy(etable.SortSpec{Attr: "year"}); err == nil {
		t.Error("sorting by a hidden column must fail")
	}
	if err := s.SortBy(etable.SortSpec{Attr: "title"}); err != nil {
		t.Errorf("sorting by a visible column failed: %v", err)
	}
}

// TestSortVariantsShareOnePreparedPresentation: sorting is a view over
// the memoized base presentation, not a new presentation state — a
// session toggling through many sort orders of one pattern holds ONE
// memo entry and prepares once (the cache sees no further lookups),
// and each variant's windows render the right order.
func TestSortVariantsShareOnePreparedPresentation(t *testing.T) {
	s, cache := newSharedSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := s.WindowCtx(ctx, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	total := base.NumRows()
	lookups := cache.Hits() + cache.Misses()

	specs := []etable.SortSpec{
		{Attr: "year"},
		{Attr: "year", Desc: true},
		{Attr: "title"},
		{Attr: "title", Desc: true},
	}
	for _, spec := range specs {
		if err := s.SortBy(spec); err != nil {
			t.Fatal(err)
		}
		res, err := s.WindowCtx(ctx, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != total {
			t.Fatalf("sort %+v: %d rows, want %d", spec, res.NumRows(), total)
		}
	}
	if got := len(s.memo); got != 1 {
		t.Fatalf("%d memo entries across %d sort variants, want 1 (sorts must share the prepared presentation)", got, len(specs))
	}
	for _, pe := range s.memo {
		if got := len(pe.sorted); got != len(specs) {
			t.Fatalf("%d memoized sorted views, want %d", got, len(specs))
		}
	}
	// Reverting through every sorted state (and the unsorted open) hits
	// the memoized views: still one entry, never re-prepared.
	for i := len(specs); i >= 0; i-- {
		if err := s.Revert(i); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.memo); got != 1 {
		t.Fatalf("%d memo entries after reverts, want 1", got)
	}
	if got := cache.Hits() + cache.Misses(); got != lookups {
		t.Fatalf("%d cache lookups since the first window, want 0 (sorts and reverts must not re-prepare)", got-lookups)
	}
}
