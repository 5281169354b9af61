package session

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/etable"
	"repro/internal/testdb"
	"repro/internal/tgm"
	"repro/internal/value"
)

func newSession(t testing.TB) *Session {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	return New(res.Schema, res.Instance)
}

func TestOpenAndResult(t *testing.T) {
	s := newSession(t)
	if _, err := s.Result(); err == nil {
		t.Error("Result before Open should fail")
	}
	if err := s.Filter("year > 2000"); err == nil {
		t.Error("Filter before Open should fail")
	}
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// A second read renders the memoized presentation again.
	res2, _ := s.Result()
	if renderWindow(res) != renderWindow(res2) || s.memo.Len() != 1 {
		t.Errorf("second read differs or re-prepared (%d memo entries)", s.memo.Len())
	}
	if err := s.Open("Nope"); err == nil {
		t.Error("unknown table accepted")
	}
	h, cur := s.Entries()
	if len(h) != 1 || cur != 0 {
		t.Fatalf("history = %d entries, cursor %d", len(h), cur)
	}
	if h[0].Action != "Open 'Papers' table" {
		t.Errorf("action = %q", h[0].Action)
	}
}

func TestFilterAndHistory(t *testing.T) {
	s := newSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Filter("year > 2010"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.NumRows() != 4 { // 2014, 2011×3
		t.Errorf("filtered rows = %d, want 4", res.NumRows())
	}
	if err := s.Filter("((bad"); err == nil {
		t.Error("bad filter accepted")
	}
	if err := s.Filter("year < 2014"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.NumRows() != 3 {
		t.Errorf("doubly filtered rows = %d, want 3", res.NumRows())
	}
	// Revert to the first filter.
	if err := s.Revert(1); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.NumRows() != 4 {
		t.Errorf("reverted rows = %d, want 4", res.NumRows())
	}
	// A new action truncates the redo suffix.
	if err := s.Filter("year = 2014"); err != nil {
		t.Fatal(err)
	}
	if h, _ := s.Entries(); len(h) != 3 {
		t.Errorf("history after truncation = %d, want 3", len(h))
	}
	if err := s.Revert(99); err == nil {
		t.Error("bad revert index accepted")
	}
}

func TestPivotNeighbor(t *testing.T) {
	s := newSession(t)
	s.Open("Conferences")
	s.Filter("acronym = 'SIGMOD'")
	// Pivot on the Papers neighbor column: Add.
	res, _ := s.Result()
	papersCol := ""
	for _, c := range res.Columns {
		if c.Kind == etable.ColNeighbor && c.TargetType == "Papers" {
			papersCol = c.Name
			break
		}
	}
	if papersCol == "" {
		t.Fatal("no Papers neighbor column")
	}
	if err := s.Pivot(papersCol); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.PrimaryType.Name != "Papers" || res.NumRows() != 4 {
		t.Errorf("pivoted to %s with %d rows", res.PrimaryType.Name, res.NumRows())
	}
	// Pivot on the participating Conferences column: Shift back.
	if err := s.Pivot("Conferences"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.PrimaryType.Name != "Conferences" || res.NumRows() != 1 {
		t.Errorf("shifted to %s with %d rows", res.PrimaryType.Name, res.NumRows())
	}
	if err := s.Pivot("acronym"); err == nil {
		t.Error("pivot on base attribute accepted")
	}
	if err := s.Pivot("nope"); err == nil {
		t.Error("pivot on missing column accepted")
	}
}

func TestSingle(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	n, ok := s.Graph().FindNode("Authors", "name", value.Str("Arnab Nandi"))
	if !ok {
		t.Fatal("author missing")
	}
	if err := s.Single(n.ID); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.NumRows() != 1 || res.Rows[0].Label != "Arnab Nandi" {
		t.Errorf("single = %+v", res.Rows)
	}
	if res.PrimaryType.Name != "Authors" {
		t.Errorf("primary = %s", res.PrimaryType.Name)
	}
	if err := s.Single(tgm.NodeID(9999)); err == nil {
		t.Error("bad node accepted")
	}
}

func TestSeeall(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	p1, ok := s.Graph().FindNode("Papers", "id", value.Int(1))
	if !ok {
		t.Fatal("paper 1 missing")
	}
	// Click the author count of paper 1 (neighbor column).
	if err := s.Seeall(p1.ID, "Authors"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.PrimaryType.Name != "Authors" || res.NumRows() != 2 {
		t.Errorf("authors of paper 1 = %d rows of %s", res.NumRows(), res.PrimaryType.Name)
	}
	labels := map[string]bool{}
	for _, r := range res.Rows {
		labels[r.Label] = true
	}
	if !labels["H. V. Jagadish"] || !labels["Arnab Nandi"] {
		t.Errorf("authors = %v", labels)
	}
	// Error paths.
	if err := s.Seeall(tgm.NodeID(9999), "Authors"); err == nil {
		t.Error("bad node accepted")
	}
	if err := s.Seeall(p1.ID, "Authors"); err == nil {
		t.Error("node of non-primary type accepted")
	}
}

func TestSeeallParticipating(t *testing.T) {
	s := newSession(t)
	s.Open("Conferences")
	s.Filter("acronym = 'SIGMOD'")
	res, _ := s.Result()
	papersCol := ""
	for _, c := range res.Columns {
		if c.TargetType == "Papers" {
			papersCol = c.Name
			break
		}
	}
	s.Pivot(papersCol)
	// Now primary = Papers with participating Conferences column. Seeall
	// on the Conferences cell of paper 1 shifts to Conferences filtered
	// to paper 1's conference.
	p1, _ := s.Graph().FindNode("Papers", "id", value.Int(1))
	if err := s.Seeall(p1.ID, "Conferences"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.PrimaryType.Name != "Conferences" || res.NumRows() != 1 || res.Rows[0].Label != "SIGMOD" {
		t.Errorf("seeall participating = %d rows of %s", res.NumRows(), res.PrimaryType.Name)
	}
}

func TestFilterByNeighbor(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	if err := s.FilterByNeighbor("Authors", "name = 'H. V. Jagadish'"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	// Jagadish's papers: 1, 2, 5.
	if res.PrimaryType.Name != "Papers" || res.NumRows() != 3 {
		t.Errorf("Jagadish papers = %d rows of %s", res.NumRows(), res.PrimaryType.Name)
	}
	if err := s.FilterByNeighbor("nope", "x = 1"); err == nil {
		t.Error("missing column accepted")
	}
	if err := s.FilterByNeighbor("year", "x = 1"); err == nil {
		t.Error("base column accepted")
	}
	// Neighbor filter composes with a base filter (the paper's Task 3
	// shape: author = X AND year >= Y).
	if err := s.Filter("year >= 2011"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.NumRows() != 2 { // papers 2 (2014), 5 (2011)
		t.Errorf("filtered = %d, want 2", res.NumRows())
	}
}

func TestSortAndHide(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	if err := s.SortBy(etable.SortSpec{Attr: "year", Desc: true}); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	yi := res.ColumnIndex("year")
	if res.Rows[0].Cells[yi].Value.AsInt() != 2014 {
		t.Errorf("top year = %v", res.Rows[0].Cells[yi].Value)
	}
	if err := s.SortBy(etable.SortSpec{Attr: "nope"}); err == nil {
		t.Error("bad sort accepted")
	}
	// Sorting by count of a reference column.
	if err := s.SortBy(etable.SortSpec{Column: "Authors", Desc: true}); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if got := res.Rows[0].Cells[res.ColumnIndex("Authors")].Count(); got != 2 {
		t.Errorf("top author count = %d", got)
	}
	// Hide a column.
	if err := s.HideColumn("page_start"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.ColumnIndex("page_start") >= 0 {
		t.Error("hidden column still present")
	}
	if len(res.Rows[0].Cells) != len(res.Columns) {
		t.Error("cells misaligned after hide")
	}
	if err := s.HideColumn("nope"); err == nil {
		t.Error("hiding missing column accepted")
	}
	if err := s.ShowColumn("page_start"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.ColumnIndex("page_start") < 0 {
		t.Error("shown column missing")
	}
	if err := s.ShowColumn("page_start"); err == nil {
		t.Error("showing non-hidden column accepted")
	}
	// Sort persists across filters (presentation state carried).
	if err := s.Filter("year > 2000"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if got := res.Rows[0].Cells[res.ColumnIndex("Authors")].Count(); got != 2 {
		t.Errorf("sort not carried: top author count = %d", got)
	}
}

// TestFigure2_ThreeActions exercises the three ways of exploring author
// information from a paper row (paper's Figure 2).
func TestFigure2_ThreeActions(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	p1, _ := s.Graph().FindNode("Papers", "id", value.Int(1))
	nandi, _ := s.Graph().FindNode("Authors", "name", value.Str("Arnab Nandi"))

	// (a) Click an author's name → Single.
	if err := s.Single(nandi.ID); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.NumRows() != 1 || res.Rows[0].Label != "Arnab Nandi" {
		t.Errorf("(a) = %+v", res.Rows)
	}

	// (b) Click the paper's author count → Seeall.
	s.Open("Papers")
	if err := s.Seeall(p1.ID, "Authors"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.NumRows() != 2 {
		t.Errorf("(b) rows = %d", res.NumRows())
	}

	// (c) Click the pivot button on the Authors column → Pivot; authors
	// grouped across all rows, sortable by paper count.
	s.Open("Papers")
	if err := s.Pivot("Authors"); err != nil {
		t.Fatal(err)
	}
	if err := s.SortBy(etable.SortSpec{Column: "Papers", Desc: true}); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.PrimaryType.Name != "Authors" {
		t.Errorf("(c) primary = %s", res.PrimaryType.Name)
	}
	// Jagadish has the most papers (3).
	if res.Rows[0].Label != "H. V. Jagadish" {
		t.Errorf("(c) top author = %q", res.Rows[0].Label)
	}
	if got := res.Rows[0].Cells[res.ColumnIndex("Papers")].Count(); got != 3 {
		t.Errorf("(c) top paper count = %d", got)
	}
}

func TestEntityTypes(t *testing.T) {
	s := newSession(t)
	types := s.EntityTypes()
	if len(types) != 7 { // 4 entities + keyword + year + country
		t.Fatalf("types = %d", len(types))
	}
	// Entities come first.
	for i, nt := range types {
		if i < 4 && nt.Kind != tgm.NodeEntity {
			t.Errorf("type %d = %v (%v)", i, nt.Name, nt.Kind)
		}
	}
}

func TestLookupValue(t *testing.T) {
	s := newSession(t)
	if _, err := s.LookupValue("x", "year"); err == nil {
		t.Error("lookup before open accepted")
	}
	s.Open("Papers")
	v, err := s.LookupValue("Making database systems usable", "year")
	if err != nil || v.AsInt() != 2007 {
		t.Errorf("lookup = %v, %v", v, err)
	}
	if _, err := s.LookupValue("Nope", "year"); err == nil {
		t.Error("missing row accepted")
	}
	if _, err := s.LookupValue("Making database systems usable", "nope"); err == nil {
		t.Error("missing attr accepted")
	}
}

func TestHistoryDescriptions(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	s.Filter("year > 2005")
	s.SortBy(etable.SortSpec{Column: "Authors", Desc: true})
	h, _ := s.Entries()
	if len(h) != 3 {
		t.Fatalf("history = %d", len(h))
	}
	if !strings.Contains(h[1].Action, "Filter 'Papers' table by (year > 2005)") {
		t.Errorf("filter action = %q", h[1].Action)
	}
	if !strings.Contains(h[2].Action, "Sort table by # of Authors") {
		t.Errorf("sort action = %q", h[2].Action)
	}
}

// TestDisjunctiveFilter exercises the §6.1 note that disjunctions are a
// straightforward extension of the conjunctive filter window — the
// condition language supports them directly.
func TestDisjunctiveFilter(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	if err := s.Filter("year = 2007 OR year = 2014"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Result()
	if res.NumRows() != 2 {
		t.Errorf("disjunctive filter rows = %d, want 2", res.NumRows())
	}
	if err := s.Filter("title like '%SQL%' OR title like '%usable%'"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Result()
	if res.NumRows() != 2 {
		t.Errorf("combined rows = %d, want 2", res.NumRows())
	}
}

// TestExecutorReuseAcrossRevert checks that reverting and re-running a
// query is served from the session's match cache (the §9
// future-work extension) — the result is identical, and fast.
func TestExecutorReuseAcrossRevert(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	s.Filter("year > 2005")
	first, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	s.Filter("year < 2012")
	if err := s.Revert(1); err != nil {
		t.Fatal(err)
	}
	again, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRows() != again.NumRows() {
		t.Errorf("revert changed results: %d vs %d", first.NumRows(), again.NumRows())
	}
}

// TestConcurrentSessionActions hammers one session from many goroutines
// with mixed presentation and query actions; with -race this verifies
// the per-session mutex. Correctness of the end state is loose (actions
// interleave), but every individual call must be internally consistent.
func TestConcurrentSessionActions(t *testing.T) {
	s := newSession(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (w + i) % 5 {
				case 0:
					_ = s.Open("Papers")
				case 1:
					_ = s.Filter("year > 2005")
				case 2:
					if res, err := s.Result(); err == nil && res.NumRows() == 0 {
						t.Error("empty result for Papers")
						return
					}
				case 3:
					_ = s.SortBy(etable.SortSpec{Attr: "year", Desc: true})
				case 4:
					// No action here reverts, so the history only
					// grows: a cursor read before it stays inside it.
					history, cursor := s.Entries()
					res, err := s.WindowCtx(context.Background(), 0, -1)
					if err != nil {
						t.Error(err)
						return
					}
					if cursor >= 0 && res == nil {
						t.Error("open table but nil window")
						return
					}
					if cursor >= len(history) {
						t.Errorf("cursor %d outside history of %d", cursor, len(history))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSharedCacheAcrossSessions checks NewShared wiring: two sessions
// over one cache, the second pays no misses for a pattern the first
// already executed.
func TestSharedCacheAcrossSessions(t *testing.T) {
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	cache := etable.NewCache(128)
	s1 := NewShared(res.Schema, res.Instance, cache)
	s2 := NewShared(res.Schema, res.Instance, cache)
	if err := s1.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Filter("year > 2010"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Result(); err != nil {
		t.Fatal(err)
	}
	misses := cache.Misses()
	if err := s2.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Filter("year > 2010"); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != misses {
		t.Errorf("second session recomputed: misses %d → %d", misses, cache.Misses())
	}
	if r2.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", r2.NumRows())
	}
}

// TestPresentationMemo checks that presentation-identical states share
// one prepared presentation across Revert and render the same table,
// and that a sort is a view over it, not a second presentation.
func TestPresentationMemo(t *testing.T) {
	s := newSession(t)
	s.Open("Papers")
	first, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	pe := s.memo.Values()[0]
	s.SortBy(etable.SortSpec{Attr: "year", Desc: true})
	sorted, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if renderWindow(sorted) == renderWindow(first) {
		t.Error("sorted result renders the unsorted order")
	}
	if err := s.Revert(0); err != nil {
		t.Fatal(err)
	}
	again, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if renderWindow(again) != renderWindow(first) {
		t.Error("revert to identical presentation state renders a different table")
	}
	if s.memo.Len() != 1 || s.memo.Values()[0] != pe {
		t.Error("revert to identical presentation state missed the memo")
	}
}
