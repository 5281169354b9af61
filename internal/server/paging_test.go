package server

import (
	"fmt"
	"net/url"
	"testing"
)

// The cursor-paging edge cases the windowed presentation path must
// keep: offsets beyond the table, cursors walking across the final
// partial page, and sort-then-page equality with slicing a full
// render.

// openPapers creates a session with Papers open and returns its state.
func openPapers(t *testing.T, base string) v1State {
	t.Helper()
	var st v1State
	if code := doJSON(t, "POST", base+"/api/v1/sessions",
		map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}, &st); code != 201 {
		t.Fatalf("create = %d", code)
	}
	return st
}

// TestPagingOffsetBeyondTotal: an offset past the end is not an error —
// it returns an empty row window clamped to the table, with full
// metadata, and issues no continuation cursor.
func TestPagingOffsetBeyondTotal(t *testing.T) {
	ts := newTestServer(t)
	st := openPapers(t, ts.URL)
	total := st.TotalRows
	if total == 0 {
		t.Fatal("empty fixture")
	}
	var page v1State
	u := fmt.Sprintf("%s/api/v1/sessions/%d?offset=%d&limit=5", ts.URL, st.ID, total+100)
	if code := doJSON(t, "GET", u, nil, &page); code != 200 {
		t.Fatalf("offset beyond total = %d", code)
	}
	if len(page.Rows) != 0 || page.TotalRows != total || page.Offset != total {
		t.Fatalf("window = [%d +%d of %d], want [%d +0 of %d]",
			page.Offset, len(page.Rows), page.TotalRows, total, total)
	}
	if page.NextCursor != "" {
		t.Error("empty trailing window must not issue a cursor")
	}
}

// TestCursorWalksFinalPartialPage: paging by a size that does not
// divide the table walks every row exactly once, the last page is
// partial, and the final response carries no cursor.
func TestCursorWalksFinalPartialPage(t *testing.T) {
	ts := newTestServer(t)
	st := openPapers(t, ts.URL)
	total := st.TotalRows
	pageSize := 4
	if total%pageSize == 0 {
		pageSize = 5 // keep the last page partial even if the fixture grows
	}
	if total%pageSize == 0 {
		t.Fatalf("pick a page size not dividing %d", total)
	}
	var page v1State
	u := fmt.Sprintf("%s/api/v1/sessions/%d?limit=%d", ts.URL, st.ID, pageSize)
	if code := doJSON(t, "GET", u, nil, &page); code != 200 {
		t.Fatalf("first page = %d", code)
	}
	seen := 0
	var labels []string
	for {
		if page.TotalRows != total {
			t.Fatalf("totalRows drifted: %d vs %d", page.TotalRows, total)
		}
		if page.Offset != seen {
			t.Fatalf("page offset %d, want %d", page.Offset, seen)
		}
		seen += len(page.Rows)
		for _, r := range page.Rows {
			labels = append(labels, r.Label)
		}
		if page.NextCursor == "" {
			break
		}
		if len(page.Rows) != pageSize {
			t.Fatalf("non-final page has %d rows, want %d", len(page.Rows), pageSize)
		}
		u := fmt.Sprintf("%s/api/v1/sessions/%d?cursor=%s", ts.URL, st.ID, url.QueryEscape(page.NextCursor))
		page = v1State{}
		if code := doJSON(t, "GET", u, nil, &page); code != 200 {
			t.Fatalf("cursor page = %d", code)
		}
	}
	if seen != total {
		t.Fatalf("walked %d rows, want %d", seen, total)
	}
	if last := total % pageSize; last != 0 && len(page.Rows) != last {
		t.Fatalf("final partial page has %d rows, want %d", len(page.Rows), last)
	}
	// The walk equals the full render's row order.
	var full v1State
	if code := doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, st.ID), nil, &full); code != 200 {
		t.Fatalf("full render = %d", code)
	}
	if len(full.Rows) != total {
		t.Fatalf("full render has %d rows", len(full.Rows))
	}
	for i, r := range full.Rows {
		if labels[i] != r.Label {
			t.Fatalf("row %d: paged %q vs full %q", i, labels[i], r.Label)
		}
	}
}

// TestSortThenPageEqualsFullRenderSlice: applying a sort op and paging
// the sorted table returns exactly the same rows, in the same order, as
// the sorted full render sliced client-side.
func TestSortThenPageEqualsFullRenderSlice(t *testing.T) {
	ts := newTestServer(t)
	st := openPapers(t, ts.URL)
	opsURL := fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, st.ID)
	var sorted v1State
	if code := doJSON(t, "POST", opsURL,
		map[string]any{"op": "sort", "attr": "year", "desc": true}, &sorted); code != 200 {
		t.Fatalf("sort = %d", code)
	}
	var full v1State
	if code := doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, st.ID), nil, &full); code != 200 {
		t.Fatalf("full = %d", code)
	}
	total := full.TotalRows
	for _, win := range [][2]int{{0, 2}, {1, 3}, {total - 2, 10}} {
		var page v1State
		u := fmt.Sprintf("%s/api/v1/sessions/%d?offset=%d&limit=%d", ts.URL, st.ID, win[0], win[1])
		if code := doJSON(t, "GET", u, nil, &page); code != 200 {
			t.Fatalf("window %v = %d", win, code)
		}
		end := win[0] + win[1]
		if end > total {
			end = total
		}
		want := full.Rows[win[0]:end]
		if len(page.Rows) != len(want) {
			t.Fatalf("window %v: %d rows, want %d", win, len(page.Rows), len(want))
		}
		for i := range want {
			if page.Rows[i].Node != want[i].Node || page.Rows[i].Label != want[i].Label {
				t.Fatalf("window %v row %d: %d/%q, want %d/%q", win, i,
					page.Rows[i].Node, page.Rows[i].Label, want[i].Node, want[i].Label)
			}
		}
	}
}
