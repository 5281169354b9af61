package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestServerSpillPagingAndStats is the end-to-end acceptance drill: a
// join result past -max-rows is served, the session pages through it
// window by window, and /api/v1/stats has no spill block.
func TestServerSpillPagingAndStats(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{MaxRows: 2})
	id := createSession(t, ts)
	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}
	pivotAndPage(t, ts, id)
	var stats struct {
		Datasets []struct {
			Spill *struct{} `json:"spill"`
		} `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	}
	if len(stats.Datasets) == 0 || stats.Datasets[0].Spill != nil {
		t.Fatalf("stats datasets = %+v, want one without a spill block", stats.Datasets)
	}
}

// pivotAndPage pivots session id — open on Papers, on a server whose
// windows are capped at 2 rows — to Authors, whose match is past the
// cap, and pages the result to its end in 2-row windows: the pivot and
// every page are served.
func pivotAndPage(t *testing.T, ts *httptest.Server, id int64) {
	t.Helper()
	st, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "pivot", "column": "Authors"})
	if code != http.StatusOK {
		t.Fatalf("pivot past the cap: code=%d", code)
	}
	if len(st.Rows) != 2 || st.TotalRows <= 2 {
		t.Fatalf("first page: %d rows of %d", len(st.Rows), st.TotalRows)
	}
	seen := len(st.Rows)
	for off := 2; off < st.TotalRows; off += 2 {
		var win state
		url := fmt.Sprintf("%s/api/v1/sessions/%d?offset=%d&limit=2", ts.URL, id, off)
		if code := getJSON(t, url, &win); code != http.StatusOK {
			t.Fatalf("page offset %d: code=%d", off, code)
		}
		seen += len(win.Rows)
	}
	if seen != st.TotalRows {
		t.Fatalf("paged %d rows, total %d", seen, st.TotalRows)
	}
}

// limitEnvelope is the unified 413 payload: the error code, the
// configured cap, and the row count the rejected window would read.
type limitEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Limit   int    `json:"limit"`
	Rows    int    `json:"rows"`
}

// TestResultTooLargePayloadUnified: -max-rows bounds a window, never a
// match. A pivot whose match is past the cap is served and paged to its
// end, and an unpaged read wider than the cap is refused with the
// result_too_large payload: the limit and the observed row count.
func TestResultTooLargePayloadUnified(t *testing.T) {
	open := func(t *testing.T, opts Options) (*httptest.Server, int64) {
		_, ts := newTestServerOpts(t, opts)
		id := createSession(t, ts)
		if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
			t.Fatalf("open: code=%d", code)
		}
		return ts, id
	}
	t.Run("past-cap pivot served and paged", func(t *testing.T) {
		ts, id := open(t, Options{MaxRows: 2})
		pivotAndPage(t, ts, id)
	})
	t.Run("pre-window guard", func(t *testing.T) {
		// One unpaged read wider than the cap is refused (all 6
		// papers > 4).
		ts, id := open(t, Options{MaxRows: 4})
		var env limitEnvelope
		code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &env)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", code)
		}
		if env.Code != codeResultTooLarge {
			t.Fatalf("code = %q, want %q", env.Code, codeResultTooLarge)
		}
		if env.Limit != 4 || env.Rows != 6 {
			t.Fatalf("limit, rows = %d, %d, want 4, 6", env.Limit, env.Rows)
		}
		if env.Message == "" {
			t.Fatal("empty message")
		}
	})
}
