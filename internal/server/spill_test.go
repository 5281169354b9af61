package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestServerSpillPagingAndStats is the end-to-end acceptance drill: a
// join result past -max-rows under a spill policy is served instead of
// failing, the session pages through it window by window, nothing is
// written to the spill directory and /api/v1/stats has no spill block.
func TestServerSpillPagingAndStats(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServerOpts(t, Options{MaxRows: 2, SpillDir: dir})
	id := createSession(t, ts)

	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}
	// The pivot's join crosses the 2-row cap: without a spill policy this
	// is a 413; with one the first page renders.
	st, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "pivot", "column": "Authors"})
	if code != http.StatusOK {
		t.Fatalf("pivot over cap: code=%d (the policy did not serve it)", code)
	}
	if len(st.Rows) != 2 || st.TotalRows <= 2 {
		t.Fatalf("first page: %d rows of %d", len(st.Rows), st.TotalRows)
	}

	// Page through the whole result.
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
	// Nothing spills: the result is served from the heap, and the stats
	// carry no spill block.
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("spill directory holds %d entries (err %v)", len(left), err)
	}
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

// limitEnvelope is the unified 413 payload every rejection path must
// produce: the error code, the configured cap, and the row count the
// rejecting layer observed.
type limitEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Limit   int    `json:"limit"`
	Rows    int    `json:"rows"`
}

// TestResultTooLargePayloadUnified (satellite: unified 413 surfacing):
// whichever layer rejects — the prepare past the cap with spilling off,
// or the session pre-window guard — the client sees the same payload
// shape: code result_too_large with the limit
// and the observed row count.
func TestResultTooLargePayloadUnified(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		// drive performs the rejected request and returns its HTTP
		// status plus the decoded error envelope.
		drive     func(t *testing.T, ts *httptest.Server, id int64) (int, limitEnvelope)
		wantLimit int
		// minRows is the smallest observed-row count the rejecting
		// layer can legitimately report.
		minRows int
	}{
		{
			// Spilling off: the drain stops as soon as the pivot's result
			// exceeds the cap.
			name: "result over cap, spill off",
			opts: Options{MaxRows: 2, SpillDir: "off"},
			drive: func(t *testing.T, ts *httptest.Server, id int64) (int, limitEnvelope) {
				var env limitEnvelope
				code := postJSON(t, opsURL(ts, id)+"?limit=2", map[string]any{"op": "pivot", "column": "Authors"}, &env)
				return code, env
			},
			wantLimit: 2,
			minRows:   3, // the first batch that crossed the cap
		},
		{
			// Pre-window guard: spilling on, but one unpaged read wider
			// than the cap is still refused (all 6 papers > 4).
			name: "pre-window guard",
			opts: Options{MaxRows: 4},
			drive: func(t *testing.T, ts *httptest.Server, id int64) (int, limitEnvelope) {
				var env limitEnvelope
				code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &env)
				return code, env
			},
			wantLimit: 4,
			minRows:   6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.SpillDir == "" {
				tc.opts.SpillDir = t.TempDir()
			}
			_, ts := newTestServerOpts(t, tc.opts)
			id := createSession(t, ts)
			if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
				t.Fatalf("open: code=%d", code)
			}
			code, env := tc.drive(t, ts, id)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", code)
			}
			if env.Code != codeResultTooLarge {
				t.Fatalf("code = %q, want %q", env.Code, codeResultTooLarge)
			}
			if env.Limit != tc.wantLimit {
				t.Fatalf("limit = %d, want %d", env.Limit, tc.wantLimit)
			}
			if env.Rows < tc.minRows {
				t.Fatalf("rows = %d, want ≥%d", env.Rows, tc.minRows)
			}
			if env.Message == "" {
				t.Fatal("empty message")
			}
		})
	}
}
