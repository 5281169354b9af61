package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spillFDs counts this process's open file descriptors backed by the
// spill directory. Server spill files are anonymous (O_TMPFILE or
// unlinked at open), so directory listings stay empty by design — the
// held descriptor is the only observable footprint, and the right one:
// it is what eviction must release.
func spillFDs(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var held []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue
		}
		if strings.HasPrefix(target, dir+string(os.PathSeparator)) {
			held = append(held, target)
		}
	}
	return held
}

// TestServerSpillPagingAndStats is the end-to-end acceptance drill: a
// join result past -max-rows spills instead of failing, the session
// pages through it window by window, and /api/v1/stats reports a
// non-empty per-dataset spill block.
func TestServerSpillPagingAndStats(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServerOpts(t, Options{MaxRows: 2, SpillDir: dir})
	id := createSession(t, ts)

	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}
	// The pivot's join crosses the 2-row cap: without spilling this is a
	// 413; with it the result lands on disk and the first page renders.
	st, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "pivot", "column": "Authors"})
	if code != http.StatusOK {
		t.Fatalf("pivot over cap: code=%d (spill did not engage)", code)
	}
	if len(st.Rows) != 2 || st.TotalRows <= 2 {
		t.Fatalf("first page: %d rows of %d", len(st.Rows), st.TotalRows)
	}

	// Page through the whole spilled result.
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
	if len(spillFDs(t, dir)) == 0 {
		t.Fatal("no open spill files while browsing a spilled result")
	}

	// The stats endpoint attributes the spill to the dataset.
	var stats struct {
		Datasets []struct {
			Name  string `json:"name"`
			Spill *struct {
				Spills   int64 `json:"spills"`
				RunBytes int64 `json:"runBytes"`
				Faults   int64 `json:"faults"`
			} `json:"spill"`
		} `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	}
	if len(stats.Datasets) == 0 {
		t.Fatal("stats has no datasets")
	}
	sp := stats.Datasets[0].Spill
	if sp == nil {
		t.Fatal("stats omits the spill block after a forced spill")
	}
	if sp.Spills == 0 || sp.RunBytes == 0 || sp.Faults == 0 {
		t.Fatalf("spill block = %+v, want nonzero spills, runBytes, faults", *sp)
	}
}

// TestServerSpillEvictionCleanup: evicting a session (here via the
// MaxSessions LRU) closes it, releasing every spill run file it held.
func TestServerSpillEvictionCleanup(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServerOpts(t, Options{MaxRows: 2, SpillDir: dir, MaxSessions: 1, SessionTTL: -1})
	id := createSession(t, ts)
	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}
	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "pivot", "column": "Authors"}); code != http.StatusOK {
		t.Fatalf("pivot: code=%d", code)
	}
	if len(spillFDs(t, dir)) == 0 {
		t.Fatal("pivot did not spill")
	}
	if left, err := filepath.Glob(filepath.Join(dir, "etspill-*")); err != nil || len(left) != 0 {
		t.Fatalf("anonymous spill left directory entries: %v (err %v)", left, err)
	}

	// A second session trips MaxSessions=1 and LRU-evicts the first,
	// whose Close must release every spill descriptor it held.
	createSession(t, ts)
	if left := spillFDs(t, dir); len(left) != 0 {
		t.Fatalf("spill files still open after session eviction: %v", left)
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
// whichever layer rejects — the match's drain with spilling off, the
// spill byte budget, or the session pre-window guard — the client
// sees the same payload shape: code result_too_large with the limit
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
			// Spill byte budget exhausted: the spill aborts mid-write and
			// surfaces the same 413.
			name: "spill budget exceeded",
			opts: Options{MaxRows: 2, MaxSpillBytes: 8},
			drive: func(t *testing.T, ts *httptest.Server, id int64) (int, limitEnvelope) {
				var env limitEnvelope
				code := postJSON(t, opsURL(ts, id)+"?limit=2", map[string]any{"op": "pivot", "column": "Authors"}, &env)
				return code, env
			},
			wantLimit: 2,
			minRows:   3,
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
