package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testdb"
)

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(tr.Schema, tr.Instance))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	var created struct {
		ID int64 `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("create session status = %d", code)
	}
	return created.ID
}

func TestSchemaEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var schema struct {
		NodeTypes []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"nodeTypes"`
		EdgeTypes []struct {
			Name string `json:"name"`
		} `json:"edgeTypes"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/schema", &schema); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(schema.NodeTypes) != 7 {
		t.Errorf("node types = %d", len(schema.NodeTypes))
	}
	for _, nt := range schema.NodeTypes {
		if nt.Name == "Papers" && nt.Count != 6 {
			t.Errorf("Papers count = %d", nt.Count)
		}
	}
	if len(schema.EdgeTypes) == 0 {
		t.Error("no edge types")
	}
}

type state struct {
	Pattern string `json:"pattern"`
	Columns []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"columns"`
	Rows []struct {
		Node  int64  `json:"node"`
		Label string `json:"label"`
		Cells []struct {
			Value string `json:"value"`
			Count int    `json:"count"`
			Refs  []struct {
				ID    int64  `json:"id"`
				Label string `json:"label"`
			} `json:"refs"`
		} `json:"cells"`
	} `json:"rows"`
	TotalRows int `json:"totalRows"`
	Offset    int `json:"offset"`
	History   []struct {
		Action string `json:"action"`
	} `json:"history"`
	Cursor int `json:"cursor"`
}

// act applies one op through POST /api/v1/sessions/{id}/ops and
// returns the server's default window of the resulting state.
func act(t *testing.T, ts *httptest.Server, id int64, op map[string]any) (state, int) {
	t.Helper()
	return actWindow(t, ts, id, "", op)
}

// actWindow is act with an offset/limit query selecting the window.
func actWindow(t *testing.T, ts *httptest.Server, id int64, query string, op map[string]any) (state, int) {
	t.Helper()
	var st state
	code := postJSON(t, opsURL(ts, id)+query, op, &st)
	return st, code
}

func opsURL(ts *httptest.Server, id int64) string {
	return fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, id)
}

func TestOpenFilterPivotFlow(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)

	st, code := act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	if code != http.StatusOK {
		t.Fatalf("open status = %d", code)
	}
	if len(st.Rows) != 6 {
		t.Errorf("rows = %d", len(st.Rows))
	}
	st, code = act(t, ts, id, map[string]any{"op": "filter", "cond": "year > 2010"})
	if code != http.StatusOK || len(st.Rows) != 4 {
		t.Errorf("filter: code=%d rows=%d", code, len(st.Rows))
	}
	st, code = act(t, ts, id, map[string]any{"op": "pivot", "column": "Authors"})
	if code != http.StatusOK {
		t.Fatalf("pivot status = %d", code)
	}
	if !strings.Contains(st.Pattern, "*Authors") {
		t.Errorf("pattern = %q", st.Pattern)
	}
	if len(st.History) != 3 || st.Cursor != 2 {
		t.Errorf("history = %d entries, cursor %d", len(st.History), st.Cursor)
	}
	// Sort authors by paper count.
	st, code = act(t, ts, id, map[string]any{"op": "sort", "column": "Papers", "desc": true})
	if code != http.StatusOK {
		t.Fatalf("sort status = %d", code)
	}
	if len(st.Rows) == 0 || st.Rows[0].Label == "" {
		t.Error("sorted rows empty")
	}
}

func TestSingleAndSeeall(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	st, _ := act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	// Find the Authors column and paper 1's first author ref.
	authorsCol := -1
	for i, c := range st.Columns {
		if c.Name == "Authors" {
			authorsCol = i
		}
	}
	if authorsCol < 0 {
		t.Fatal("no Authors column")
	}
	row := st.Rows[0]
	if len(row.Cells[authorsCol].Refs) == 0 {
		t.Fatal("no author refs")
	}
	ref := row.Cells[authorsCol].Refs[0]

	// Single: click the author's name.
	st2, code := act(t, ts, id, map[string]any{"op": "single", "node": ref.ID})
	if code != http.StatusOK || len(st2.Rows) != 1 || st2.Rows[0].Label != ref.Label {
		t.Errorf("single: code=%d rows=%+v", code, st2.Rows)
	}

	// Back to papers, then Seeall on the author count.
	act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	st3, code := act(t, ts, id, map[string]any{"op": "seeall", "node": row.Node, "column": "Authors"})
	if code != http.StatusOK || len(st3.Rows) != 2 {
		t.Errorf("seeall: code=%d rows=%d", code, len(st3.Rows))
	}
}

func TestRevertAndHide(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	act(t, ts, id, map[string]any{"op": "filter", "cond": "year = 2011"})
	st, code := act(t, ts, id, map[string]any{"op": "revert", "index": 0})
	if code != http.StatusOK || len(st.Rows) != 6 {
		t.Errorf("revert: code=%d rows=%d", code, len(st.Rows))
	}
	st, code = act(t, ts, id, map[string]any{"op": "hide", "column": "page_start"})
	if code != http.StatusOK {
		t.Fatalf("hide status = %d", code)
	}
	for _, c := range st.Columns {
		if c.Name == "page_start" {
			t.Error("hidden column still in payload")
		}
	}
	if _, code := act(t, ts, id, map[string]any{"op": "show", "column": "page_start"}); code != http.StatusOK {
		t.Errorf("show status = %d", code)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)

	if _, code := act(t, ts, 9999, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusNotFound {
		t.Errorf("missing session status = %d", code)
	}
	if _, code := act(t, ts, id, map[string]any{"op": "zap"}); code != http.StatusBadRequest {
		t.Errorf("unknown action status = %d", code)
	}
	// Validation failures (schema-checkable before touching the session)
	// are 400 invalid_op; only state-dependent failures are 422.
	if _, code := act(t, ts, id, map[string]any{"op": "open", "table": "Nope"}); code != http.StatusBadRequest {
		t.Errorf("bad table status = %d", code)
	}
	if _, code := act(t, ts, id, map[string]any{"op": "filter", "cond": "(("}); code != http.StatusBadRequest {
		t.Errorf("bad condition status = %d", code)
	}
	// State-dependent failure: filter with no open table is 422.
	if _, code := act(t, ts, id, map[string]any{"op": "filter", "cond": "year > 2000"}); code != http.StatusUnprocessableEntity {
		t.Errorf("filter before open status = %d", code)
	}
	// Malformed body.
	resp, err := http.Post(opsURL(ts, id), "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
	// Non-numeric session id in the path is a client error, not a 404.
	resp2, err := http.Get(ts.URL + "/api/v1/sessions/abc")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", resp2.StatusCode)
	}
	if env.Code != "bad_session_id" || env.Message == "" {
		t.Errorf("error envelope = %+v", env)
	}
}

func TestGetSessionState(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	var st state
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Cursor != -1 || len(st.History) != 0 {
		t.Errorf("fresh session state = %+v", st)
	}
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "ETable") || !strings.Contains(body, "api/v1/sessions") {
		t.Error("index page missing expected content")
	}
	// Unknown paths 404.
	r2, _ := http.Get(ts.URL + "/nope")
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", r2.StatusCode)
	}
}

// newTestServerOpts is newTestServer with explicit options, returning
// the Server too so tests can reach injection points (clock, cache).
func newTestServerOpts(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(tr.Schema, tr.Instance, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestPagination(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})

	get := func(query string) (state, int) {
		t.Helper()
		var st state
		code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d%s", ts.URL, id, query), &st)
		return st, code
	}

	// Unpaged: all 6 rows.
	st, code := get("")
	if code != http.StatusOK || len(st.Rows) != 6 || st.TotalRows != 6 {
		t.Fatalf("unpaged: code=%d rows=%d total=%d", code, len(st.Rows), st.TotalRows)
	}
	full := st

	// Window [2, 4).
	st, code = get("?offset=2&limit=2")
	if code != http.StatusOK || len(st.Rows) != 2 || st.TotalRows != 6 || st.Offset != 2 {
		t.Fatalf("window: code=%d rows=%d total=%d offset=%d", code, len(st.Rows), st.TotalRows, st.Offset)
	}
	if st.Rows[0].Node != full.Rows[2].Node || st.Rows[1].Node != full.Rows[3].Node {
		t.Error("window rows differ from the full table's slice")
	}

	// Limit past the end clips.
	st, _ = get("?offset=4&limit=100")
	if len(st.Rows) != 2 || st.Offset != 4 {
		t.Errorf("clipped window: rows=%d offset=%d", len(st.Rows), st.Offset)
	}

	// Offset past the end: empty window, metadata intact.
	st, code = get("?offset=100&limit=5")
	if code != http.StatusOK || len(st.Rows) != 0 || st.TotalRows != 6 {
		t.Errorf("offset past end: code=%d rows=%d total=%d", code, len(st.Rows), st.TotalRows)
	}

	// Limit 0: metadata only.
	st, code = get("?limit=0")
	if code != http.StatusOK || len(st.Rows) != 0 || st.TotalRows != 6 || len(st.Columns) == 0 {
		t.Errorf("limit 0: code=%d rows=%d total=%d cols=%d", code, len(st.Rows), st.TotalRows, len(st.Columns))
	}

	// Negative values are rejected.
	if _, code = get("?offset=-1"); code != http.StatusBadRequest {
		t.Errorf("negative offset: code=%d", code)
	}
	if _, code = get("?limit=-2"); code != http.StatusBadRequest {
		t.Errorf("negative limit: code=%d", code)
	}
	if _, code = get("?limit=x"); code != http.StatusBadRequest {
		t.Errorf("junk limit: code=%d", code)
	}

	// Pagination of an op's response.
	st, code = actWindow(t, ts, id, "?offset=1&limit=3", map[string]any{"op": "filter", "cond": "year > 2000"})
	if code != http.StatusOK || len(st.Rows) != 3 || st.TotalRows != 6 || st.Offset != 1 {
		t.Errorf("action paging: code=%d rows=%d total=%d offset=%d", code, len(st.Rows), st.TotalRows, st.Offset)
	}
}

func TestDefaultPageSize(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{PageSize: 2})
	id := createSession(t, ts)
	st, _ := act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	if len(st.Rows) != 2 || st.TotalRows != 6 {
		t.Errorf("default page: rows=%d total=%d", len(st.Rows), st.TotalRows)
	}
	// An explicit limit overrides the default.
	var big state
	getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d?limit=100", ts.URL, id), &big)
	if len(big.Rows) != 6 {
		t.Errorf("explicit limit: rows=%d", len(big.Rows))
	}
}

func TestSessionTTLEviction(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{SessionTTL: time.Minute})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	stale := createSession(t, ts)
	clock = clock.Add(2 * time.Minute)
	fresh := createSession(t, ts) // creation runs eviction: stale is gone

	// An evicted (but once-allocated) session is 410 Gone, telling the
	// client to replay its log into a new session rather than fix its URL.
	if _, code := act(t, ts, stale, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusGone {
		t.Errorf("stale session still served: code=%d", code)
	}
	if _, code := act(t, ts, fresh, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Errorf("fresh session evicted: code=%d", code)
	}

	// Touching a session keeps it alive across eviction sweeps.
	clock = clock.Add(50 * time.Second)
	if _, code := act(t, ts, fresh, map[string]any{"op": "filter", "cond": "year > 2000"}); code != http.StatusOK {
		t.Fatalf("touch failed")
	}
	clock = clock.Add(50 * time.Second) // 100s since creation, 50s since touch
	createSession(t, ts)                // sweep
	if _, code := act(t, ts, fresh, map[string]any{"op": "revert", "index": 0}); code != http.StatusOK {
		t.Errorf("recently touched session evicted: code=%d", code)
	}
}

func TestMaxSessionsEviction(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{MaxSessions: 3, SessionTTL: -1})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { clock = clock.Add(time.Second); return clock }

	a := createSession(t, ts)
	b := createSession(t, ts)
	c := createSession(t, ts)
	// Touch a so b becomes LRU, then create a fourth.
	act(t, ts, a, map[string]any{"op": "open", "table": "Papers"})
	d := createSession(t, ts)

	if _, code := act(t, ts, b, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusGone {
		t.Errorf("LRU session b still served: code=%d", code)
	}
	for _, id := range []int64{a, c, d} {
		if _, code := act(t, ts, id, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
			t.Errorf("session %d evicted, want kept: code=%d", id, code)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	act(t, ts, id, map[string]any{"op": "open", "table": "Papers"})
	act(t, ts, id, map[string]any{"op": "sort", "attr": "year"})

	var st struct {
		Sessions    int   `json:"sessions"`
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d", st.Sessions)
	}
	if st.CacheMisses == 0 {
		t.Error("no cache misses recorded after first execution")
	}
}

// TestConcurrentSessionsSharedCache drives ≥8 concurrent sessions with
// overlapping patterns through real HTTP (run with -race): responses
// must be correct per session, and the overlap must be served from the
// shared cross-session cache.
func TestConcurrentSessionsSharedCache(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{})
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var created struct {
				ID int64 `json:"id"`
			}
			if err := postJSONE(ts.URL+"/api/v1/sessions", nil, &created); err != nil {
				errs <- err
				return
			}
			id := created.ID
			// Overlapping workload: everyone opens Papers and applies one
			// of three filters, so signatures collide across sessions.
			conds := []string{"year > 2008", "year > 2010", "year = 2011"}
			wants := []int{5, 4, 3}
			for i := 0; i < 10; i++ {
				var st state
				if err := postJSONE(opsURL(ts, id),
					map[string]any{"op": "open", "table": "Papers"}, &st); err != nil {
					errs <- err
					return
				}
				if st.TotalRows != 6 {
					errs <- fmt.Errorf("worker %d: open rows = %d", w, st.TotalRows)
					return
				}
				c := (w + i) % len(conds)
				if err := postJSONE(opsURL(ts, id),
					map[string]any{"op": "filter", "cond": conds[c]}, &st); err != nil {
					errs <- err
					return
				}
				if st.TotalRows != wants[c] {
					errs <- fmt.Errorf("worker %d: filter %q rows = %d, want %d", w, conds[c], st.TotalRows, wants[c])
					return
				}
				// Paginate the filtered table.
				if err := postJSONE(opsURL(ts, id)+"?offset=1&limit=2",
					map[string]any{"op": "revert", "index": 0}, &st); err != nil {
					errs <- err
					return
				}
				if len(st.Rows) != 2 || st.TotalRows != 6 {
					errs <- fmt.Errorf("worker %d: paged rows=%d total=%d", w, len(st.Rows), st.TotalRows)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// 12 sessions × 10 iterations over 4 distinct signatures: nearly all
	// executions must hit the shared cache.
	hits, misses := srv.Cache().Hits(), srv.Cache().Misses()
	if hits == 0 {
		t.Error("no shared-cache hits under overlapping concurrent load")
	}
	if hits < misses {
		t.Errorf("hits=%d < misses=%d; cross-session reuse is not working", hits, misses)
	}
}

// postJSONE is postJSON without a testing.T, for use inside goroutines.
func postJSONE(url string, body any, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// TestWriteJSONEncodeError proves encode failures are logged and mapped
// to a clean 500 instead of being silently dropped.
func TestWriteJSONEncodeError(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(tr.Schema, tr.Instance)
	var logged []string
	srv.logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)}) // unencodable
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if len(logged) == 0 {
		t.Error("encode error was not logged")
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["code"] != "internal" || out["message"] == "" {
		t.Errorf("error body = %q, %v", rec.Body.String(), err)
	}
}

// TestTTLSweepWithoutCreation: idle sessions must be evicted by lookup
// traffic alone — no new session creation required.
func TestTTLSweepWithoutCreation(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{SessionTTL: time.Minute})
	clock := time.Unix(5000, 0)
	srv.now = func() time.Time { return clock }

	a := createSession(t, ts)
	b := createSession(t, ts)
	clock = clock.Add(2 * time.Minute)

	// A lookup (even of a live-looking id) triggers the sweep; both
	// expired sessions disappear without any create.
	if _, code := act(t, ts, a, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusGone {
		t.Errorf("expired session a: code=%d", code)
	}
	var st struct {
		Sessions int `json:"sessions"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &st)
	if st.Sessions != 0 {
		t.Errorf("sessions after sweep = %d, want 0 (b=%d leaked)", st.Sessions, b)
	}
}

// TestNegativeMaxSessions: a non-positive cap must fall back to the
// default instead of spinning the eviction loop forever.
func TestNegativeMaxSessions(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{MaxSessions: -1})
	done := make(chan int64, 1)
	go func() { done <- createSession(t, ts) }()
	select {
	case id := <-done:
		if _, code := act(t, ts, id, map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
			t.Errorf("open: code=%d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session creation hung with MaxSessions < 0")
	}
}

// TestMaxRowsResultTooLarge: with Options.MaxRows set, an unbounded
// read of a table larger than the cap fails as 413 result_too_large
// (a structured, client-actionable envelope), while paging within the
// cap — the intended access pattern — keeps working.
func TestMaxRowsResultTooLarge(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{MaxRows: 4})
	id := createSession(t, ts)
	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}

	// The Figure 3 corpus has 6 papers; an unpaged read wants all 6 > 4.
	var env struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &env); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("unpaged read: code=%d, want 413", code)
	}
	if env.Code != codeResultTooLarge || !strings.Contains(env.Message, "4") {
		t.Fatalf("envelope = %+v", env)
	}

	// Paging within the cap succeeds, and so does an in-cap limit.
	var st state
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d?offset=0&limit=3", ts.URL, id), &st); code != http.StatusOK {
		t.Fatalf("paged read: code=%d", code)
	}
	if len(st.Rows) != 3 || st.TotalRows != 6 {
		t.Fatalf("paged window: %d rows of %d", len(st.Rows), st.TotalRows)
	}
}

// TestStatsMemoryTelemetry: /api/v1/stats carries the memory block —
// live heap gauges plus the execution cache's estimated resident bytes.
func TestStatsMemoryTelemetry(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	if _, code := actWindow(t, ts, id, "?limit=2", map[string]any{"op": "open", "table": "Papers"}); code != http.StatusOK {
		t.Fatalf("open: code=%d", code)
	}
	var st struct {
		Memory struct {
			HeapAllocBytes     uint64 `json:"heapAllocBytes"`
			HeapInuseBytes     uint64 `json:"heapInuseBytes"`
			CacheResidentBytes int64  `json:"cacheResidentBytes"`
		} `json:"memory"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	}
	if st.Memory.HeapAllocBytes == 0 || st.Memory.HeapInuseBytes == 0 {
		t.Errorf("heap gauges zero: %+v", st.Memory)
	}
	if st.Memory.CacheResidentBytes <= 0 {
		t.Errorf("cacheResidentBytes = %d, want > 0 after a query", st.Memory.CacheResidentBytes)
	}
}
