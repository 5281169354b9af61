package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
)

// v1State mirrors the v1 state payload.
type v1State struct {
	ID      int64  `json:"id"`
	Pattern string `json:"pattern"`
	Columns []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"columns"`
	Rows []struct {
		Node  int64  `json:"node"`
		Label string `json:"label"`
	} `json:"rows"`
	TotalRows  int    `json:"totalRows"`
	Offset     int    `json:"offset"`
	NextCursor string `json:"nextCursor"`
	History    []struct {
		Action string `json:"action"`
	} `json:"history"`
	Cursor int `json:"cursor"`
}

type v1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	OpIndex *int   `json:"op_index"`
}

// doJSON issues a request and decodes the response into out (may be nil).
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestV1CreateWithInitialOps(t *testing.T) {
	ts := newTestServer(t)

	// Bare create.
	var st v1State
	if code := doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &st); code != http.StatusCreated {
		t.Fatalf("bare create = %d", code)
	}
	if st.ID == 0 || st.Cursor != -1 {
		t.Errorf("bare create state = %+v", st)
	}

	// Create + open + filter in one round trip.
	body := map[string]any{"ops": []ops.Op{ops.Open("Papers"), ops.Filter("year > 2010")}}
	if code := doJSON(t, "POST", ts.URL+"/api/v1/sessions", body, &st); code != http.StatusCreated {
		t.Fatalf("create with ops = %d", code)
	}
	if st.TotalRows != 4 || len(st.History) != 2 {
		t.Errorf("state = total %d, history %d", st.TotalRows, len(st.History))
	}

	// Unknown body fields are rejected with 400 and no session leaks.
	var stats struct {
		Sessions int `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, &stats)
	before := stats.Sessions
	var env v1Error
	if code := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		map[string]any{"ops": []ops.Op{ops.Open("Papers")}, "zap": 1}, &env); code != http.StatusBadRequest {
		t.Errorf("unknown field create = %d", code)
	}
	if env.Code != "bad_body" {
		t.Errorf("envelope code = %q", env.Code)
	}
	// A failing initial op also creates nothing.
	if code := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		map[string]any{"ops": []ops.Op{ops.Open("Nope")}}, &env); code != http.StatusBadRequest {
		t.Errorf("bad initial op create = %d", code)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, &stats)
	if stats.Sessions != before {
		t.Errorf("sessions leaked: %d → %d", before, stats.Sessions)
	}
}

func TestV1OpsSingleAndBatch(t *testing.T) {
	ts := newTestServer(t)
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &st)
	opsURL := fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, st.ID)

	// Single op object.
	if code := doJSON(t, "POST", opsURL, ops.Open("Papers"), &st); code != http.StatusOK {
		t.Fatalf("single op = %d", code)
	}
	if st.TotalRows != 6 {
		t.Errorf("open rows = %d", st.TotalRows)
	}

	// Batch pipeline: one response snapshot for the whole batch.
	batch := []ops.Op{ops.Filter("year > 2010"), ops.Pivot("Authors"), ops.SortByCount("Papers", true)}
	if code := doJSON(t, "POST", opsURL, batch, &st); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if !strings.Contains(st.Pattern, "*Authors") || len(st.History) != 4 {
		t.Errorf("batch state: pattern=%q history=%d", st.Pattern, len(st.History))
	}
}

func TestV1BatchAtomicity(t *testing.T) {
	ts := newTestServer(t)
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		map[string]any{"ops": []ops.Op{ops.Open("Papers")}}, &st)
	id := st.ID
	opsURL := fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, id)

	// Op 1 of the batch fails at apply time: 422 with op_index, and the
	// session state is untouched.
	var env v1Error
	code := doJSON(t, "POST", opsURL, []ops.Op{ops.Filter("year > 2010"), ops.Pivot("NoSuch")}, &env)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("failing batch = %d", code)
	}
	if env.Code != "op_failed" || env.OpIndex == nil || *env.OpIndex != 1 {
		t.Errorf("envelope = %+v", env)
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), nil, &st)
	if st.TotalRows != 6 || len(st.History) != 1 {
		t.Errorf("session mutated by failed batch: total=%d history=%d", st.TotalRows, len(st.History))
	}

	// A failing single op also carries its (zero) index, whether sent as
	// a bare object or a one-element array.
	code = doJSON(t, "POST", opsURL, ops.Pivot("NoSuch"), &env)
	if code != http.StatusUnprocessableEntity || env.Code != "op_failed" || env.OpIndex == nil || *env.OpIndex != 0 {
		t.Errorf("single op failure: code=%d env=%+v", code, env)
	}
	code = doJSON(t, "POST", opsURL, []ops.Op{ops.Pivot("NoSuch")}, &env)
	if code != http.StatusUnprocessableEntity || env.OpIndex == nil || *env.OpIndex != 0 {
		t.Errorf("one-element array failure: code=%d env=%+v", code, env)
	}

	// Validation failure anywhere in the batch: 400 before anything runs.
	code = doJSON(t, "POST", opsURL, []ops.Op{ops.Filter("year > 2010"), ops.Filter("((")}, &env)
	if code != http.StatusBadRequest || env.Code != "invalid_op" || env.OpIndex == nil || *env.OpIndex != 1 {
		t.Errorf("validation batch: code=%d env=%+v", code, env)
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), nil, &st)
	if len(st.History) != 1 {
		t.Errorf("history after rejected batch = %d", len(st.History))
	}
}

func TestV1HistoryAndReplay(t *testing.T) {
	ts := newTestServer(t)
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"ops": []ops.Op{
		ops.Open("Papers"), ops.Filter("year > 2010"), ops.Pivot("Authors"),
	}}, &st)
	id := st.ID
	// Leave the cursor mid-history.
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, id), ops.Revert(1), &st)

	var hist struct {
		ID      int64 `json:"id"`
		Entries []struct {
			Action  string `json:"action"`
			Pattern string `json:"pattern"`
			Op      ops.Op `json:"op"`
		} `json:"entries"`
		Ops    []ops.Op `json:"ops"`
		Cursor int      `json:"cursor"`
	}
	if code := doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d/history", ts.URL, id), nil, &hist); code != http.StatusOK {
		t.Fatalf("history = %d", code)
	}
	if len(hist.Ops) != 3 || hist.Cursor != 1 {
		t.Fatalf("history = %d ops, cursor %d", len(hist.Ops), hist.Cursor)
	}
	if hist.Entries[2].Op.Op != ops.KindPivot || hist.Entries[2].Pattern == "" {
		t.Errorf("entry 2 = %+v", hist.Entries[2])
	}

	// Replay the log into a brand-new session: identical state.
	var fresh v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &fresh)
	var replayed v1State
	code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/replay", ts.URL, fresh.ID),
		map[string]any{"ops": hist.Ops, "cursor": hist.Cursor}, &replayed)
	if code != http.StatusOK {
		t.Fatalf("replay = %d", code)
	}
	var orig v1State
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), nil, &orig)
	// Ignore the id fields; everything else must match.
	replayed.ID, orig.ID = 0, 0
	rj, _ := json.Marshal(replayed)
	oj, _ := json.Marshal(orig)
	if !bytes.Equal(rj, oj) {
		t.Errorf("replayed state differs:\n%s\n%s", oj, rj)
	}

	// Bad replay bodies.
	var env v1Error
	if code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/replay", ts.URL, fresh.ID),
		map[string]any{"ops": hist.Ops, "cursor": hist.Cursor, "zap": true}, &env); code != http.StatusBadRequest {
		t.Errorf("unknown replay field = %d", code)
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/replay", ts.URL, fresh.ID),
		map[string]any{"ops": hist.Ops, "cursor": 99}, &env); code != http.StatusUnprocessableEntity {
		t.Errorf("bad replay cursor = %d", code)
	}
}

// TestV1EvictionReplayFlow is the session-persistence story end to end:
// a session is evicted (410 Gone), the client creates a new one and
// replays the log it exported earlier, and continues where it left off.
func TestV1EvictionReplayFlow(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{SessionTTL: time.Minute})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"ops": []ops.Op{
		ops.Open("Papers"), ops.Filter("year > 2010"),
	}}, &st)
	oldID := st.ID
	var hist struct {
		Ops    []ops.Op `json:"ops"`
		Cursor int      `json:"cursor"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d/history", ts.URL, oldID), nil, &hist)

	// TTL passes; the old session is gone — with a distinguishable 410.
	clock = clock.Add(2 * time.Minute)
	var env v1Error
	if code := doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, oldID), nil, &env); code != http.StatusGone {
		t.Fatalf("evicted session = %d", code)
	}
	if env.Code != "session_expired" {
		t.Errorf("envelope code = %q", env.Code)
	}
	// Never-allocated ids still 404.
	if code := doJSON(t, "GET", ts.URL+"/api/v1/sessions/999999", nil, &env); code != http.StatusNotFound {
		t.Errorf("unknown session = %d", code)
	}

	// Recover: new session + replay.
	var fresh v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &fresh)
	var restored v1State
	if code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/replay", ts.URL, fresh.ID),
		hist, &restored); code != http.StatusOK {
		t.Fatalf("replay = %d", code)
	}
	if restored.TotalRows != 4 || len(restored.History) != 2 {
		t.Errorf("restored = total %d, history %d", restored.TotalRows, len(restored.History))
	}
}

func TestV1CursorPagination(t *testing.T) {
	ts := newTestServer(t)
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"ops": []ops.Op{ops.Open("Papers")}}, &st)
	id := st.ID
	get := func(query string, out any) int {
		return doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d%s", ts.URL, id, query), nil, out)
	}

	// Walk the whole table through cursors.
	if code := get("?limit=4", &st); code != http.StatusOK {
		t.Fatal(code)
	}
	if len(st.Rows) != 4 || st.NextCursor == "" {
		t.Fatalf("page 1: rows=%d cursor=%q", len(st.Rows), st.NextCursor)
	}
	seen := make(map[int64]bool)
	for _, r := range st.Rows {
		seen[r.Node] = true
	}
	var st2 v1State
	if code := get("?cursor="+st.NextCursor, &st2); code != http.StatusOK {
		t.Fatal(code)
	}
	if len(st2.Rows) != 2 || st2.Offset != 4 || st2.NextCursor != "" {
		t.Errorf("page 2: rows=%d offset=%d cursor=%q", len(st2.Rows), st2.Offset, st2.NextCursor)
	}
	for _, r := range st2.Rows {
		if seen[r.Node] {
			t.Errorf("row %d duplicated across pages", r.Node)
		}
		seen[r.Node] = true
	}
	if len(seen) != 6 {
		t.Errorf("cursor walk saw %d distinct rows", len(seen))
	}

	// offset/limit page the POST /ops response snapshot…
	var st3 v1State
	if code := doJSON(t, "POST",
		fmt.Sprintf("%s/api/v1/sessions/%d/ops?limit=2", ts.URL, id), ops.Revert(0), &st3); code != http.StatusOK {
		t.Fatal(code)
	}
	if len(st3.Rows) != 2 || st3.NextCursor == "" {
		t.Errorf("ops paging: rows=%d cursor=%q", len(st3.Rows), st3.NextCursor)
	}
	// …but a continuation cursor is rejected up front (it is bound to
	// the pre-op state, and the op must not apply before the rejection).
	var envc v1Error
	if code := doJSON(t, "POST",
		fmt.Sprintf("%s/api/v1/sessions/%d/ops?cursor=%s", ts.URL, id, st3.NextCursor),
		ops.Filter("year > 2008"), &envc); code != http.StatusBadRequest || envc.Code != "bad_page" {
		t.Errorf("cursor on ops POST: code=%d env=%+v", code, envc)
	}
	var unchanged v1State
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), nil, &unchanged)
	if len(unchanged.History) != len(st3.History) {
		t.Errorf("rejected cursored op still applied: history %d → %d", len(st3.History), len(unchanged.History))
	}

	// A state-changing op invalidates outstanding cursors: 409.
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, id), ops.Filter("year > 2010"), &v1State{})
	var env v1Error
	if code := get("?cursor="+st.NextCursor, &env); code != http.StatusConflict {
		t.Errorf("stale cursor = %d", code)
	}
	if env.Code != "stale_cursor" {
		t.Errorf("envelope code = %q", env.Code)
	}

	// Garbage cursors are 400, and cursor+offset is rejected.
	if code := get("?cursor=%21%21%21", &env); code != http.StatusBadRequest {
		t.Errorf("garbage cursor = %d", code)
	}
	if code := get("?cursor="+st.NextCursor+"&offset=1", &env); code != http.StatusBadRequest {
		t.Errorf("cursor+offset = %d", code)
	}
}

// TestV1DefaultPageSizeCursor: with a server default page size, even an
// unpaged request gets a NextCursor to continue from.
func TestV1DefaultPageSizeCursor(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{PageSize: 4})
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"ops": []ops.Op{ops.Open("Papers")}}, &st)
	if len(st.Rows) != 4 || st.NextCursor == "" {
		t.Fatalf("default page: rows=%d cursor=%q", len(st.Rows), st.NextCursor)
	}
	var st2 v1State
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d?cursor=%s", ts.URL, st.ID, st.NextCursor), nil, &st2)
	if len(st2.Rows) != 2 || st2.NextCursor != "" {
		t.Errorf("page 2: rows=%d cursor=%q", len(st2.Rows), st2.NextCursor)
	}
}

// TestV1DeprecatedAliases: the deprecated unversioned /api/* aliases
// are gone — none of them is routed any more — and /api/v1 answers
// without a Deprecation header.
func TestV1DeprecatedAliases(t *testing.T) {
	ts := newTestServer(t)
	for _, r := range []struct{ method, path string }{
		{"GET", "/api/schema"}, {"GET", "/api/stats"}, {"POST", "/api/session"},
		{"GET", "/api/session/1"}, {"POST", "/api/session/1/action"},
	} {
		if code := doJSON(t, r.method, ts.URL+r.path, nil, nil); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want it unrouted (404/405)", r.method, r.path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Deprecation") != "" {
		t.Errorf("v1 schema: code=%d deprecation=%q", resp.StatusCode, resp.Header.Get("Deprecation"))
	}
}

// TestV1SingleOpsEqualBatch: the same exploration applied one op per
// request and as one batch pipeline produces identical table state —
// both are thin shells over the same op protocol.
func TestV1SingleOpsEqualBatch(t *testing.T) {
	ts := newTestServer(t)

	var single, batch v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &single)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &batch)

	v1ops := []ops.Op{
		ops.Open("Papers"), ops.Filter("year > 2010"), ops.Pivot("Authors"),
		ops.SortByCount("Papers", true), ops.Hide("name"),
	}
	for _, op := range v1ops {
		if code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, single.ID), op, &single); code != http.StatusOK {
			t.Fatalf("single %v = %d", op, code)
		}
	}
	var st v1State
	if code := doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, batch.ID), v1ops, &st); code != http.StatusOK {
		t.Fatalf("v1 batch = %d", code)
	}
	single.ID, st.ID = 0, 0
	sj, _ := json.Marshal(single)
	bj, _ := json.Marshal(st)
	if !bytes.Equal(sj, bj) {
		t.Errorf("single-op and batch states differ:\n%s\n%s", sj, bj)
	}
}

// TestV1OpsBadBodies: malformed op bodies are 400 with invalid_op.
func TestV1OpsBadBodies(t *testing.T) {
	ts := newTestServer(t)
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, &st)
	opsURL := fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, st.ID)

	for _, body := range []string{``, `{}`, `[]`, `{not json`, `{"op":"open","table":"Papers","zap":1}`, `[{"op":"open","table":"Papers"}] extra`} {
		resp, err := http.Post(opsURL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env v1Error
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q = %d", body, resp.StatusCode)
		}
	}
}

// The offset/limit window math the cursors build on now lives in
// etable.Presentation (the windowed transform); its clamping rules are
// pinned by TestPresentationWindowEdgeCases in internal/etable and by
// the HTTP paging edge-case tests in server_test.go.
