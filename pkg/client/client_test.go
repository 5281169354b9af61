package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/testdb"
)

func newServer(t testing.TB, opts server.Options) *httptest.Server {
	t.Helper()
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWithOptions(tr.Schema, tr.Instance, opts))
	t.Cleanup(ts.Close)
	return ts
}

// TestFigure1Pipeline is the acceptance integration test: the SDK drives
// a full Figure-1-style open → filter → pivot exploration through one
// /api/v1 batch op request.
func TestFigure1Pipeline(t *testing.T) {
	ts := newServer(t, server.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	sess, st, err := c.NewSession(ctx, Open("Papers"))
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRows != 6 || sess.ID() == 0 {
		t.Fatalf("create state: total=%d id=%d", st.TotalRows, sess.ID())
	}

	// The Figure 1 exploration as one atomic batch.
	st, err = sess.Do(ctx,
		Filter("year > 2010"),
		Pivot("Authors"),
		SortByCount("Papers", true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Pattern, "*Authors") {
		t.Errorf("pattern = %q", st.Pattern)
	}
	if len(st.History) != 4 || st.Cursor != 3 {
		t.Errorf("history = %d entries, cursor %d", len(st.History), st.Cursor)
	}
	if len(st.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Most prolific post-2010 author leads after the count sort.
	top := st.Rows[0]
	var papersCol = -1
	for i, col := range st.Columns {
		if col.Name == "Papers" {
			papersCol = i
		}
	}
	if papersCol < 0 {
		t.Fatalf("no Papers column in %+v", st.Columns)
	}
	if top.Cells[papersCol].Count == 0 {
		t.Errorf("top author has no papers: %+v", top)
	}

	// A failing batch reports the op index and changes nothing.
	_, err = sess.Do(ctx, Revert(0), Pivot("NoSuchColumn"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "op_failed" || ae.OpIndex != 1 {
		t.Fatalf("batch error = %v", err)
	}
	after, err := sess.State(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cursor != 3 || len(after.History) != 4 {
		t.Errorf("failed batch mutated session: %+v", after)
	}
}

func TestHistoryExportReplay(t *testing.T) {
	ts := newServer(t, server.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, Open("Papers"), Filter("year > 2010"), Pivot("Authors"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(ctx, Revert(1)); err != nil {
		t.Fatal(err)
	}
	h, err := sess.History(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Ops) != 3 || h.Cursor != 1 {
		t.Fatalf("history = %d ops, cursor %d", len(h.Ops), h.Cursor)
	}

	// New session, replay, compare snapshots.
	sess2, _, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sess2.Replay(ctx, h.Log())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sess.State(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	replayed.ID, orig.ID = 0, 0
	rj, _ := json.Marshal(replayed)
	oj, _ := json.Marshal(orig)
	if string(rj) != string(oj) {
		t.Errorf("replayed differs:\n%s\n%s", oj, rj)
	}
}

func TestRowIterator(t *testing.T) {
	ts := newServer(t, server.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, Open("Papers"))
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	it := sess.Rows(ctx, 2) // 6 rows → 3 pages
	for it.Next() {
		labels = append(labels, it.Row().Label)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(labels) != 6 || it.TotalRows() != 6 {
		t.Errorf("iterated %d rows (total %d)", len(labels), it.TotalRows())
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Errorf("duplicate row %q", l)
		}
		seen[l] = true
	}

	// Explicit-window State still works alongside.
	st, err := sess.State(ctx, Window(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 2 || st.Offset != 4 {
		t.Errorf("window: rows=%d offset=%d", len(st.Rows), st.Offset)
	}
}

// TestSortedPagedRoundTrip reads a sorted table page by page through
// the SDK — every response decoded from the server's hand-written state
// encoder — and checks the pages concatenate to exactly the unpaged
// sorted table: same rows, same cells, same order, counts descending
// with ties in the table's unsorted order.
func TestSortedPagedRoundTrip(t *testing.T) {
	ts := newServer(t, server.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	sess, unsorted, err := c.NewSession(ctx, Open("Papers"))
	if err != nil {
		t.Fatal(err)
	}
	rank := map[int64]int{} // node → position before the sort
	for i, r := range unsorted.Rows {
		rank[r.Node] = i
	}
	full, err := sess.DoPaged(ctx, Limit(100), SortByCount("Authors", true))
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, cl := range full.Columns {
		if cl.Name == "Authors" {
			col = i
		}
	}
	if col < 0 || len(full.Rows) != 6 || full.NextCursor != "" {
		t.Fatalf("sorted table: %d rows, columns %+v, cursor %q", len(full.Rows), full.Columns, full.NextCursor)
	}
	for i := 1; i < len(full.Rows); i++ {
		a, b := full.Rows[i-1], full.Rows[i]
		if a.Cells[col].Count < b.Cells[col].Count ||
			(a.Cells[col].Count == b.Cells[col].Count && rank[a.Node] > rank[b.Node]) {
			t.Errorf("rows %d,%d out of order: %d authors (was #%d) before %d authors (was #%d)",
				i-1, i, a.Cells[col].Count, rank[a.Node], b.Cells[col].Count, rank[b.Node])
		}
	}

	var paged []Row
	it := sess.Rows(ctx, 4) // 6 rows → a full page and a short one
	for it.Next() {
		paged = append(paged, it.Row())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if !reflect.DeepEqual(paged, full.Rows) {
		t.Errorf("pages do not concatenate to the sorted table:\npaged %+v\nfull  %+v", paged, full.Rows)
	}
}

// TestRetryBackoff: transient 5xx responses are retried with backoff;
// 4xx responses are not.
func TestRetryBackoff(t *testing.T) {
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"sessions":1,"cacheEntries":0,"cacheHits":0,"cacheMisses":0}`))
	}))
	defer backend.Close()

	c := New(backend.URL, WithRetries(3, time.Millisecond))
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || calls.Load() != 3 {
		t.Errorf("stats=%+v calls=%d", st, calls.Load())
	}

	// Exhausted retries surface the last error.
	calls.Store(-100)
	c2 := New(backend.URL, WithRetries(1, time.Millisecond))
	if _, err := c2.Stats(context.Background()); err == nil {
		t.Error("exhausted retries did not error")
	}

	// 4xx: exactly one call, typed error.
	var calls4 atomic.Int32
	backend4 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls4.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"code":"session_expired","message":"gone"}`))
	}))
	defer backend4.Close()
	c3 := New(backend4.URL, WithRetries(5, time.Millisecond))
	_, err = c3.Session(7).State(context.Background(), Page{})
	var ae *APIError
	if !errors.As(err, &ae) || !ae.IsGone() || ae.Code != "session_expired" {
		t.Fatalf("err = %v", err)
	}
	if calls4.Load() != 1 {
		t.Errorf("4xx retried: %d calls", calls4.Load())
	}
}

// TestSessionGoneRecovery: the IsGone signal drives the export/replay
// recovery loop against a real server with aggressive TTL eviction.
func TestSessionGoneRecovery(t *testing.T) {
	ts := newServer(t, server.Options{MaxSessions: 1, SessionTTL: -1})
	c := New(ts.URL)
	ctx := context.Background()

	sess, _, err := c.NewSession(ctx, Open("Papers"), Filter("year > 2010"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.History(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A second session evicts the first (MaxSessions: 1).
	if _, _, err := c.NewSession(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = sess.State(ctx, Page{})
	var ae *APIError
	if !errors.As(err, &ae) || !ae.IsGone() {
		t.Fatalf("evicted state err = %v", err)
	}
	// Recover.
	sess2, _, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess2.Replay(ctx, h.Log())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRows != 4 {
		t.Errorf("recovered total = %d", st.TotalRows)
	}
}

// TestOpWireFormat pins the SDK's wire encoding to the protocol's: the
// JSON of every builder op must decode as a valid internal/ops op.
func TestOpWireFormat(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{
		Open("Papers"),
		Filter("year > 2010"),
		FilterByNeighbor("Authors", "name = 'X'"),
		Pivot("Authors"),
		Single(3),
		Seeall(3, "Authors"),
		SortByAttr("year", true),
		SortByCount("Papers", false),
		Hide("year"),
		Show("year"),
		Revert(0),
	} {
		enc, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ops.Decode(enc)
		if err != nil {
			t.Errorf("%s: protocol rejects SDK encoding: %v", enc, err)
			continue
		}
		if err := decoded.Validate(tr.Schema); err != nil {
			t.Errorf("%s: protocol validation: %v", enc, err)
		}
	}
}
