package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/testdb"
)

// TestParallelismQueryParam exercises the per-request budget override:
// valid values work on GET and op POSTs, malformed ones are rejected
// with bad_parallelism before any op applies.
func TestParallelismQueryParam(t *testing.T) {
	ts := newTestServer(t)
	id := createSession(t, ts)
	base := fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id)

	var st struct {
		TotalRows int `json:"totalRows"`
	}
	if code := postJSON(t, base+"/ops?parallelism=4", map[string]any{"op": "open", "table": "Papers"}, &st); code != http.StatusOK {
		t.Fatalf("open with parallelism: status %d", code)
	}
	if st.TotalRows == 0 {
		t.Fatal("no rows")
	}
	if code := getJSON(t, base+"?parallelism=2", &st); code != http.StatusOK {
		t.Fatalf("get with parallelism: status %d", code)
	}
	for _, bad := range []string{"0", "-3", "x", "1.5"} {
		var e struct {
			Code string `json:"code"`
		}
		code := getJSON(t, base+"?parallelism="+bad, &e)
		if code != http.StatusBadRequest || e.Code != "bad_parallelism" {
			t.Errorf("parallelism=%q: status %d code %q", bad, code, e.Code)
		}
		// On an op POST the bad budget must reject before applying.
		code = postJSON(t, base+"/ops?parallelism="+bad, map[string]any{"op": "filter", "cond": "year > 2000"}, &e)
		if code != http.StatusBadRequest || e.Code != "bad_parallelism" {
			t.Errorf("op parallelism=%q: status %d code %q", bad, code, e.Code)
		}
	}
	// The rejected filters must not have applied.
	var hist struct {
		Entries []struct {
			Action string `json:"action"`
		} `json:"entries"`
	}
	if code := getJSON(t, base+"/history", &hist); code != http.StatusOK {
		t.Fatalf("history status %d", code)
	}
	if len(hist.Entries) != 1 {
		t.Errorf("history has %d entries, want 1 (bad-parallelism ops applied?)", len(hist.Entries))
	}
}

// TestStatsWorkers asserts /api/v1/stats reports the worker pool and
// the planner's per-edge statistics.
func TestStatsWorkers(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(tr.Schema, tr.Instance, Options{MaxWorkers: 3, Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var st struct {
		Workers struct {
			Cap                int `json:"cap"`
			InFlight           int `json:"inFlight"`
			DefaultParallelism int `json:"defaultParallelism"`
		} `json:"workers"`
		EdgeStats []struct {
			Edge         string  `json:"edge"`
			Count        int     `json:"count"`
			Fanout       float64 `json:"fanout"`
			MaxOutDegree int     `json:"maxOutDegree"`
			P90OutDegree int     `json:"p90OutDegree"`
		} `json:"edgeStats"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Workers.Cap != 3 || st.Workers.DefaultParallelism != 2 {
		t.Errorf("workers = %+v", st.Workers)
	}
	if len(st.EdgeStats) == 0 {
		t.Fatal("no edge statistics")
	}
	for _, es := range st.EdgeStats {
		if es.Count > 0 && es.Fanout <= 0 {
			t.Errorf("edge %q: count %d but fanout %v", es.Edge, es.Count, es.Fanout)
		}
		if es.P90OutDegree > es.MaxOutDegree {
			t.Errorf("edge %q: p90 %d > max %d", es.Edge, es.P90OutDegree, es.MaxOutDegree)
		}
	}
}

// TestSerialServerOption asserts MaxWorkers < 0 disables the pool
// entirely and the server still serves correctly.
func TestSerialServerOption(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(tr.Schema, tr.Instance, Options{MaxWorkers: -1})
	if srv.pool != nil {
		t.Fatal("negative MaxWorkers built a pool")
	}
	if srv.defaultBudget() != 1 {
		t.Errorf("serial server budget = %d", srv.defaultBudget())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	id := createSession(t, ts)
	var st struct {
		TotalRows int `json:"totalRows"`
	}
	url := fmt.Sprintf("%s/api/v1/sessions/%d/ops?parallelism=8", ts.URL, id)
	if code := postJSON(t, url, map[string]any{"op": "open", "table": "Papers"}, &st); code != http.StatusOK {
		t.Fatalf("serial server op status %d", code)
	}
	if st.TotalRows == 0 {
		t.Fatal("no rows from serial server")
	}
	var raw json.RawMessage
	if code := getJSON(t, ts.URL+"/api/v1/stats", &raw); code != http.StatusOK {
		t.Fatalf("stats status %d on serial server", code)
	}
}

// TestCreateSessionParallelismValidation pins the create path to the
// same ?parallelism= contract as every other endpoint: malformed values
// are 400 bad_parallelism and no session is created.
func TestCreateSessionParallelismValidation(t *testing.T) {
	ts := newTestServer(t)
	var e struct {
		Code string `json:"code"`
	}
	code := postJSON(t, ts.URL+"/api/v1/sessions?parallelism=nope",
		map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}, &e)
	if code != http.StatusBadRequest || e.Code != "bad_parallelism" {
		t.Fatalf("create with bad parallelism: status %d code %q", code, e.Code)
	}
	var created struct {
		ID        int64 `json:"id"`
		TotalRows int   `json:"totalRows"`
	}
	code = postJSON(t, ts.URL+"/api/v1/sessions?parallelism=2",
		map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}, &created)
	if code != http.StatusCreated || created.TotalRows == 0 {
		t.Fatalf("create with parallelism=2: status %d rows %d", code, created.TotalRows)
	}
}

// TestStatsPlannerBlock asserts /api/v1/stats carries the plan-cache
// telemetry: at least one miss (the first plan build) and one hit (a
// second session re-running the query with its plan still cached). The
// relation cache sits in front of the plan cache — plan lookups live
// inside the compute closures — so the second session only consults a
// plan because other signatures evicted its relation from a
// one-entry-per-shard cache first.
func TestStatsPlannerBlock(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(tr.Schema, tr.Instance, Options{CacheEntries: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	query := func(cond string) {
		t.Helper()
		id := createSession(t, ts)
		url := fmt.Sprintf("%s/api/v1/sessions/%d/ops", ts.URL, id)
		var out json.RawMessage
		if code := postJSON(t, url, map[string]any{"op": "open", "table": "Papers"}, &out); code != http.StatusOK {
			t.Fatalf("open status %d", code)
		}
		if code := postJSON(t, url, map[string]any{"op": "filter", "cond": cond}, &out); code != http.StatusOK {
			t.Fatalf("filter %q status %d", cond, code)
		}
	}
	query("year > 2000")
	for year := 1900; year < 1964; year++ {
		query(fmt.Sprintf("year > %d", year))
	}
	query("year > 2000")
	var st struct {
		Planner struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"planner"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	p := st.Planner
	if p.Misses == 0 || p.Entries == 0 {
		t.Errorf("no plans were built: %+v", p)
	}
	if p.Hits == 0 {
		t.Errorf("second session did not reuse a cached plan: %+v", p)
	}
}
