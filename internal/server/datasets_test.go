package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/snapshot"
	"repro/internal/testdb"
	"repro/internal/translate"
)

// snapshotFile translates a generated corpus and saves it to a temp
// .etsnap file.
func snapshotFile(t testing.TB, papers int, seed int64) string {
	t.Helper()
	db, err := dataset.Generate(dataset.Config{Papers: papers, Authors: papers / 2, Institutions: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("ds%d.etsnap", seed))
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		t.Fatal(err)
	}
	return path
}

// newMultiServer serves one eager default ("figure3") plus one lazy
// snapshot-backed dataset ("papers").
func newMultiServer(t testing.TB) (*httptest.Server, *Server) {
	t.Helper()
	return newMultiServerOpts(t, Options{})
}

// newMultiServerOpts is newMultiServer with the server's options.
func newMultiServerOpts(t testing.TB, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	if _, err := reg.AddGraph("figure3", tr.Schema, tr.Instance); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddSnapshot("papers", snapshotFile(t, 60, 21), 0); err != nil {
		t.Fatal(err)
	}
	srv := NewFromRegistry(reg, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestDatasetListAndInspect(t *testing.T) {
	ts, _ := newMultiServer(t)

	var list struct {
		Datasets []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
			Loaded  bool   `json:"loaded"`
			Source  string `json:"source"`
		} `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/datasets", &list); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if len(list.Datasets) != 2 {
		t.Fatalf("listed %d datasets, want 2", len(list.Datasets))
	}
	if d := list.Datasets[0]; d.Name != "figure3" || !d.Default || !d.Loaded || d.Source != "memory" {
		t.Fatalf("figure3 entry = %+v", d)
	}
	// Listing must not load the lazy dataset.
	if d := list.Datasets[1]; d.Name != "papers" || d.Default || d.Loaded || d.Source != "snapshot" {
		t.Fatalf("papers entry = %+v", d)
	}

	var one struct {
		Name   string `json:"name"`
		Loaded bool   `json:"loaded"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/datasets/papers", &one); code != http.StatusOK || one.Name != "papers" {
		t.Fatalf("inspect = %d %+v", code, one)
	}

	var env struct {
		Code string `json:"code"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/datasets/nope", &env); code != http.StatusNotFound || env.Code != "dataset_not_found" {
		t.Fatalf("unknown dataset = %d %q", code, env.Code)
	}
}

// TestDatasetLazyLoadOnFirstRequest: the snapshot dataset stays on disk
// until a session (or schema) request names it, then loads and serves.
func TestDatasetLazyLoadOnFirstRequest(t *testing.T) {
	ts, srv := newMultiServer(t)
	ds, _ := srv.Registry().Get("papers")
	if ds.Loaded() {
		t.Fatal("lazy dataset loaded before any request")
	}

	var created struct {
		ID   int64 `json:"id"`
		Rows []struct {
			Label string `json:"label"`
		} `json:"rows"`
		TotalRows int `json:"totalRows"`
	}
	code := postJSON(t, ts.URL+"/api/v1/datasets/papers/sessions",
		map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}, &created)
	if code != http.StatusCreated {
		t.Fatalf("scoped create status = %d", code)
	}
	if !ds.Loaded() {
		t.Fatal("first scoped request did not load the dataset")
	}
	if created.TotalRows != 60 {
		t.Fatalf("loaded dataset served %d papers, want 60", created.TotalRows)
	}
	if bytes, dur := ds.LoadMetrics(); bytes <= 0 || dur <= 0 {
		t.Fatalf("load metrics (%d, %v) not recorded", bytes, dur)
	}

	// Scoped schema reflects the loaded graph.
	var schema struct {
		NodeTypes []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"nodeTypes"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/datasets/papers/schema", &schema); code != http.StatusOK {
		t.Fatalf("scoped schema status = %d", code)
	}
	found := false
	for _, nt := range schema.NodeTypes {
		if nt.Name == "Papers" {
			found = nt.Count == 60
		}
	}
	if !found {
		t.Fatalf("scoped schema lacks Papers count 60: %+v", schema.NodeTypes)
	}
}

// TestSessionDatasetBinding: a session lives in exactly one dataset's
// namespace — reaching it through another dataset's URL (or the wrong
// name entirely) is a 404, while the unscoped route still finds
// any session by id.
func TestSessionDatasetBinding(t *testing.T) {
	ts, _ := newMultiServer(t)

	var created struct {
		ID int64 `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/datasets/papers/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	id := created.ID

	// Correct scope works.
	var st struct {
		ID int64 `json:"id"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/datasets/papers/sessions/%d", ts.URL, id), &st); code != http.StatusOK {
		t.Fatalf("scoped get status = %d", code)
	}
	// Wrong dataset: 404 session_not_found (the session exists, but not
	// there).
	var env struct {
		Code string `json:"code"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/datasets/figure3/sessions/%d", ts.URL, id), &env); code != http.StatusNotFound || env.Code != "session_not_found" {
		t.Fatalf("cross-dataset get = %d %q", code, env.Code)
	}
	// Unknown dataset outranks the session id: dataset_not_found.
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/datasets/zzz/sessions/%d", ts.URL, id), &env); code != http.StatusNotFound || env.Code != "dataset_not_found" {
		t.Fatalf("unknown-dataset get = %d %q", code, env.Code)
	}
	// The unscoped route resolves any session regardless of its
	// dataset.
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &st); code != http.StatusOK || st.ID != id {
		t.Fatalf("unscoped get = %d %+v", code, st)
	}
}

// TestWrongDatasetProbeKeepsTTL: a request that reaches a session
// through another dataset's URL is a 404 and does not renew the
// session, which expires a TTL after the last request it served.
func TestWrongDatasetProbeKeepsTTL(t *testing.T) {
	ttl := time.Minute
	ts, srv := newMultiServerOpts(t, Options{SessionTTL: ttl})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	var created struct {
		ID int64 `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/datasets/papers/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	url := fmt.Sprintf("%s/api/v1/datasets/%%s/sessions/%d", ts.URL, created.ID)
	var body map[string]any
	clock = clock.Add(ttl * 9 / 10)
	if code := getJSON(t, fmt.Sprintf(url, "figure3"), &body); code != http.StatusNotFound {
		t.Fatalf("wrong-dataset probe = %d, want 404", code)
	}
	clock = clock.Add(ttl * 6 / 10) // 1.5 TTL after creation, 0.6 after the probe
	if code := getJSON(t, fmt.Sprintf(url, "papers"), &body); code != http.StatusGone {
		t.Errorf("request 1.5 TTL after the last one served = %d, want 410: the probe renewed the session", code)
	}
}

// TestDatasetCacheIsolation: traffic on one dataset must not touch the
// other's execution cache or planner telemetry, visible through the
// /api/v1/stats datasets block.
func TestDatasetCacheIsolation(t *testing.T) {
	ts, srv := newMultiServer(t)

	// Query only the "papers" dataset — twice, so its cache records a
	// miss then a hit.
	for i := 0; i < 2; i++ {
		code := postJSON(t, ts.URL+"/api/v1/datasets/papers/sessions",
			map[string]any{"ops": []map[string]any{
				{"op": "open", "table": "Papers"},
				{"op": "pivot", "column": "Authors"},
			}}, nil)
		if code != http.StatusCreated {
			t.Fatalf("create %d status = %d", i, code)
		}
	}

	var stats struct {
		Datasets []struct {
			Name          string `json:"name"`
			Loaded        bool   `json:"loaded"`
			Sessions      int    `json:"sessions"`
			CacheHits     int64  `json:"cacheHits"`
			CacheMisses   int64  `json:"cacheMisses"`
			SnapshotBytes int64  `json:"snapshotBytes"`
		} `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if len(stats.Datasets) != 2 {
		t.Fatalf("stats lists %d datasets, want 2", len(stats.Datasets))
	}
	var fig, pap int
	for i, d := range stats.Datasets {
		if d.Name == "figure3" {
			fig = i
		}
		if d.Name == "papers" {
			pap = i
		}
	}
	p := stats.Datasets[pap]
	if !p.Loaded || p.Sessions != 2 || p.SnapshotBytes <= 0 {
		t.Fatalf("papers stats = %+v", p)
	}
	if p.CacheMisses == 0 {
		t.Fatalf("papers cache saw no traffic: %+v", p)
	}
	f := stats.Datasets[fig]
	if f.CacheHits != 0 || f.CacheMisses != 0 || f.Sessions != 0 {
		t.Fatalf("figure3 caches polluted by papers traffic: %+v", f)
	}

	// And directly: distinct cache objects.
	a, _ := srv.Registry().Get("figure3")
	b, _ := srv.Registry().Get("papers")
	if a.Cache() == b.Cache() {
		t.Fatal("datasets share an execution cache")
	}
}

// TestDatasetLoadFailure: a broken snapshot is a 503 with a stable
// code, and does not take the rest of the server down.
func TestDatasetLoadFailure(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.etsnap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	if _, err := reg.AddGraph("default", tr.Schema, tr.Instance); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddSnapshot("broken", bad, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFromRegistry(reg, Options{}))
	t.Cleanup(ts.Close)

	var env struct {
		Code string `json:"code"`
	}
	code := postJSON(t, ts.URL+"/api/v1/datasets/broken/sessions", nil, &env)
	if code != http.StatusServiceUnavailable || env.Code != "dataset_load_failed" {
		t.Fatalf("broken dataset create = %d %q", code, env.Code)
	}
	// The healthy default dataset is unaffected.
	resp, err := http.Get(ts.URL + "/api/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default schema after failed load = %d", resp.StatusCode)
	}
	var js json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
}
