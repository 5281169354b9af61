package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestParallelismQueryParam: ?parallelism= is not read. A session
// create, an ops POST and a GET read that carry a malformed value
// answer with the status and the bytes of the same request without it
// — a session's budget is the one the server built it with. (The
// parameter used to set a per-request budget, and a malformed value was
// 400 bad_parallelism.)
func TestParallelismQueryParam(t *testing.T) {
	// Two fresh servers take the same requests, one with the parameter;
	// both number their first session 1, so the responses compare byte
	// for byte.
	plain, withParam := newTestServer(t), newTestServer(t)
	open := map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}
	for _, step := range []struct {
		method, path string
		body         any
		status       int
	}{
		{"POST", "/api/v1/sessions", open, http.StatusCreated},
		{"POST", "/api/v1/sessions/1/ops", map[string]any{"op": "filter", "cond": "year > 2000"}, http.StatusOK},
		{"GET", "/api/v1/sessions/1", nil, http.StatusOK},
		{"GET", "/api/v1/sessions/1?offset=1&limit=2", nil, http.StatusOK},
	} {
		sep := "?"
		if strings.Contains(step.path, "?") {
			sep = "&"
		}
		wantCode, want := rawRequest(t, step.method, plain.URL+step.path, step.body)
		code, got := rawRequest(t, step.method, withParam.URL+step.path+sep+"parallelism=nope", step.body)
		if wantCode != step.status || code != step.status {
			t.Fatalf("%s %s: status %d with ?parallelism=nope, %d without; want %d\n%s",
				step.method, step.path, code, wantCode, step.status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %s: ?parallelism=nope changed the response\ngot:  %s\nwant: %s", step.method, step.path, got, want)
		}
	}
}

// rawRequest sends one request and returns its status and body bytes.
func rawRequest(t *testing.T, method, url string, body any) (int, []byte) {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestCreateSessionParallelismValidation pins the create path to the
// same ?parallelism= contract as every other endpoint: the parameter is
// not read, so a malformed or a well-formed value creates the session a
// plain create would, with the same rows. (A malformed value used to be
// 400 bad_parallelism with no session created.)
func TestCreateSessionParallelismValidation(t *testing.T) {
	ts := newTestServer(t)
	open := map[string]any{"ops": []map[string]any{{"op": "open", "table": "Papers"}}}
	var plain struct {
		TotalRows int `json:"totalRows"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/sessions", open, &plain); code != http.StatusCreated || plain.TotalRows == 0 {
		t.Fatalf("plain create: status %d rows %d", code, plain.TotalRows)
	}
	for _, v := range []string{"nope", "0", "-3", "2"} {
		var created struct {
			ID        int64 `json:"id"`
			TotalRows int   `json:"totalRows"`
		}
		code := postJSON(t, ts.URL+"/api/v1/sessions?parallelism="+v, open, &created)
		if code != http.StatusCreated || created.ID == 0 || created.TotalRows != plain.TotalRows {
			t.Fatalf("create with parallelism=%s: status %d id %d rows %d, want %d %d rows",
				v, code, created.ID, created.TotalRows, http.StatusCreated, plain.TotalRows)
		}
		var st struct {
			TotalRows int `json:"totalRows"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, created.ID), &st); code != http.StatusOK || st.TotalRows != plain.TotalRows {
			t.Fatalf("session created with parallelism=%s: GET status %d rows %d", v, code, st.TotalRows)
		}
	}
}
