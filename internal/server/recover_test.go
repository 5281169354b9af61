package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPanickingApplyFreesSession: a panic inside respondState's locked
// half must not leave the session's entry lock held. The next request
// on the session is answered within a deadline; with the lock leaked
// it would block forever, and the test server's Close behind it.
func TestPanickingApplyFreesSession(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{})
	id := createSession(t, ts)
	e, ok := srv.sessions.Lookup(id)
	if !ok {
		t.Fatalf("session %d not in the table", id)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("apply's panic did not propagate")
			}
		}()
		srv.respondState(context.Background(), httptest.NewRecorder(), http.StatusOK, e, id, page{},
			func() error { panic("apply failed") })
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// Release the leaked lock so the blocked handler, and Close, finish.
		e.mu.Unlock()
		t.Fatalf("GET after a panicking apply: %v (the session stayed locked)", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after a panicking apply: status %d", resp.StatusCode)
	}
}

// TestHandlerPanicIs500: a panicking route is answered 500 internal
// with the error envelope and one log line carrying the stack, and the
// server keeps serving. http.ErrAbortHandler is not swallowed.
func TestHandlerPanicIs500(t *testing.T) {
	srv, ts := newTestServerOpts(t, Options{})
	var mu sync.Mutex
	var logged []string
	srv.logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	srv.mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) { panic("kernel failed") })
	srv.mux.HandleFunc("GET /abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })

	var env errorJSON
	if code := getJSON(t, ts.URL+"/panic", &env); code != http.StatusInternalServerError || env.Code != codeInternal {
		t.Fatalf("panicking route: status %d code %q, want 500 %q", code, env.Code, codeInternal)
	}
	mu.Lock()
	if len(logged) != 1 || !strings.Contains(logged[0], "kernel failed") || !strings.Contains(logged[0], "goroutine") {
		t.Errorf("log lines = %q, want one with the panic value and its stack", logged)
	}
	mu.Unlock()

	id := createSession(t, ts)
	var st json.RawMessage
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, id), &st); code != http.StatusOK {
		t.Fatalf("request after a panic: status %d", code)
	}

	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Errorf("ErrAbortHandler: recovered %v, want it re-panicked", v)
			}
		}()
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
}
