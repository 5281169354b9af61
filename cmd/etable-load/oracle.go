package main

// The oracle: every generated request is first executed against an
// in-process, eager server over the same snapshot. That pass resolves
// the data-dependent operands (so the HTTP run is pure replay) and
// records what each response must contain; the HTTP run checks every
// response against it after the clock has stopped. Because the oracle
// is always the eager in-memory tier, outofcore_mix gets tier
// equivalence checked for free.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// Serving options every workload pins. -max-sessions 16: with the
// server's default of 1024 and one session per few scripts, pinned
// relations took the server's peak RSS to 5 GB on the 38k corpus.
const (
	srvCacheEntries = 1024
	srvMaxSessions  = 16
)

// newEagerServer hosts the serving core in-process over a loaded
// snapshot, configured like the in-memory workloads' child server.
func newEagerServer(snap *snapshot.Snapshot) (*server.Server, error) {
	reg := registry.New(registry.Options{CacheEntries: srvCacheEntries})
	if _, err := reg.AddGraph("default", snap.Schema, snap.Graph); err != nil {
		return nil, err
	}
	return server.NewFromRegistry(reg, server.Options{
		CacheEntries: srvCacheEntries,
		MaxSessions:  srvMaxSessions,
		PageSize:     studyPageSize,
	}), nil
}

// expect is what the oracle recorded for one request.
type expect struct {
	totalRows int
	rows      int
	digest    uint64
}

func (v *stateView) expect() expect {
	return expect{totalRows: v.TotalRows, rows: v.Rows, digest: v.Digest}
}

// decodeResponse parses a 2xx body; any other status is an error that
// quotes the server's envelope.
func decodeResponse(status int, body []byte) (*stateView, error) {
	if status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body[:min(len(body), 300)])))
	}
	v, err := scanState(body)
	if err != nil {
		return nil, fmt.Errorf("undecodable %d response: %w", status, err)
	}
	return v, nil
}

// verify checks one response against the oracle's expectation.
func verify(r *request, status int, body []byte) (*stateView, error) {
	v, err := decodeResponse(status, body)
	if err != nil {
		return nil, err
	}
	if got := v.expect(); got != *r.want {
		return v, fmt.Errorf("oracle mismatch: got totalRows=%d rows=%d digest=%016x, want totalRows=%d rows=%d digest=%016x",
			got.totalRows, got.rows, got.digest, r.want.totalRows, r.want.rows, r.want.digest)
	}
	return v, nil
}

// resolve substitutes a request's Dyn operand from the client's
// previous response, or (a replay body) its last history export.
func resolve(r *request, prev, hist *stateView) error {
	switch r.Dyn {
	case "":
	case dynNode:
		if prev.Rows == 0 {
			return fmt.Errorf("%s %s: previous response has no row to click", r.Kind, r.Body)
		}
		r.Body = strings.Replace(r.Body, "{node}", strconv.FormatInt(prev.FirstNode, 10), 1)
	case dynCursor:
		if prev.NextCursor == "" {
			return fmt.Errorf("%s %s: previous response has no nextCursor", r.Kind, r.Path)
		}
		r.Path = strings.Replace(r.Path, "{cursor}", prev.NextCursor, 1)
	case dynLog:
		if hist == nil {
			return fmt.Errorf("%s: no history was exported before it", r.Kind)
		}
		r.Body = fmt.Sprintf(`{"ops":%s,"cursor":%d}`, hist.Ops, hist.Cursor)
	default:
		return fmt.Errorf("unknown dyn operand %q", r.Dyn)
	}
	r.Dyn = ""
	return nil
}

// withSession fills the live session id into a request path.
func withSession(path string, sid int64) string {
	return strings.Replace(path, sidPlaceholder, strconv.FormatInt(sid, 10), 1)
}

// oraclePass executes every client's list against h, resolving Dyn
// operands in place and recording each request's expectation. Clients
// run concurrently — their sessions are independent and results do not
// depend on cache state. A request the oracle cannot serve is an error:
// workloads are chosen so that no operation fails.
func oraclePass(h http.Handler, lists [][]request) error {
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = oracleClient(h, lists[c])
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle, client %d: %w", c, err)
		}
	}
	return nil
}

func oracleClient(h http.Handler, reqs []request) error {
	var sid int64
	prev := &stateView{}
	var hist *stateView
	for i := range reqs {
		r := &reqs[i]
		if err := resolve(r, prev, hist); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.Method, withSession(r.Path, sid), strings.NewReader(r.Body)))
		v, err := decodeResponse(rec.Code, rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("request %d (%s %s %s): %w", i, r.Method, r.Path, r.Body, err)
		}
		want := v.expect()
		r.want = &want
		switch r.Kind {
		case "create":
			sid = v.ID
		case "history":
			hist = v
		}
		prev = v
	}
	return nil
}
