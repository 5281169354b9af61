// Package server implements the paper's three-tier architecture (§6.2):
// a web front-end (embedded single-page UI), an application server
// (JSON API over user sessions), and the database backend (the TGDB
// instance graph). Each browser session maps to one session.Session,
// whose four Figure 9 components the API exposes: the default table
// list, the main view (the enriched table), the schema view (the query
// pattern), and the history view.
//
// # Concurrency architecture
//
// The server is built for many simultaneous users over immutable
// TGDBs (the ROADMAP's "heavy traffic" target). Since the persistence
// tier landed it serves many datasets from one process: a
// registry.Registry names each dataset, sessions bind to one dataset at
// creation, and /api/v1/datasets/{name}/... scopes every session route.
// The unscoped /api/v1 routes resolve the registry's default dataset.
//
//   - One etable.Cache per dataset is shared by every session bound to
//     it, so N users executing the same pattern signature compute it
//     once (LRU + singleflight; see internal/etable), while two
//     datasets can never evict each other's entries.
//   - The session table is an lru.Cache whose lock is held only to look
//     up, add or sweep entries; request work runs under a per-session
//     entry lock (which also makes an action and its response snapshot
//     atomic), so requests on different sessions never serialize.
//   - Lock ordering: session table lock → (released) → entry.mu →
//     session.mu → the execution cache's lock. No lock is ever taken in
//     the opposite direction, and the table's lock is never held across
//     query execution.
//   - Sessions are bounded: idle sessions past Options.SessionTTL are
//     evicted, and the table holds at most MaxSessions, dropping the
//     least recently used session beyond it. Evicted sessions are
//     closed after the table's lock is released.
//   - Results are paginated: offset/limit (query parameters on GET,
//     body fields on POST) select the row window that is encoded, so a
//     request on a huge table pays for the window, not the table.
//   - A request's query runs on the request's own goroutine: nothing
//     fans out, so a request uses at most one CPU and the goroutine
//     count is the request count. The request context cancels
//     execution between morsels and semi-join steps when the client
//     disconnects.
//   - A handler that panics fails its request with 500 internal, not
//     the process (ServeHTTP), and leaves its session usable.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/etable"
	"repro/internal/graphrel"
	"repro/internal/lru"
	"repro/internal/ops"
	"repro/internal/registry"
	"repro/internal/session"
	"repro/internal/tgm"
)

// Options tunes the serving core. The zero value picks the defaults.
type Options struct {
	// CacheEntries is the execution cache capacity of the one dataset
	// NewWithOptions builds, passed to its registry (registry.Options
	// applies the default). NewFromRegistry ignores it: the registry it
	// is given has already sized each dataset's cache.
	CacheEntries int
	// SessionTTL evicts sessions idle longer than this (default 30m;
	// negative disables TTL eviction).
	SessionTTL time.Duration
	// MaxSessions bounds the session table; creating a session beyond
	// it evicts the least recently used one (default 1024).
	MaxSessions int
	// PageSize is the default result-row window when a request names no
	// limit (0 = return all rows unless the request pages explicitly).
	PageSize int
	// MaxRows is the widest window one request may read (0 =
	// unbounded): a wider read is rejected up front as 413
	// result_too_large. A match is never refused for its size, and
	// paging within the cap is unaffected — set it above PageSize.
	MaxRows int
}

func (o Options) withDefaults() Options {
	if o.SessionTTL == 0 {
		o.SessionTTL = 30 * time.Minute
	}
	if o.MaxSessions <= 0 {
		// There is no "unbounded" mode.
		o.MaxSessions = 1024
	}
	return o
}

// sessionEntry pairs a session with the dataset it is bound to and its
// last-use time (unix nanos, read by the TTL sweep).
type sessionEntry struct {
	// mu serializes request handling on this session, making each
	// action and its rendered response snapshot atomic — two tabs on
	// one session cannot interleave between an action and the state it
	// returns. Requests on different sessions run in parallel.
	mu   sync.Mutex
	sess *session.Session
	// ds is the dataset the session was created against; every
	// dataset-scoped route on this session must name it (sessions never
	// migrate between datasets).
	ds       *registry.Dataset
	lastUsed atomic.Int64
}

// Server is the HTTP application server.
type Server struct {
	// reg names the served datasets; the "default" one backs the
	// unscoped routes.
	reg  *registry.Registry
	opts Options

	// logf and now are injection points for tests.
	logf func(format string, args ...any)
	now  func() time.Time

	// sessions is the live session table, keyed by id. lastID is the
	// last id allocated, which tells an evicted id (410) from one never
	// issued (404).
	sessions *lru.Cache[int64, *sessionEntry]
	lastID   atomic.Int64

	// lastSweep (unix nanos) rate-limits TTL sweeps triggered by
	// session lookups.
	lastSweep atomic.Int64

	mux *http.ServeMux
}

// New creates a server over a TGDB with default options.
func New(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph) *Server {
	return NewWithOptions(schema, graph, Options{})
}

// NewWithOptions creates a single-dataset server over an in-memory
// TGDB: the graph is wrapped as the eager "default" dataset of a fresh
// registry. The pre-registry boot path, and still the common one.
func NewWithOptions(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph, opts Options) *Server {
	reg := registry.New(registry.Options{CacheEntries: opts.CacheEntries})
	if _, err := reg.AddGraph("default", schema, graph); err != nil {
		// Only nil inputs can fail here; surface them as the programmer
		// error they are rather than serving a broken registry.
		panic(err)
	}
	return NewFromRegistry(reg, opts)
}

// NewFromRegistry creates a server over a dataset registry. The
// registry's default dataset backs the unscoped routes; every
// dataset is reachable under /api/v1/datasets/{name}/. Lazy datasets
// stay on disk until their first request.
func NewFromRegistry(reg *registry.Registry, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		reg:      reg,
		opts:     opts,
		logf:     log.Printf,
		now:      time.Now,
		sessions: lru.New[int64, *sessionEntry](opts.MaxSessions),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	// Versioned API (the canonical surface; see docs/API.md).
	s.mux.HandleFunc("GET /api/v1/schema", s.handleSchema)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /api/v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/ops", s.handleV1Ops)
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/history", s.handleV1History)
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/replay", s.handleV1Replay)
	// Dataset-scoped surface: the same session protocol under an
	// explicit dataset. The handlers are shared — {ds} in the path
	// scopes them; its absence resolves the default dataset.
	s.mux.HandleFunc("GET /api/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /api/v1/datasets/{ds}", s.handleDatasetInfo)
	s.mux.HandleFunc("GET /api/v1/datasets/{ds}/schema", s.handleSchema)
	s.mux.HandleFunc("POST /api/v1/datasets/{ds}/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /api/v1/datasets/{ds}/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("POST /api/v1/datasets/{ds}/sessions/{id}/ops", s.handleV1Ops)
	s.mux.HandleFunc("GET /api/v1/datasets/{ds}/sessions/{id}/history", s.handleV1History)
	s.mux.HandleFunc("POST /api/v1/datasets/{ds}/sessions/{id}/replay", s.handleV1Replay)
	return s
}

// datasetFor resolves the dataset a request addresses — the {ds} path
// segment when present, else the registry default — and makes it
// resident (lazy datasets load here, singleflight, on their first
// request). 404 dataset_not_found for an unknown name; a failed load is
// 503 dataset_load_failed (the next request retries it).
func (s *Server) datasetFor(ctx context.Context, r *http.Request) (*registry.Dataset, error) {
	name := r.PathValue("ds")
	var ds *registry.Dataset
	if name == "" {
		if ds = s.reg.Default(); ds == nil {
			return nil, apiErr(http.StatusNotFound, codeDatasetNotFound, "no datasets registered")
		}
	} else {
		var ok bool
		if ds, ok = s.reg.Get(name); !ok {
			return nil, apiErr(http.StatusNotFound, codeDatasetNotFound, "no dataset %q", name)
		}
	}
	if err := ds.Ensure(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		s.logf("server: loading dataset %q: %v", ds.Name(), err)
		return nil, apiErr(http.StatusServiceUnavailable, codeDatasetLoadFailed,
			"dataset %q failed to load", ds.Name())
	}
	return ds, nil
}

// Cache returns the default dataset's execution cache (for stats and
// tests). Scoped datasets have their own; see Registry().
func (s *Server) Cache() *etable.Cache {
	if ds := s.reg.Default(); ds != nil {
		return ds.Cache()
	}
	return nil
}

// Registry returns the dataset registry the server serves from.
func (s *Server) Registry() *registry.Registry { return s.reg }

// ServeHTTP implements http.Handler. A panic in a handler fails its
// request, not the process: it is answered 500 internal and logged
// with its stack, and every lock a handler takes is released by defer,
// so the session it ran on serves the next request.
// http.ErrAbortHandler is re-panicked: it is net/http's way to abort a
// response.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			s.writeErr(w, apiErr(http.StatusInternalServerError, codeInternal, "internal error"))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// writeJSON encodes v first and commits the status code only once
// encoding has succeeded, so an encode failure can still send a clean
// 500 instead of a half-written 200. Write errors (client gone) are
// logged, not dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		s.logf("server: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		if _, werr := w.Write([]byte(`{"code":"internal","message":"response encoding failed"}`)); werr != nil {
			s.logf("server: writing error response: %v", werr)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf); err != nil {
		s.logf("server: writing response: %v", err)
	}
}

// Error codes of the HTTP layer (ops.CodeInvalidOp and ops.CodeOpFailed
// pass through from the protocol layer).
const (
	codeBadSessionID    = "bad_session_id"    // 400: non-numeric id in the path
	codeSessionNotFound = "session_not_found" // 404: id was never allocated
	codeSessionExpired  = "session_expired"   // 410: id existed but was evicted
	codeBadPage         = "bad_page"          // 400: malformed offset/limit
	codeInvalidCursor   = "invalid_cursor"    // 400: undecodable pagination cursor
	codeStaleCursor     = "stale_cursor"      // 409: cursor from a different table state
	codeBadBody         = "bad_body"          // 400: malformed request body
	codeBodyTooLarge    = "body_too_large"    // 413: body exceeds maxBodyBytes
	codeCanceled        = "request_canceled"  // 499: client went away mid-query
	codeResultTooLarge  = "result_too_large"  // 413: window wider than Options.MaxRows
	codeInternal        = "internal"          // 500

	codeDatasetNotFound   = "dataset_not_found"   // 404: unknown dataset name
	codeDatasetLoadFailed = "dataset_load_failed" // 503: snapshot load failed (retryable)
)

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was ready. The response itself goes
// nowhere; the status exists for access logs and tests.
const statusClientClosedRequest = 499

// apiError is a failure with its HTTP status, stable machine-readable
// code, and (for batch op failures) the index of the offending op.
type apiError struct {
	status  int
	code    string
	message string
	opIndex int // -1 = not a batch failure
	// limit and rows carry the result_too_large payload: the row cap
	// and the observed row count. Zero = absent.
	limit int
	rows  int
}

func (e *apiError) Error() string { return e.message }

// apiErr builds an apiError with no op index.
func apiErr(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...), opIndex: -1}
}

// errorJSON is the structured error envelope every non-2xx response
// carries: a stable machine-readable code, a human-readable message,
// and — when a batch op failed — the index of the offending op.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	OpIndex *int   `json:"op_index,omitempty"`
	// Limit and Rows accompany code result_too_large: the server's row
	// cap and the rows the rejected window would have read. The
	// session's pre-window guard is the only path that rejects; a
	// match is never refused for its size.
	Limit int `json:"limit,omitempty"`
	Rows  int `json:"rows,omitempty"`
}

// writeErr maps an error to its status and structured envelope:
// *apiError passes through; *ops.Error maps invalid_op → 400 and
// op_failed → 422, carrying the op index; a context cancellation
// (client disconnected mid-query) is 499; anything else is a 500.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		var oe *ops.Error
		var rl *graphrel.RowLimitError
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			ae = apiErr(statusClientClosedRequest, codeCanceled, "request canceled: %v", err)
		case errors.As(err, &rl):
			// Checked before the ops mapping: should a row-limit error
			// arrive wrapped in an *ops.Error, the client-actionable
			// signal is the cap, not the op index.
			ae = apiErr(http.StatusRequestEntityTooLarge, codeResultTooLarge,
				"result exceeds the server's %d-row limit; narrow the query or page with limit=", rl.Limit)
			ae.limit, ae.rows = rl.Limit, rl.Rows
		case errors.As(err, &oe):
			status := http.StatusUnprocessableEntity
			if oe.Code == ops.CodeInvalidOp {
				status = http.StatusBadRequest
			}
			ae = &apiError{status: status, code: oe.Code, message: oe.Message, opIndex: oe.OpIndex}
		default:
			ae = apiErr(http.StatusInternalServerError, codeInternal, "%v", err)
		}
	}
	env := errorJSON{Code: ae.code, Message: ae.message, Limit: ae.limit, Rows: ae.rows}
	if ae.opIndex >= 0 {
		idx := ae.opIndex
		env.OpIndex = &idx
	}
	s.writeJSON(w, ae.status, env)
}

// schemaJSON is the /api/v1/schema payload.
type schemaJSON struct {
	NodeTypes []nodeTypeJSON `json:"nodeTypes"`
	EdgeTypes []edgeTypeJSON `json:"edgeTypes"`
}

type nodeTypeJSON struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"`
	Label string   `json:"label"`
	Attrs []string `json:"attrs"`
	Count int      `json:"count"`
}

type edgeTypeJSON struct {
	Name   string `json:"name"`
	Label  string `json:"label"`
	Source string `json:"source"`
	Target string `json:"target"`
	Kind   string `json:"kind"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	ds, err := s.datasetFor(r.Context(), r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	schema, graph := ds.Schema(), ds.Graph()
	out := schemaJSON{}
	for _, nt := range schema.NodeTypes() {
		attrs := make([]string, len(nt.Attrs))
		for i, a := range nt.Attrs {
			attrs[i] = a.Name
		}
		out.NodeTypes = append(out.NodeTypes, nodeTypeJSON{
			Name: nt.Name, Kind: nt.Kind.String(), Label: nt.Label, Attrs: attrs,
			Count: len(graph.NodesOfType(nt.Name)),
		})
	}
	for _, et := range schema.EdgeTypes() {
		out.EdgeTypes = append(out.EdgeTypes, edgeTypeJSON{
			Name: et.Name, Label: et.Label, Source: et.Source, Target: et.Target,
			Kind: et.Kind.String(),
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// statsJSON is the /api/v1/stats payload: serving-core health
// counters.
type statsJSON struct {
	Sessions     int        `json:"sessions"`
	CacheEntries int        `json:"cacheEntries"`
	CacheHits    int64      `json:"cacheHits"`
	CacheMisses  int64      `json:"cacheMisses"`
	Memory       memoryJSON `json:"memory"`
	// Datasets reports every registered dataset, loaded or not. The
	// top-level cache fields describe the default dataset (the
	// pre-registry shape, kept for compatibility).
	Datasets []datasetStatsJSON `json:"datasets"`
}

// datasetStatsJSON is one dataset's entry in the /api/v1/stats
// "datasets" block: residency, snapshot load cost, and the dataset's
// own cache telemetry — per dataset because caches are.
type datasetStatsJSON struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	// Loaded is false for a lazy dataset no request has touched yet;
	// everything below it is zero until the first load.
	Loaded bool `json:"loaded"`
	// SnapshotBytes and LoadMs record the boot-from-disk cost (zero for
	// datasets born in memory).
	SnapshotBytes int64   `json:"snapshotBytes,omitempty"`
	LoadMs        float64 `json:"loadMs,omitempty"`
	Sessions      int     `json:"sessions"`
	Nodes         int     `json:"nodes,omitempty"`
	Edges         int     `json:"edges,omitempty"`
	// LabelFragmentBytes is the resident size of the dataset's label
	// fragment tables (frags.go): built on first use, kept for the
	// graph's lifetime, and outside the pager budget.
	LabelFragmentBytes int64 `json:"labelFragmentBytes"`
	// Execution-cache telemetry, scoped to this dataset's cache.
	CacheEntries       int   `json:"cacheEntries"`
	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
	CacheResidentBytes int64 `json:"cacheResidentBytes"`
	// Pager is the out-of-core buffer-pool telemetry, present only for
	// lazy (paged) datasets that have loaded.
	Pager *pagerJSON `json:"pager,omitempty"`
}

// pagerJSON is one lazy dataset's buffer-pool telemetry: how many
// column sections are resident versus the snapshot's total and their
// decoded bytes, how many disk faults and evictions the workload has
// caused, and the cumulative fault latency. ResidentSections <
// TotalSections is the out-of-core invariant: only the touched working
// set is in memory.
type pagerJSON struct {
	BudgetSections   int     `json:"budgetSections"`
	ResidentSections int     `json:"residentSections"`
	ResidentBytes    int64   `json:"residentBytes"`
	PinnedSections   int     `json:"pinnedSections"`
	TotalSections    int     `json:"totalSections"`
	Faults           int64   `json:"faults"`
	Evictions        int64   `json:"evictions"`
	FaultMs          float64 `json:"faultMs"`
}

// memoryJSON is the memory telemetry block of /api/v1/stats: process
// heap gauges (runtime/metrics, read without stopping the world) next
// to the execution cache's estimated footprint, so operators can see
// how much of the heap is result cache versus everything else.
type memoryJSON struct {
	// HeapAllocBytes is the process's heap objects, live and not yet
	// swept (runtime MemStats HeapAlloc).
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	// HeapInuseBytes is the heap memory held from the OS for live spans
	// (runtime MemStats HeapInuse); the gap to HeapAllocBytes is
	// fragmentation.
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	// CacheResidentBytes estimates the column bytes of every relation in
	// the shared execution cache.
	CacheResidentBytes int64 `json:"cacheResidentBytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Per-dataset session counts from one snapshot of the table.
	live := s.sessions.Values()
	n := len(live)
	perDS := make(map[*registry.Dataset]int)
	for _, e := range live {
		perDS[e.ds]++
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(heap)
	alloc, unused := sampleBytes(heap[0]), sampleBytes(heap[1])
	out := statsJSON{
		Sessions: n,
		Memory: memoryJSON{
			HeapAllocBytes: alloc,
			HeapInuseBytes: alloc + unused, // as MemStats derives HeapInuse
		},
		Datasets: []datasetStatsJSON{},
	}
	def := s.reg.Default()
	// The top-level cache fields keep their pre-registry meaning: they
	// describe the default dataset.
	if def != nil {
		cache := def.Cache()
		out.CacheEntries = cache.Len()
		out.CacheHits = cache.Hits()
		out.CacheMisses = cache.Misses()
		out.Memory.CacheResidentBytes = cache.ResidentBytes()
	}
	for _, name := range s.reg.Names() {
		ds, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		d := datasetStatsJSON{
			Name:     name,
			Default:  ds == def,
			Loaded:   ds.Loaded(),
			Sessions: perDS[ds],
		}
		bytes, dur := ds.LoadMetrics()
		d.SnapshotBytes = bytes
		d.LoadMs = float64(dur.Microseconds()) / 1e3
		cache := ds.Cache()
		d.CacheEntries = cache.Len()
		d.CacheHits = cache.Hits()
		d.CacheMisses = cache.Misses()
		d.CacheResidentBytes = cache.ResidentBytes()
		if d.Loaded {
			g := ds.Graph()
			d.Nodes = g.NumNodes()
			d.Edges = g.NumEdges()
			d.LabelFragmentBytes = labelFragmentBytes(g)
		}
		if pst, total, ok := ds.PagerStats(); ok {
			d.Pager = &pagerJSON{
				BudgetSections:   pst.Capacity,
				ResidentSections: pst.Len,
				ResidentBytes:    ds.PagerResidentBytes(),
				PinnedSections:   pst.Pinned,
				TotalSections:    total,
				Faults:           pst.Misses,
				Evictions:        pst.Evictions,
				FaultMs:          float64(pst.LoadNanos) / 1e6,
			}
		}
		out.Datasets = append(out.Datasets, d)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// sampleBytes is a runtime/metrics byte gauge, or 0 if this runtime
// does not support it.
func sampleBytes(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// maybeSweep runs a TTL sweep if one has not run recently (quarter-TTL
// cadence, capped at one minute). It piggybacks on request handling so
// idle sessions are evicted even when no new sessions are created.
func (s *Server) maybeSweep() {
	ttl := s.opts.SessionTTL
	if ttl <= 0 {
		return
	}
	interval := ttl / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	now := s.now().UnixNano()
	last := s.lastSweep.Load()
	if now-last < int64(interval) || !s.lastSweep.CompareAndSwap(last, now) {
		return
	}
	closeSessions(s.evictExpired(now))
}

// closeSessions releases evicted sessions' memoized state. Called after
// the table's lock is released — Close takes the session's own lock,
// and the lock ordering never takes session.mu under the table's.
func closeSessions(evicted []*sessionEntry) {
	for _, e := range evicted {
		e.sess.Close()
	}
}

// evictExpired drops sessions idle past the TTL from the table,
// returning them for the caller to Close.
func (s *Server) evictExpired(now int64) []*sessionEntry {
	ttl := int64(s.opts.SessionTTL)
	if ttl <= 0 {
		return nil
	}
	return s.sessions.RemoveFunc(func(_ int64, e *sessionEntry) bool {
		return now-e.lastUsed.Load() > ttl
	})
}

// maxBodyBytes bounds every request body. The largest body a client
// sends is an exported op log for replay, and 1 MiB holds thousands of
// ops.
const maxBodyBytes = 1 << 20

// readBody reads the request body, at most maxBodyBytes of it: a longer
// body is 413 body_too_large, any other read failure 400 bad_body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, apiErr(http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			"request body exceeds %d bytes", maxBodyBytes)
	case err != nil:
		return nil, apiErr(http.StatusBadRequest, codeBadBody, "reading body: %v", err)
	}
	return body, nil
}

// strictDecode decodes one JSON value into v, rejecting unknown fields
// and trailing data — the body-parsing policy of every POST endpoint.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return apiErr(http.StatusBadRequest, codeBadBody, "bad body: %v", err)
	}
	if dec.More() {
		return apiErr(http.StatusBadRequest, codeBadBody, "trailing data after body")
	}
	return nil
}

// createSessionBody is the optional POST body of session creation: a
// batch of initial ops applied before the session is registered, so
// create+open is one round trip. Unknown fields are rejected.
type createSessionBody struct {
	Ops ops.Pipeline `json:"ops"`
}

// createSession builds a session bound to ds, applies any initial ops
// from the request body (bounded by readBody), and registers it. If the
// initial ops fail, no session is created. Returns the new id and
// entry.
func (s *Server) createSession(ctx context.Context, w http.ResponseWriter, r *http.Request, ds *registry.Dataset) (int64, *sessionEntry, error) {
	body, err := readBody(w, r)
	if err != nil {
		return 0, nil, err
	}
	var initial ops.Pipeline
	if len(bytes.TrimSpace(body)) > 0 {
		var cb createSessionBody
		if err := strictDecode(body, &cb); err != nil {
			return 0, nil, err
		}
		initial = cb.Ops
	}
	sess := session.NewShared(ds.Schema(), ds.Graph(), ds.Cache())
	sess.SetMaxRows(s.opts.MaxRows)
	if len(initial) > 0 {
		if err := sess.ApplyPipelineCtx(ctx, initial); err != nil {
			return 0, nil, err
		}
	}
	e := &sessionEntry{sess: sess, ds: ds}
	now := s.now().UnixNano()
	e.lastUsed.Store(now)
	evicted := s.evictExpired(now)
	id := s.lastID.Add(1)
	closeSessions(append(evicted, s.sessions.Add(id, e)...))
	return id, e, nil
}

// handleCreateSession serves POST /api/v1/sessions (and its
// dataset-scoped form): create a session, optionally applying a body of
// initial ops ({"ops": [...]}) so create+open is one round trip. The
// response is the session state with its id.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	ds, err := s.datasetFor(ctx, r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	id, e, err := s.createSession(ctx, w, r, ds)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.respondState(ctx, w, http.StatusCreated, e, id, page{}, nil)
}

// entry resolves the {id} path segment: 400 for a non-numeric id, 404
// for an id that was never allocated, 410 for one that existed but has
// been evicted (TTL or LRU) — so clients can tell "retry with a new
// session" from "you have the wrong URL". On dataset-scoped routes the
// session must be bound to the named dataset: a live session reached
// through the wrong dataset's URL is a 404 (the session does not exist
// *there*), which keeps dataset namespaces disjoint.
func (s *Server) entry(r *http.Request) (*sessionEntry, int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return nil, 0, apiErr(http.StatusBadRequest, codeBadSessionID, "bad session id %q", r.PathValue("id"))
	}
	if name := r.PathValue("ds"); name != "" {
		if _, ok := s.reg.Get(name); !ok {
			return nil, 0, apiErr(http.StatusNotFound, codeDatasetNotFound, "no dataset %q", name)
		}
	}
	s.maybeSweep()
	e, ok := s.sessions.Lookup(id)
	if !ok {
		if id > 0 && id <= s.lastID.Load() {
			return nil, 0, apiErr(http.StatusGone, codeSessionExpired,
				"session %d expired or was evicted; export/replay or create a new one", id)
		}
		return nil, 0, apiErr(http.StatusNotFound, codeSessionNotFound, "no session %d", id)
	}
	if name := r.PathValue("ds"); name != "" && e.ds.Name() != name {
		return nil, 0, apiErr(http.StatusNotFound, codeSessionNotFound,
			"no session %d in dataset %q", id, name)
	}
	// Only a request the session serves renews it, so the stamp follows
	// the dataset check. It also follows the lookup outside the table's
	// lock: a TTL sweep landing in between sees the old stamp and may
	// evict the session, which still serves this request (a closed
	// session re-prepares what it reads) and is 410 from the next one on.
	e.lastUsed.Store(s.now().UnixNano())
	return e, id, nil
}

// page is a validated result-row window. Either explicit offset/limit,
// or an opaque cursor (v1) that carries the window plus a fingerprint of
// the table state it was issued against.
type page struct {
	offset   int
	limit    int
	hasLimit bool
	// cursor, when non-nil, overrides offset/limit and is verified
	// against the current presentation state in appendState.
	cursor *cursorToken
}

// cursorToken is the decoded form of the opaque pagination cursor.
type cursorToken struct {
	Offset int    `json:"o"`
	Limit  int    `json:"l"`
	Sig    uint32 `json:"s"`
}

// encodeCursor serializes a cursor token opaquely (URL-safe base64 of
// its JSON form). Clients must treat it as a black box.
func encodeCursor(c cursorToken) string {
	buf, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses an opaque cursor string.
func decodeCursor(s string) (cursorToken, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursorToken{}, err
	}
	var c cursorToken
	if err := json.Unmarshal(raw, &c); err != nil {
		return cursorToken{}, err
	}
	if c.Offset < 0 || c.Limit <= 0 {
		return cursorToken{}, fmt.Errorf("bad cursor window [%d,%d]", c.Offset, c.Limit)
	}
	return c, nil
}

// presentationSig fingerprints the presentation state a cursor pages
// over (pattern, sort, hidden columns): if an op changes the table, old
// cursors are detected as stale instead of silently returning rows from
// a different table.
func presentationSig(e session.Entry) uint32 {
	h := fnv.New32a()
	io.WriteString(h, e.Pattern.String())
	h.Write([]byte{0})
	if e.Sort != nil {
		fmt.Fprintf(h, "%s\x01%s\x01%v", e.Sort.Attr, e.Sort.Column, e.Sort.Desc)
	}
	h.Write([]byte{0})
	if len(e.Hidden) > 0 {
		names := make([]string, 0, len(e.Hidden))
		for k := range e.Hidden {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, n := range names {
			io.WriteString(h, n)
			h.Write([]byte{1})
		}
	}
	return h.Sum32()
}

// pageFromQuery parses offset/limit/cursor query parameters ("" =
// defaults). A cursor is mutually exclusive with offset/limit.
func pageFromQuery(r *http.Request) (page, error) {
	var p page
	q := r.URL.Query()
	if v := q.Get("cursor"); v != "" {
		if q.Get("offset") != "" || q.Get("limit") != "" {
			return p, apiErr(http.StatusBadRequest, codeBadPage, "cursor is exclusive with offset/limit")
		}
		c, err := decodeCursor(v)
		if err != nil {
			return p, apiErr(http.StatusBadRequest, codeInvalidCursor, "bad cursor: %v", err)
		}
		p.cursor = &c
		return p, nil
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, apiErr(http.StatusBadRequest, codeBadPage, "bad offset %q", v)
		}
		p.offset = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, apiErr(http.StatusBadRequest, codeBadPage, "bad limit %q", v)
		}
		p.limit, p.hasLimit = n, true
	}
	return p, p.validate()
}

func (p page) validate() error {
	if p.offset < 0 {
		return apiErr(http.StatusBadRequest, codeBadPage, "negative offset %d", p.offset)
	}
	if p.hasLimit && p.limit < 0 {
		return apiErr(http.StatusBadRequest, codeBadPage, "negative limit %d", p.limit)
	}
	return nil
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	e, id, err := s.entry(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	p, err := pageFromQuery(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	ctx := r.Context()
	s.respondState(ctx, w, http.StatusOK, e, id, p, nil)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}
