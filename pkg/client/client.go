// Package client is the typed Go SDK for the ETable /api/v1 protocol —
// the programmatic counterpart of the browser UI. It speaks the
// declarative operation algebra (see the Op builders in ops.go): create
// a session, apply ops singly or as atomic batch pipelines, page through
// results with offset/limit or opaque cursors, and export/replay the
// session's operation log to survive server-side eviction.
//
//	c := client.New("http://localhost:8080")
//	sess, _ := c.NewSession(ctx, client.Open("Papers"))
//	st, _ := sess.Do(ctx, client.Filter("year > 2005"), client.Pivot("Authors"))
//	for it := sess.Rows(ctx, 100); it.Next(); {
//		fmt.Println(it.Row().Label)
//	}
//
// Transient failures (network errors, 5xx) on idempotent requests —
// reads and replay — are retried with exponential backoff; op-applying
// POSTs are never retried automatically, because the server may have
// applied the ops before the connection died. Structured API errors
// surface as *APIError with the server's stable machine-readable code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx response decoded from the server's structured
// error envelope {code, message, op_index}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable code, e.g. "invalid_op",
	// "op_failed", "session_expired", "stale_cursor".
	Code string
	// Message is the human-readable description.
	Message string
	// OpIndex is the index of the failing op in a batch, or -1.
	OpIndex int
}

// Error implements error.
func (e *APIError) Error() string {
	if e.OpIndex >= 0 {
		return fmt.Sprintf("etable: %d %s: op %d: %s", e.Status, e.Code, e.OpIndex, e.Message)
	}
	return fmt.Sprintf("etable: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsGone reports whether the session was evicted server-side (410): the
// caller should create a fresh session and Replay its exported log.
func (e *APIError) IsGone() bool { return e.Status == http.StatusGone }

// Client is an /api/v1 client. It is safe for concurrent use.
type Client struct {
	base string
	// prefix is the API root every session/schema path hangs off:
	// "/api/v1" for the default dataset, "/api/v1/datasets/{name}" for
	// a Dataset-scoped client.
	prefix  string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times an idempotent request is retried after
// a transient failure (network error or 5xx) and the initial backoff,
// doubled per attempt. The default is 2 retries starting at 100ms.
// Non-idempotent requests (NewSession, Do/DoPaged) are never retried.
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// New creates a client for an ETable server, e.g.
// New("http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		prefix:  "/api/v1",
		hc:      http.DefaultClient,
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Dataset returns a client scoped to one named dataset on a
// multi-dataset server: its sessions, schema, and ops all route through
// /api/v1/datasets/{name}/. The receiver is unchanged; scoped and
// unscoped clients share the same connection pool and options. Global
// endpoints (Stats, Datasets) are identical through either.
func (c *Client) Dataset(name string) *Client {
	scoped := *c
	scoped.prefix = "/api/v1/datasets/" + url.PathEscape(name)
	return &scoped
}

// do issues one request and decodes the JSON response into out (unless
// out is nil). Only requests the caller marks idempotent are retried
// after transport errors or 5xx responses: an op-applying POST may have
// mutated the session before the connection died, and blindly repeating
// it would double-apply. 4xx responses are never retried.
func (c *Client) do(ctx context.Context, method, path string, idempotent bool, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("etable: encoding request: %w", err)
		}
	}
	retries := c.retries
	if !idempotent {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff << (attempt - 1)):
			}
		}
		var rd *bytes.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue // transport error: retry
		}
		if resp.StatusCode >= 500 {
			lastErr = decodeAPIError(resp)
			resp.Body.Close()
			continue // server error: retry
		}
		if resp.StatusCode >= 300 {
			defer resp.Body.Close()
			return decodeAPIError(resp) // client error: never retry
		}
		defer resp.Body.Close()
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("etable: decoding response: %w", err)
		}
		return nil
	}
	return fmt.Errorf("etable: giving up after %d attempts: %w", retries+1, lastErr)
}

// decodeAPIError reads the structured error envelope; body must still be
// open. Undecodable bodies still yield the status code.
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{Status: resp.StatusCode, OpIndex: -1}
	var env struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		OpIndex *int   `json:"op_index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
		ae.Code, ae.Message = env.Code, env.Message
		if env.OpIndex != nil {
			ae.OpIndex = *env.OpIndex
		}
	}
	if ae.Message == "" {
		ae.Message = http.StatusText(resp.StatusCode)
	}
	return ae
}

// Schema is the GET /api/v1/schema payload.
type Schema struct {
	NodeTypes []NodeType `json:"nodeTypes"`
	EdgeTypes []EdgeType `json:"edgeTypes"`
}

// NodeType describes one node type of the typed graph model.
type NodeType struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"`
	Label string   `json:"label"`
	Attrs []string `json:"attrs"`
	Count int      `json:"count"`
}

// EdgeType describes one edge type of the typed graph model.
type EdgeType struct {
	Name   string `json:"name"`
	Label  string `json:"label"`
	Source string `json:"source"`
	Target string `json:"target"`
	Kind   string `json:"kind"`
}

// Stats is the GET /api/v1/stats payload.
type Stats struct {
	Sessions     int   `json:"sessions"`
	CacheEntries int   `json:"cacheEntries"`
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
}

// DatasetInfo is one dataset in the GET /api/v1/datasets payload.
type DatasetInfo struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	// Loaded is false for a lazy snapshot dataset no request has
	// touched; the first session on it pays the load.
	Loaded bool `json:"loaded"`
	// Source is "memory" or "snapshot".
	Source string `json:"source"`
	// Lazy marks snapshot datasets served out-of-core (columns page in
	// on demand through a bounded buffer pool).
	Lazy bool `json:"lazy"`
	// FileBytes and FileSections describe the snapshot file itself,
	// read from its header at registration — populated before any load.
	FileBytes     int64   `json:"fileBytes"`
	FileSections  int     `json:"fileSections"`
	SnapshotBytes int64   `json:"snapshotBytes"`
	LoadMs        float64 `json:"loadMs"`
	Nodes         int     `json:"nodes"`
	Edges         int     `json:"edges"`
	Sessions      int     `json:"sessions"`
}

// Datasets lists the server's registered datasets. Scope a client to
// one of them with Dataset(name).
func (c *Client) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	var out struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/datasets", true, nil, &out); err != nil {
		return nil, err
	}
	return out.Datasets, nil
}

// Schema fetches the TGDB schema (the scoped dataset's schema on a
// Dataset client).
func (c *Client) Schema(ctx context.Context) (*Schema, error) {
	var out Schema
	if err := c.do(ctx, http.MethodGet, c.prefix+"/schema", true, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the serving-core health counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/api/v1/stats", true, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// State is one session snapshot: the pattern, the visible row window,
// and the history. NextCursor, when non-empty, pages to the next window.
type State struct {
	ID         int64    `json:"id"`
	Pattern    string   `json:"pattern"`
	Columns    []Column `json:"columns"`
	Rows       []Row    `json:"rows"`
	TotalRows  int      `json:"totalRows"`
	Offset     int      `json:"offset"`
	NextCursor string   `json:"nextCursor"`
	History    []Action `json:"history"`
	Cursor     int      `json:"cursor"`
}

// Column is one enriched-table column header.
type Column struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Row is one enriched-table row.
type Row struct {
	Node  int64  `json:"node"`
	Label string `json:"label"`
	Cells []Cell `json:"cells"`
}

// Cell is one table cell: a formatted value (base-attribute columns) or
// a set of entity references with its count.
type Cell struct {
	Value string `json:"value"`
	Refs  []Ref  `json:"refs"`
	Count int    `json:"count"`
}

// Ref is one clickable entity reference.
type Ref struct {
	ID    int64  `json:"id"`
	Label string `json:"label"`
}

// Action is one history item of a state snapshot.
type Action struct {
	Action string `json:"action"`
}

// History is the GET .../history payload: the human-readable entries
// plus the replayable operation log (Ops, Cursor).
type History struct {
	ID      int64          `json:"id"`
	Entries []HistoryEntry `json:"entries"`
	Ops     []Op           `json:"ops"`
	Cursor  int            `json:"cursor"`
}

// HistoryEntry is one history item with its originating op and the
// pattern in effect after it.
type HistoryEntry struct {
	Action  string `json:"action"`
	Pattern string `json:"pattern"`
	Op      Op     `json:"op"`
}

// Log is a replayable operation log — the body of POST .../replay.
// Extract it from a History with its Log method.
type Log struct {
	Ops    []Op `json:"ops"`
	Cursor int  `json:"cursor"`
}

// Log extracts the replayable operation log of a history.
func (h *History) Log() Log { return Log{Ops: h.Ops, Cursor: h.Cursor} }

// Session is a handle on one server-side session.
type Session struct {
	c  *Client
	id int64
}

// ID returns the server-side session id.
func (s *Session) ID() int64 { return s.id }

// NewSession creates a session, optionally applying initial ops in the
// same round trip (e.g. NewSession(ctx, client.Open("Papers"))).
func (c *Client) NewSession(ctx context.Context, initial ...Op) (*Session, *State, error) {
	var body any
	if len(initial) > 0 {
		body = map[string]any{"ops": initial}
	}
	var st State
	if err := c.do(ctx, http.MethodPost, c.prefix+"/sessions", false, body, &st); err != nil {
		return nil, nil, err
	}
	return &Session{c: c, id: st.ID}, &st, nil
}

// Session attaches to an existing session id (e.g. one persisted by a
// previous process).
func (c *Client) Session(id int64) *Session { return &Session{c: c, id: id} }

// Page selects the row window of a state request.
type Page struct {
	// Offset and Limit select an explicit window. Limit 0 with HasLimit
	// false means the server default.
	Offset   int
	Limit    int
	HasLimit bool
	// Cursor, when non-empty, continues from a previous response's
	// NextCursor and overrides Offset/Limit. Valid for State/Rows only;
	// DoPaged rejects it (the ops would invalidate it mid-request).
	Cursor string
}

// Limit builds a Page with just a row limit.
func Limit(n int) Page { return Page{Limit: n, HasLimit: true} }

// Window builds a Page with an explicit offset and limit.
func Window(offset, limit int) Page { return Page{Offset: offset, Limit: limit, HasLimit: true} }

// query renders the page as URL query parameters.
func (p Page) query() string {
	q := url.Values{}
	if p.Cursor != "" {
		q.Set("cursor", p.Cursor)
	} else {
		if p.Offset > 0 {
			q.Set("offset", strconv.Itoa(p.Offset))
		}
		if p.HasLimit {
			q.Set("limit", strconv.Itoa(p.Limit))
		}
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// State fetches the session snapshot, paged per page (zero Page = server
// defaults).
func (s *Session) State(ctx context.Context, page Page) (*State, error) {
	var st State
	path := fmt.Sprintf("%s/sessions/%d%s", s.c.prefix, s.id, page.query())
	if err := s.c.do(ctx, http.MethodGet, path, true, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Do applies one op or an atomic batch pipeline and returns the
// resulting snapshot. A batch either fully applies or leaves the session
// untouched (the *APIError carries the failing op's index).
func (s *Session) Do(ctx context.Context, ops ...Op) (*State, error) {
	return s.DoPaged(ctx, Page{}, ops...)
}

// DoPaged is Do with an explicit row window (offset/limit) on the
// response snapshot. Continuation cursors are not accepted here: a
// cursor is bound to the table state it was issued against, which the
// ops are about to change — page the new state with State or Rows.
func (s *Session) DoPaged(ctx context.Context, page Page, ops ...Op) (*State, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("etable: no ops to apply")
	}
	if page.Cursor != "" {
		return nil, fmt.Errorf("etable: a cursor cannot page an op response; use offset/limit")
	}
	var body any = ops
	if len(ops) == 1 {
		body = ops[0]
	}
	var st State
	path := fmt.Sprintf("%s/sessions/%d/ops%s", s.c.prefix, s.id, page.query())
	if err := s.c.do(ctx, http.MethodPost, path, false, body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// History fetches the session's history and replayable operation log.
func (s *Session) History(ctx context.Context) (*History, error) {
	var h History
	if err := s.c.do(ctx, http.MethodGet, fmt.Sprintf("%s/sessions/%d/history", s.c.prefix, s.id), true, nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Replay resets the session and re-executes an exported operation log,
// deterministically reproducing the state it was exported from.
func (s *Session) Replay(ctx context.Context, log Log) (*State, error) {
	var st State
	if err := s.c.do(ctx, http.MethodPost, fmt.Sprintf("%s/sessions/%d/replay", s.c.prefix, s.id), true, log, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RowIterator pages through a session's rows with opaque cursors; see
// Session.Rows.
type RowIterator struct {
	ctx      context.Context
	sess     *Session
	pageSize int

	rows  []Row
	i     int
	next  string
	total int
	begun bool
	err   error
}

// Rows returns an iterator over the current table's rows, fetching
// pageSize rows per request (pageSize <= 0 uses the server default, in
// which case the server must have one configured to make progress).
//
//	for it := sess.Rows(ctx, 500); it.Next(); {
//		r := it.Row()
//		...
//	}
//	if it.Err() != nil { ... }
func (s *Session) Rows(ctx context.Context, pageSize int) *RowIterator {
	return &RowIterator{ctx: ctx, sess: s, pageSize: pageSize}
}

// Next advances to the next row, fetching the next page as needed. It
// returns false at the end of the table or on error (check Err).
func (it *RowIterator) Next() bool {
	if it.err != nil {
		return false
	}
	if it.i+1 < len(it.rows) {
		it.i++
		return true
	}
	if it.begun && it.next == "" {
		return false
	}
	page := Page{Cursor: it.next}
	if !it.begun && it.pageSize > 0 {
		page = Limit(it.pageSize)
	}
	st, err := it.sess.State(it.ctx, page)
	if err != nil {
		it.err = err
		return false
	}
	it.begun = true
	it.rows, it.i = st.Rows, 0
	it.next = st.NextCursor
	it.total = st.TotalRows
	if len(it.rows) == 0 {
		return false
	}
	return true
}

// Row returns the current row. Valid only after Next returned true.
func (it *RowIterator) Row() Row { return it.rows[it.i] }

// TotalRows returns the table's total row count (known after the first
// Next).
func (it *RowIterator) TotalRows() int { return it.total }

// Err returns the first error the iterator hit, if any.
func (it *RowIterator) Err() error { return it.err }
