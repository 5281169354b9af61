package main

// The traced pass: per-layer numbers measured from outside the
// program. The harness hosts the serving core in-process behind a
// timing http.Handler on a loopback listener and drives it with ONE
// client (so every count repeats exactly). After each request it steps
// a twin session and standalone etable calls over a second copy of the
// snapshot — "shadow" spans, with caches of their own so they never
// warm the server under measurement. Spans are kept in memory and
// written out at exit. End-to-end metrics never come from here.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/ops"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// traceShare is the leading share of every client's list the traced
// pass covers. Tracing triples the work of a cache-miss op (server,
// twin, standalone), and per-layer numbers need hundreds of requests,
// not thousands.
const traceShare = 0.25

// span is one timed interval. Spans of one request share Req; Parent
// names the span that caused it. Times are nanoseconds since the pass
// began.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span names.
const (
	spanRequest  = "http.request"   // client: request write → last body byte
	spanHandler  = "server.handler" // around the serving core's ServeHTTP
	spanShadow   = "shadow"         // root of everything stepped outside the server
	spanDecode   = "ops.decode"
	spanCompile  = "ops.compile"
	spanApply    = "session.apply"
	spanWindow   = "session.window"
	spanReplay   = "session.replay"
	spanStand    = "etable" // root of the standalone calls of a cache-miss op
	spanPlan     = "etable.plan"
	spanPlanWarm = "etable.plan_warm"
	spanMatch    = "etable.match"
	spanPrepare  = "etable.prepare"
	spanSort     = "etable.sort"
	spanEWindow  = "etable.window"
	spanExpr     = "expr.compile"
)

type tracer struct {
	t0    time.Time
	spans []span
	// sum and count aggregate span durations by name.
	sum   map[string]time.Duration
	count map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]time.Duration{}, count: map[string]int{}}
}

func (t *tracer) record(req int, name, parent string, start, end time.Time) time.Duration {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	d := end.Sub(start)
	t.sum[name] += d
	t.count[name]++
	return d
}

// run times f as a span.
func (t *tracer) run(req int, name, parent string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return t.record(req, name, parent, start, time.Now()), err
}

// usPer is the mean duration of the named spans in microseconds.
func (t *tracer) usPer(name string) float64 {
	return ratio(float64(t.sum[name])/float64(time.Microsecond), float64(t.count[name]))
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingHandler wraps the serving core and remembers the interval of
// the last request it served (one client: one request at a time).
type timingHandler struct {
	next       http.Handler
	mu         sync.Mutex
	start, end time.Time
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.start, h.end = start, end
	h.mu.Unlock()
}

func (h *timingHandler) last() (time.Time, time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start, h.end
}

// shadow steps a twin of the server's session state over its own copy
// of the graph.
type shadow struct {
	snap  *snapshot.Snapshot
	cache *etable.Cache
	pool  *exec.Pool
	par   int
	twin  *session.Session
	log   session.Log // the last history export, for the replay that follows
	// memo holds the standalone presentations of recent table states,
	// keyed by pattern text, oldest first in memoOrder.
	memo      map[string]*standEntry
	memoOrder []string
}

func newShadow(snap *snapshot.Snapshot) *shadow {
	// The pool and budget the server derives from its own GOMAXPROCS.
	procs := runtime.GOMAXPROCS(0)
	return &shadow{snap: snap, cache: etable.NewCache(srvCacheEntries),
		pool: exec.NewPool(procs), par: min(4, procs), memo: map[string]*standEntry{}}
}

func (s *shadow) newTwin() {
	if s.twin != nil {
		s.twin.Close()
	}
	s.twin = session.NewWithExec(s.snap.Schema, s.snap.Graph, s.cache, s.pool, s.par)
	s.twin.SetWindowRecycling(true)
}

// layerCounts are the exact counts the traced pass takes at layer
// boundaries.
type layerCounts struct {
	requests, singleOps, pages int
	opBytes, pageBytes         int64
	missOps                    int   // twin ops that missed the execution cache
	matchedRows, windowRows    int64 // of those ops' standalone match / window
	// opLatency is the client-side latency of every single op, for
	// trace.req_p50_ms.
	opLatency []time.Duration
}

// tracedPass drives the first traceShare of every client's list
// through an in-process server with one client and returns the spans,
// the counts, and the server's cache-miss count.
func tracedPass(served, twinSnap *snapshot.Snapshot, lists [][]request) (*tracer, layerCounts, counters, error) {
	var lc layerCounts
	srv, err := newEagerServer(served)
	if err != nil {
		return nil, lc, counters{}, err
	}
	th := &timingHandler{next: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, lc, counters{}, err
	}
	hs := &http.Server{Handler: th}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-serveDone
	}()

	client := newLoadClient(0, "http://"+ln.Addr().String())
	defer client.hc.CloseIdleConnections()
	sh := newShadow(twinSnap)
	tr := newTracer()
	ctx := context.Background()
	reqNo := 0
	for _, list := range lists {
		n := tracePrefix(list)
		for i := 0; i < n; i++ {
			r := &list[i]
			s := client.do(r)
			if s.err != nil {
				return nil, lc, counters{}, fmt.Errorf("traced request %d (%s %s): %w", reqNo, r.Method, r.Path, s.err)
			}
			tr.record(reqNo, spanRequest, "", s.start, s.start.Add(s.dur))
			hStart, hEnd := th.last()
			tr.record(reqNo, spanHandler, spanRequest, hStart, hEnd)
			lc.requests++
			switch {
			case r.singleOp():
				lc.singleOps++
				lc.opBytes += int64(s.bytes)
				lc.opLatency = append(lc.opLatency, s.dur)
			case r.Kind == "page":
				lc.pages++
				lc.pageBytes += int64(s.bytes)
			}
			if err := sh.step(ctx, tr, reqNo, r, &lc); err != nil {
				return nil, lc, counters{}, fmt.Errorf("shadow of request %d (%s %s): %w", reqNo, r.Kind, r.Body, err)
			}
			reqNo++
		}
	}
	st, err := fetchStats(client.base)
	return tr, lc, st, err
}

// tracePrefix is the number of leading requests of a list the traced
// pass covers.
func tracePrefix(list []request) int { return scriptBoundary(list, traceShare) }

// step mirrors one request on the twin session, timing each layer's
// public entry point, and then the etable layer's own public functions
// for the table state the request left behind.
func (s *shadow) step(ctx context.Context, tr *tracer, req int, r *request, lc *layerCounts) error {
	start := time.Now()
	defer func() { tr.record(req, spanShadow, "", start, time.Now()) }()
	switch r.Kind {
	case "create":
		s.newTwin()
		return nil
	case "history":
		s.log = s.twin.Export()
		return nil
	case "replay":
		if _, err := tr.run(req, spanReplay, spanShadow, func() error { return s.twin.ReplayCtx(ctx, s.log) }); err != nil {
			return err
		}
		_, err := s.window(ctx, tr, req, r)
		return err
	case "page":
		if _, err := s.window(ctx, tr, req, r); err != nil {
			return err
		}
		_, err := s.standalone(ctx, tr, req, r, ops.Op{}, false, lc)
		return err
	}
	var pl ops.Pipeline
	if _, err := tr.run(req, spanDecode, spanShadow, func() (err error) {
		pl, err = ops.DecodePipeline([]byte(r.Body))
		return err
	}); err != nil {
		return err
	}
	if _, err := tr.run(req, spanCompile, spanShadow, func() error {
		if err := pl.Validate(s.snap.Schema); err != nil {
			return err
		}
		_, err := pl.Compile(s.snap.Schema)
		return err
	}); err != nil {
		return err
	}
	missesBefore := s.cache.Misses()
	applyDur, err := tr.run(req, spanApply, spanShadow, func() error { return s.twin.ApplyPipelineCtx(ctx, pl) })
	if err != nil {
		return err
	}
	winDur, err := s.window(ctx, tr, req, r)
	if err != nil {
		return err
	}
	miss := s.cache.Misses() != missesBefore
	if !miss && pl[0].Op != ops.KindSort {
		// A repeated signature: the server did no etable work worth
		// attributing, and re-deriving it uncached would only slow the
		// pass down.
		return nil
	}
	layers, err := s.standalone(ctx, tr, req, r, pl[0], miss, lc)
	if miss {
		lc.missOps++
		tr.sum[sumMissSession] += applyDur + winDur
		tr.sum[sumMissLayers] += layers
	}
	return err
}

// Aggregates over cache-miss ops only, for etable.unattributed_ratio:
// what the session layer spent, and what the etable layer's public
// functions account for.
const (
	sumMissSession = "miss:session"
	sumMissLayers  = "miss:etable"
	sumPageWindow  = "page:" + spanEWindow
)

func (s *shadow) window(ctx context.Context, tr *tracer, req int, r *request) (time.Duration, error) {
	return tr.run(req, spanWindow, spanShadow, func() error {
		_, err := s.twin.WindowCtx(ctx, r.Off, r.Lim)
		return err
	})
}

// standEntry is the standalone presentation of one table state: the
// prepared base and the view in the order the twin currently sorts by.
type standEntry struct {
	base, view *etable.Presentation
	sort       etable.SortSpec
}

// standMemoEntries bounds the standalone presentations kept between
// requests (page_scan alternates between two tables).
const standMemoEntries = 4

// standalone times the etable layer's public functions for the table
// state the twin is in. On a cache-miss op it plans, matches and
// prepares the pattern uncached, as spans; otherwise it reuses the
// presentation prepared for that pattern earlier (preparing it untimed
// if need be) and times only what the request itself does at this
// layer: the re-sort of a sort op, and the window. It returns the time
// the spans cover.
func (s *shadow) standalone(ctx context.Context, tr *tracer, req int, r *request, op ops.Op, miss bool, lc *layerCounts) (time.Duration, error) {
	start := time.Now()
	defer func() { tr.record(req, spanStand, spanShadow, start, time.Now()) }()
	g, p := s.snap.Graph, s.twin.Pattern()
	opt := etable.ExecOptions{Ctx: ctx, Pool: s.pool, Parallelism: s.par}
	var spent time.Duration
	timed := func(name string, f func() error) error {
		d, err := tr.run(req, name, spanStand, f)
		spent += d
		return err
	}

	if miss && op.Cond != "" {
		// The predicate this op added, against the node type it landed
		// on: the primary for filter, the joined neighbor (appended
		// last) for filter_neighbor.
		node := p.PrimaryNode()
		if op.Op == ops.KindFilterByNeighbor {
			node = &p.Nodes[len(p.Nodes)-1]
		}
		nt := s.snap.Schema.NodeType(node.Type)
		if _, err := tr.run(req, spanExpr, spanStand, func() error {
			e, err := expr.Parse(op.Cond)
			if err != nil {
				return err
			}
			_, err = expr.Compile(e, nt)
			return err
		}); err != nil {
			return spent, err
		}
	}

	key := p.String()
	e := s.memo[key]
	if e == nil || miss {
		build := func(name string, f func() error) error {
			if miss {
				return timed(name, f)
			}
			return f()
		}
		if miss {
			cold := opt
			cold.NoPlanCache = true
			if err := timed(spanPlan, func() error {
				_, err := etable.PlanForOpts(g, p, cold)
				return err
			}); err != nil {
				return spent, err
			}
			// The twin's own execution has put the plan in the graph's cache.
			if err := timed(spanPlanWarm, func() error {
				_, err := etable.PlanForOpts(g, p, opt)
				return err
			}); err != nil {
				return spent, err
			}
		}
		var ne standEntry
		var rel *graphrel.Relation
		if err := build(spanMatch, func() (err error) {
			rel, err = etable.MatchOpts(g, p, opt)
			return err
		}); err != nil {
			return spent, err
		}
		if miss {
			lc.matchedRows += int64(rel.Len())
		}
		if err := build(spanPrepare, func() (err error) {
			ne.base, err = etable.PrepareOpts(g, p, rel, opt)
			return err
		}); err != nil {
			return spent, err
		}
		ne.view = ne.base
		s.remember(key, &ne)
		e = &ne
	}

	var spec etable.SortSpec
	if entries, cur := s.twin.Entries(); cur >= 0 && entries[cur].Sort != nil {
		spec = *entries[cur].Sort
	}
	if spec != e.sort {
		e.view, e.sort = e.base, spec
		if spec != (etable.SortSpec{}) {
			if err := timed(spanSort, func() (err error) {
				e.view, err = e.base.SortedView(spec)
				return err
			}); err != nil {
				return spent, err
			}
		}
	}
	winStart := time.Now()
	res, err := e.view.WindowOpts(r.Off, r.Lim, opt)
	if err != nil {
		return spent, err
	}
	d := tr.record(req, spanEWindow, spanStand, winStart, time.Now())
	spent += d
	if r.Kind == "page" {
		tr.sum[sumPageWindow] += d
		tr.count[sumPageWindow]++
	}
	if miss {
		lc.windowRows += int64(len(res.Rows))
	}
	return spent, nil
}

// remember memoizes a standalone presentation, closing the oldest one
// (or the one it replaces) past standMemoEntries.
func (s *shadow) remember(key string, e *standEntry) {
	if old := s.memo[key]; old != nil {
		old.base.Close()
	} else {
		s.memoOrder = append(s.memoOrder, key)
	}
	s.memo[key] = e
	if len(s.memoOrder) > standMemoEntries {
		oldest := s.memoOrder[0]
		s.memoOrder = s.memoOrder[1:]
		s.memo[oldest].base.Close()
		delete(s.memo, oldest)
	}
}
