// Package session implements the user-level actions of the paper's §6.1
// (Open, Filter, Pivot, Single, Seeall, plus Sort and Hide/Show) and the
// history view of Figure 9: every action appends an entry holding the
// resulting query pattern, and users can revert to any prior state.
//
// Each user-level action translates into the primitive operators of
// internal/etable exactly as the paper specifies:
//
//	Open(τk)            = Initiate(τk)
//	Filter(C)           = Select(C)
//	Pivot(neighbor ρl)  = Add(ρl)
//	Pivot(particip. τk) = Shift(τk)
//	Single(vk)          = Select(key=vk, Initiate(type(vk)))
//	Seeall(vk, ρl)      = Add(ρl, Select(key=vk))        (neighbor col)
//	Seeall(vk, τl)      = Shift(τl, Select(key=vk))      (participating col)
//
// A Session is safe for concurrent use: one mutex serializes actions and
// snapshots per session, so the application server can admit overlapping
// requests for the same session without a global lock. Expensive
// execution state is NOT per-session — matching runs through an
// etable.Executor whose cache may be shared across every session of a
// server (NewShared).
//
// Presentation is windowed: the session keeps a small memo of prepared
// presentations (etable.Presentation — row order, groupings, column
// layout; no cells) plus a bounded memo of materialized row windows per
// presentation, keyed by (offset, limit). A page fetch therefore costs
// O(window): the row order and groupings come from the prepared
// presentation and only the requested rows are transformed. A
// presentation owns everything its windows read, so the session holds
// at most memoEntries prepared presentations and no relation — matched
// relations are held by the shared cache alone, under its LRU.
//
// Every mutation flows through the declarative operation protocol of
// internal/ops: Apply executes one validated ops.Op, ApplyPipeline
// executes a batch atomically, and the imperative methods (Open, Filter,
// …) are thin wrappers that build the corresponding op. Each history
// entry records the op that produced it, so Export serializes a session
// to a replayable operation log and Replay deterministically rebuilds
// identical state on a fresh session over the same graph.
package session

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/ops"
	"repro/internal/tgm"
	"repro/internal/value"
)

// Entry is one history item: the operation that produced it, its
// human-readable description, and the query pattern in effect after it.
type Entry struct {
	// Op is the declarative operation that created this entry. Revert
	// ops never create entries (they only move the cursor), so a
	// history is exactly its ops replayed in order.
	Op ops.Op
	// Action describes the user action, e.g. "Open 'Papers' table".
	Action string
	// Pattern is the query pattern after the action (nil only for the
	// initial empty state).
	Pattern *etable.Pattern
	// Sort and Hidden capture the presentation state after the action.
	Sort   *etable.SortSpec
	Hidden map[string]bool
}

// memoEntries bounds the per-session presentation memo. It only needs
// to cover a short revert/redo window; the heavy lifting is in the
// shared execution cache.
const memoEntries = 8

// windowMemoEntries bounds the materialized row windows kept per
// presentation (a paging client re-reads its current and adjacent
// windows; anything older is cheap to rebuild from the presentation).
const windowMemoEntries = 8

// windowMemoRowCap bounds the rows of any memoized partial window, so
// a client requesting 8 near-full windows cannot hold 8 full renders'
// worth of cells per presentation. Only the canonical full render
// (offset 0, no limit) is exempt — it is one entry, matching the
// pre-windowing memo's footprint; oversized partial windows (including
// unlimited reads at a nonzero offset) are simply rebuilt per read,
// which is still O(window).
const windowMemoRowCap = 4096

// presEntry is one memoized presentation state: the prepared base
// presentation (canonical ID-ascending row order, never sorted in
// place), the bounded memo of sorted views over that base, and the
// bounded window memo. Sort variants are etable.SortedView shallow
// copies — they share the base's columns, groupings, and neighbor
// layout and own only their row order — so switching sorts re-prepares
// nothing. windows values have hidden columns already
// applied — they are exactly what readers get — so the window key
// carries the hidden set and sort alongside the row range.
type presEntry struct {
	base      *etable.Presentation
	sorted    map[string]*etable.Presentation
	sortOrder []string
	windows   map[winKey]*etable.Result
	winOrder  []winKey
}

// sortMemoEntries bounds the sorted views kept per presentation. A
// view is O(rows) row IDs (everything else is shared with the base),
// so the bound is about row-ID slices, not prepared state.
const sortMemoEntries = 8

// winKey identifies one materialized window of a presentation.
type winKey struct {
	offset, limit int
	hidden        string // hiddenKey of the entry's hidden-column set
	sort          string // sortKey of the entry's sort spec ("" = base order)
}

// variant returns the presentation ordered per the entry's sort spec:
// the shared base when unsorted, otherwise a memoized SortedView over
// it (built on first use, bounded FIFO). All variants share one
// prepared presentation; only row order differs.
func (pe *presEntry) variant(e Entry) (*etable.Presentation, error) {
	if e.Sort == nil {
		return pe.base, nil
	}
	sk := sortKey(e.Sort)
	if v, ok := pe.sorted[sk]; ok {
		return v, nil
	}
	v, err := pe.base.SortedView(*e.Sort)
	if err != nil {
		return nil, err
	}
	if len(pe.sortOrder) >= sortMemoEntries {
		delete(pe.sorted, pe.sortOrder[0])
		pe.sortOrder = pe.sortOrder[1:]
	}
	pe.sorted[sk] = v
	pe.sortOrder = append(pe.sortOrder, sk)
	return v, nil
}

// discard drops a memo entry the session is done with: it closes any
// spill-backed state behind the presentation (a no-op on heap-resident
// entries; sorted views share the base's spill state, so closing the
// base releases every variant) and, under SetWindowRecycling, returns
// every memoized window's arenas to the pool. Caller holds s.mu.
func (s *Session) discard(pe *presEntry) {
	pe.base.Close()
	if s.recycleWindows {
		for _, res := range pe.windows {
			res.Recycle()
		}
	}
}

// Session is one user's interactive exploration state.
type Session struct {
	schema *tgm.SchemaGraph
	graph  *tgm.InstanceGraph
	// exec reuses intermediate match results (the paper's §9 future-work
	// item 2): Sort, Hide, Shift, and Revert re-executions hit its
	// cache. The cache behind it is shared across sessions when the
	// session is built with NewShared.
	exec *etable.Executor
	// pool and parallelism configure intra-query parallel execution:
	// pool is the (usually server-wide) worker pool, parallelism the
	// default per-request budget. A request context carrying
	// exec.WithBudget overrides the default per call. Both zero values
	// mean serial execution. Pool admission is try-acquire, so holding
	// mu while executing never blocks on another session's work.
	pool        *exec.Pool
	parallelism int
	// maxRows caps the rows any single request may materialize (0 =
	// unbounded): the execution core aborts oversized matches mid-join
	// (or mid-stream) with *graphrel.RowLimitError, and windowLocked
	// rejects oversized window requests before transforming a cell.
	maxRows int
	// spill enables spill-to-disk execution (see SetSpill): when set,
	// maxRows becomes the spill trigger for the browsable prepare path
	// instead of a hard failure, and oversized results page from
	// temp-file runs. nil keeps the strict pre-spill cap.
	spill *graphrel.SpillPolicy
	// recycleWindows opts materialized windows into arena recycling
	// (see SetWindowRecycling): evicted window-memo entries return
	// their cell/row/ref arenas to the package pool instead of
	// garbage-collecting them, so steady-state paging allocates
	// (almost) nothing.
	recycleWindows bool

	// mu serializes all state-changing actions and snapshot reads on
	// this session. Lock ordering: session.mu may be held while the
	// executor takes cache shard locks, never the reverse.
	mu      sync.Mutex
	history []Entry
	cursor  int // index into history of the current state; -1 = empty

	// memo caches prepared presentations keyed by pattern alone
	// (sorting is a memoized view per entry, hiding is per window),
	// bounded FIFO; evicted entries release their spill files.
	memo      map[string]*presEntry
	memoOrder []string
}

// New starts an empty session over a TGDB with a private execution
// cache.
func New(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph) *Session {
	return NewShared(schema, graph, etable.NewCache(etable.DefaultCacheEntries))
}

// NewShared starts an empty session whose executor is backed by a
// shared execution cache. All sessions sharing a cache must be over the
// same instance graph. Execution is serial; use NewWithExec to grant
// the session a worker pool.
func NewShared(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph, cache *etable.Cache) *Session {
	return NewWithExec(schema, graph, cache, nil, 0)
}

// NewWithExec is NewShared plus intra-query parallel execution: queries
// fan out to at most parallelism workers drawn from pool (both may be
// zero/nil for serial execution). The pool is typically owned by the
// server and shared by every session, so the pool capacity — not the
// session count — bounds total helper goroutines.
func NewWithExec(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph, cache *etable.Cache, pool *exec.Pool, parallelism int) *Session {
	return &Session{
		schema:      schema,
		graph:       graph,
		exec:        etable.NewSharedExecutor(graph, cache),
		pool:        pool,
		parallelism: parallelism,
		cursor:      -1,
		memo:        make(map[string]*presEntry),
	}
}

// SetMaxRows caps the rows any single request on this session may
// materialize (0 = unbounded, the default). Oversized matches fail
// mid-execution with a *graphrel.RowLimitError — as soon as the
// result's drain crosses the cap, before the full relation exists —
// and oversized explicit window requests are rejected before any cell
// is transformed. The cap guards the server
// against a single pathological query (a high-fanout join chain, or an
// unbounded read of a huge table) holding result-sized memory; paging
// within the cap is unaffected. Call before serving requests.
func (s *Session) SetMaxRows(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxRows = n
}

// SetSpill enables spill-to-disk execution for this session's queries:
// with a policy set, a browsable prepare whose match crosses the
// max-rows threshold overflows its breaker folds to temp-file runs and
// stays pageable, instead of failing with the 413 row-cap error. The
// policy's MaxBytes remains a hard cap (its exhaustion fails with the
// same *graphrel.RowLimitError), and explicit window requests larger
// than max-rows are still rejected — spilling bounds memory, it does
// not unbound a single read. nil (the default) keeps the strict cap.
// Call before serving requests.
func (s *Session) SetSpill(pol *graphrel.SpillPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spill = pol
}

// SetWindowRecycling opts the session into window-arena recycling:
// materialized row windows evicted from the session's window memo (and
// windows dropped by Close or presentation-memo eviction) return their
// backing arenas to a pool for the next window to reuse, so a client
// paging steadily allocates near-zero bytes per page.
//
// The contract is strict: with recycling on, every *etable.Result the
// session returns (WindowCtx, StateWindowCtx, ResultCtx, …) is valid
// only until the caller's next call on this session — a later call may
// recycle it and reuse its cells. Callers that serialize each result
// before issuing the next call (the HTTP server renders each response
// to JSON under its per-session request lock) satisfy this; callers
// that retain Results across calls must leave recycling off (the
// default, which preserves the prior fully-GC'd behavior).
func (s *Session) SetWindowRecycling(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recycleWindows = on
}

// execOptions resolves the execution options for one request: the
// request context (cancellation), the session's worker pool, and the
// per-request budget (context override via exec.WithBudget, else the
// session default).
func (s *Session) execOptions(ctx context.Context) etable.ExecOptions {
	return etable.ExecOptions{
		Ctx:         ctx,
		Pool:        s.pool,
		Parallelism: exec.BudgetFrom(ctx, s.parallelism),
		MaxRows:     s.maxRows,
		Spill:       s.spill,
	}
}

// Schema returns the schema graph (the "default table list" of Figure 9
// is its entity node types).
func (s *Session) Schema() *tgm.SchemaGraph { return s.schema }

// Graph returns the instance graph.
func (s *Session) Graph() *tgm.InstanceGraph { return s.graph }

// History returns a copy of all history entries, oldest first. (A copy,
// because a concurrent action may append in place.)
func (s *Session) History() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Entry(nil), s.history...)
}

// Cursor returns the index of the current history entry (-1 when empty).
func (s *Session) Cursor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Pattern returns the current query pattern, or nil before any Open.
func (s *Session) Pattern() *etable.Pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cursor < 0 {
		return nil
	}
	return s.history[s.cursor].Pattern
}

// State is a consistent snapshot of a session: the pattern, the
// presented result (nil before any Open), and the history. The server
// encodes one State per request instead of reading pattern, result, and
// history through separate locks that could interleave with a
// concurrent action. Windowed snapshots (StateWindowCtx) carry only the
// requested rows in Result; Result.TotalRows/Offset locate the window.
type State struct {
	Pattern *etable.Pattern
	Result  *etable.Result
	History []Entry
	Cursor  int
}

// State snapshots the session under one lock acquisition.
func (s *Session) State() (State, error) { return s.StateCtx(context.Background()) }

// StateCtx is State under a request context: rendering the snapshot may
// execute the current pattern, which honors ctx's cancellation and any
// exec.WithBudget parallelism override it carries. The result is the
// full render; servers paging large tables use StateWindowCtx instead.
func (s *Session) StateCtx(ctx context.Context) (State, error) {
	return s.StateWindowCtx(ctx, 0, -1)
}

// StateWindowCtx is StateCtx materializing only the [offset,
// offset+limit) row window of the presented result (limit < 0 = all
// rows from offset, limit 0 = metadata only). The window is served
// from the session's windowed presentation memo: only the requested
// rows are transformed, so the cost of a page does not scale with the
// table.
func (s *Session) StateWindowCtx(ctx context.Context, offset, limit int) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{Cursor: s.cursor, History: append([]Entry(nil), s.history...)}
	if s.cursor < 0 {
		return st, nil
	}
	st.Pattern = s.history[s.cursor].Pattern
	res, err := s.windowLocked(ctx, offset, limit)
	if err != nil {
		return State{}, err
	}
	st.Result = res
	return st, nil
}

// WindowCtx returns the [offset, offset+limit) row window of the
// current presented result (limit < 0 = all rows from offset). See
// StateWindowCtx for the cost model.
func (s *Session) WindowCtx(ctx context.Context, offset, limit int) (*etable.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windowLocked(ctx, offset, limit)
}

func (s *Session) push(op ops.Op, action string, p *etable.Pattern, sort *etable.SortSpec, hidden map[string]bool) {
	// A new action truncates any reverted-away suffix, like an editor's
	// redo stack.
	s.history = append(s.history[:s.cursor+1], Entry{
		Op: op, Action: action, Pattern: p, Sort: sort, Hidden: hidden,
	})
	s.cursor = len(s.history) - 1
}

func (s *Session) current() (Entry, error) {
	if s.cursor < 0 {
		return Entry{}, fmt.Errorf("session: no table is open")
	}
	return s.history[s.cursor], nil
}

// Apply validates, compiles, and executes one declarative operation.
// Validation failures return an *ops.Error with code invalid_op before
// any session state is touched; state-dependent failures (no open table,
// unknown column, …) return code op_failed and leave the session
// unchanged.
func (s *Session) Apply(op ops.Op) error { return s.ApplyCtx(context.Background(), op) }

// ApplyCtx is Apply under a request context: ops that execute the
// pattern (pivot, seeall, sort, …) honor ctx's cancellation and any
// exec.WithBudget parallelism override it carries. A canceled ctx
// leaves the session unchanged.
func (s *Session) ApplyCtx(ctx context.Context, op ops.Op) error {
	c, err := op.Compile(s.schema)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Enforce the "canceled ctx leaves the session unchanged" contract
	// for every op, not only those that execute the pattern: a request
	// whose client vanished while queued on the session lock must not
	// mutate history it will never report back.
	if err := ctxErr(ctx); err != nil {
		return ops.Failed(err, -1)
	}
	if err := s.applyLocked(ctx, c); err != nil {
		return ops.Failed(err, -1)
	}
	return nil
}

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ApplyPipeline executes a batch of operations atomically: the whole
// pipeline is compiled up front, and if any op fails to apply, the
// session is restored to its pre-batch state and the returned *ops.Error
// carries the index of the offending op.
func (s *Session) ApplyPipeline(p ops.Pipeline) error {
	return s.ApplyPipelineCtx(context.Background(), p)
}

// ApplyPipelineCtx is ApplyPipeline under a request context; a
// cancellation mid-batch rolls the session back like any other failure.
func (s *Session) ApplyPipelineCtx(ctx context.Context, p ops.Pipeline) error {
	compiled, err := p.Compile(s.schema)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// push appends into history[:cursor+1], which can overwrite entries
	// of the shared backing array past the cursor — the rollback
	// snapshot must be a full copy.
	savedHistory := append([]Entry(nil), s.history...)
	savedCursor := s.cursor
	for i, c := range compiled {
		if err := ctxErr(ctx); err != nil {
			s.history, s.cursor = savedHistory, savedCursor
			return ops.Failed(err, i)
		}
		if err := s.applyLocked(ctx, c); err != nil {
			s.history, s.cursor = savedHistory, savedCursor
			return ops.Failed(err, i)
		}
	}
	return nil
}

// applyLocked executes one compiled op with s.mu held. It is the single
// implementation of every session mutation; the imperative methods and
// the replay path all funnel through it.
func (s *Session) applyLocked(ctx context.Context, c ops.Compiled) error {
	op := c.Op
	switch op.Op {
	case ops.KindOpen:
		p, err := etable.Initiate(s.schema, op.Table)
		if err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("Open '%s' table", op.Table), p, nil, nil)

	case ops.KindFilter:
		cur, err := s.current()
		if err != nil {
			return err
		}
		p, err := etable.SelectExpr(cur.Pattern, c.Cond, op.Cond)
		if err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("Filter '%s' table by (%s)", p.Primary, op.Cond),
			p, cur.Sort, cur.Hidden)

	case ops.KindFilterByNeighbor:
		// "filter rows by the labels of the neighbor nodes columns
		// (e.g., authors' names), which is translated into subqueries"
		// (§6.1): the neighbor type joins into the pattern with the
		// condition attached; the primary node is unchanged.
		cur, err := s.current()
		if err != nil {
			return err
		}
		cols, err := s.visibleColumnsLocked(ctx)
		if err != nil {
			return err
		}
		ci := findColumn(cols, op.Column)
		if ci < 0 {
			return fmt.Errorf("session: no column %q", op.Column)
		}
		col := cols[ci]
		if col.Kind != etable.ColNeighbor {
			return fmt.Errorf("session: column %q is not a neighbor column", op.Column)
		}
		p, newKey, err := etable.AddBetween(s.schema, cur.Pattern, cur.Pattern.Primary, col.EdgeType)
		if err != nil {
			return err
		}
		if p, err = etable.SelectNodeExpr(p, newKey, c.Cond, op.Cond); err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("Filter '%s' table by (%s: %s)", p.Primary, op.Column, op.Cond),
			p, cur.Sort, cur.Hidden)

	case ops.KindPivot:
		// Add for neighbor columns, Shift for participating columns.
		cur, err := s.current()
		if err != nil {
			return err
		}
		cols, err := s.visibleColumnsLocked(ctx)
		if err != nil {
			return err
		}
		ci := findColumn(cols, op.Column)
		if ci < 0 {
			return fmt.Errorf("session: no column %q", op.Column)
		}
		col := cols[ci]
		var p *etable.Pattern
		switch col.Kind {
		case etable.ColNeighbor:
			p, err = etable.Add(s.schema, cur.Pattern, col.EdgeType)
		case etable.ColParticipating:
			p, err = etable.Shift(cur.Pattern, col.NodeKey)
		default:
			return fmt.Errorf("session: cannot pivot on base attribute %q", op.Column)
		}
		if err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("Pivot to '%s'", op.Column), p, nil, nil)

	case ops.KindSingle:
		// Initiate the clicked node's type, then Select it by key.
		n := s.graph.Node(tgm.NodeID(*op.Node))
		if n == nil {
			return fmt.Errorf("session: no node %d", *op.Node)
		}
		p, err := etable.Initiate(s.schema, n.Type.Name)
		if err != nil {
			return err
		}
		cond, condSrc := keyCondition(n)
		if p, err = etable.SelectExpr(p, cond, condSrc); err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("See '%s' (%s)", n.Label(), n.Type.Name), p, nil, nil)

	case ops.KindSeeall:
		// Select the clicked row's node, then Add (neighbor column) or
		// Shift (participating column).
		cur, err := s.current()
		if err != nil {
			return err
		}
		n := s.graph.Node(tgm.NodeID(*op.Node))
		if n == nil {
			return fmt.Errorf("session: no node %d", *op.Node)
		}
		if n.Type.Name != cur.Pattern.PrimaryNode().Type {
			return fmt.Errorf("session: node %q is not of the primary type %q",
				n.Label(), cur.Pattern.PrimaryNode().Type)
		}
		cols, err := s.visibleColumnsLocked(ctx)
		if err != nil {
			return err
		}
		ci := findColumn(cols, op.Column)
		if ci < 0 {
			return fmt.Errorf("session: no column %q", op.Column)
		}
		col := cols[ci]
		cond, condSrc := keyCondition(n)
		p, err := etable.SelectExpr(cur.Pattern, cond, condSrc)
		if err != nil {
			return err
		}
		switch col.Kind {
		case etable.ColNeighbor:
			p, err = etable.Add(s.schema, p, col.EdgeType)
		case etable.ColParticipating:
			p, err = etable.Shift(p, col.NodeKey)
		default:
			return fmt.Errorf("session: cannot see-all on base attribute %q", op.Column)
		}
		if err != nil {
			return err
		}
		s.push(op, fmt.Sprintf("See all '%s' of '%s'", op.Column, n.Label()), p, nil, nil)

	case ops.KindSort:
		// The spec is validated without materializing rows: against the
		// visible columns (a hidden column is not a sort target) AND
		// against the presentation that will execute the sort, so an
		// accepted op can never fail resolution on a later page read.
		cur, err := s.current()
		if err != nil {
			return err
		}
		pe, err := s.presentationLocked(ctx, cur)
		if err != nil {
			return err
		}
		spec := etable.SortSpec{Attr: op.Attr, Column: op.Column, Desc: op.Desc}
		// One resolver: the presentation that will execute the sort.
		// Visibility is a separate, trivial rule — hidden columns are
		// not sort targets (base column names equal their attr names).
		if err := pe.base.ValidateSort(spec); err != nil {
			return err
		}
		if name := cmp.Or(spec.Attr, spec.Column); cur.Hidden[name] {
			return fmt.Errorf("session: cannot sort by hidden column %q", name)
		}
		what := spec.Attr
		if what == "" {
			what = "# of " + spec.Column
		}
		dir := "asc"
		if spec.Desc {
			dir = "desc"
		}
		s.push(op, fmt.Sprintf("Sort table by %s (%s)", what, dir), cur.Pattern, &spec, cur.Hidden)

	case ops.KindHide:
		cur, err := s.current()
		if err != nil {
			return err
		}
		cols, err := s.visibleColumnsLocked(ctx)
		if err != nil {
			return err
		}
		if findColumn(cols, op.Column) < 0 {
			return fmt.Errorf("session: no column %q", op.Column)
		}
		hidden := map[string]bool{op.Column: true}
		for k := range cur.Hidden {
			hidden[k] = true
		}
		s.push(op, fmt.Sprintf("Hide column '%s'", op.Column), cur.Pattern, cur.Sort, hidden)

	case ops.KindShow:
		cur, err := s.current()
		if err != nil {
			return err
		}
		if !cur.Hidden[op.Column] {
			return fmt.Errorf("session: column %q is not hidden", op.Column)
		}
		hidden := map[string]bool{}
		for k := range cur.Hidden {
			if k != op.Column {
				hidden[k] = true
			}
		}
		s.push(op, fmt.Sprintf("Show column '%s'", op.Column), cur.Pattern, cur.Sort, hidden)

	case ops.KindRevert:
		if op.Index < 0 || op.Index >= len(s.history) {
			return fmt.Errorf("session: no history entry %d", op.Index)
		}
		s.cursor = op.Index

	default:
		return fmt.Errorf("session: unknown op kind %q", op.Op)
	}
	return nil
}

// keyCondition builds the "this exact node" condition used by Single and
// Seeall: key attribute = node's key value.
func keyCondition(n *tgm.Node) (expr.Expr, string) {
	nt := n.Type
	keyVal := n.Attr(nt.Key)
	cond := expr.Cmp{Op: expr.OpEq, Left: expr.Col{Name: nt.Key}, Right: expr.Const{Val: keyVal}}
	return cond, fmt.Sprintf("%s = %s", nt.Key, keyVal.SQL())
}

// The imperative methods below are thin wrappers over Apply — the op
// algebra is the single source of truth for every session mutation.

// Open starts a new ETable from a node type (user action 1; Fig 7 U1).
func (s *Session) Open(typeName string) error { return s.Apply(ops.Open(typeName)) }

// Filter applies a selection condition to the current primary node type
// (user action 2; Fig 7 U3).
func (s *Session) Filter(condSrc string) error { return s.Apply(ops.Filter(condSrc)) }

// FilterByNeighbor filters rows by a condition on one of the primary
// type's neighbor node columns (§6.1).
func (s *Session) FilterByNeighbor(columnName, condSrc string) error {
	return s.Apply(ops.FilterByNeighbor(columnName, condSrc))
}

// Pivot changes the primary node type through a column (user action 3;
// Fig 7 U4).
func (s *Session) Pivot(columnName string) error { return s.Apply(ops.Pivot(columnName)) }

// Single opens a one-row ETable for a clicked entity reference (user
// action 4).
func (s *Session) Single(id tgm.NodeID) error { return s.Apply(ops.Single(int64(id))) }

// Seeall lists the complete set of entity references of one cell (user
// action 5).
func (s *Session) Seeall(id tgm.NodeID, columnName string) error {
	return s.Apply(ops.Seeall(int64(id), columnName))
}

// SortBy orders the current table by a base attribute or by the
// reference count of an entity-reference column (§6.1 additional
// action).
func (s *Session) SortBy(spec etable.SortSpec) error {
	return s.Apply(ops.Op{Op: ops.KindSort, Attr: spec.Attr, Column: spec.Column, Desc: spec.Desc})
}

// HideColumn removes a column from the presentation (§6.1).
func (s *Session) HideColumn(name string) error { return s.Apply(ops.Hide(name)) }

// ShowColumn re-adds a hidden column.
func (s *Session) ShowColumn(name string) error { return s.Apply(ops.Show(name)) }

// Revert moves the current state to history entry i (the history view's
// "revert to a previous state").
func (s *Session) Revert(i int) error { return s.Apply(ops.Revert(i)) }

// Log is a session serialized as its replayable operation log: the op of
// every history entry in order, plus the cursor position. Replaying a
// log on a fresh session over the same graph reproduces identical state,
// which is what makes sessions persistable across server eviction.
type Log struct {
	Ops    []ops.Op `json:"ops"`
	Cursor int      `json:"cursor"`
}

// Export snapshots the session as a replayable operation log.
func (s *Session) Export() Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := Log{Cursor: s.cursor, Ops: make([]ops.Op, len(s.history))}
	for i := range s.history {
		log.Ops[i] = s.history[i].Op
	}
	return log
}

// Entries returns a copy of the history and the cursor under one lock
// acquisition (unlike History+Cursor, which could interleave with a
// concurrent action).
func (s *Session) Entries() ([]Entry, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Entry(nil), s.history...), s.cursor
}

// Replay resets the session and re-executes an exported operation log.
// The whole log is compiled up front; if any op fails to apply, the
// session's previous state is restored and the returned *ops.Error
// carries the offending op's index. On success the history, cursor, and
// presented state are identical to the session the log was exported
// from.
func (s *Session) Replay(log Log) error { return s.ReplayCtx(context.Background(), log) }

// ReplayCtx is Replay under a request context; cancellation mid-replay
// restores the previous state.
func (s *Session) ReplayCtx(ctx context.Context, log Log) error {
	compiled, err := ops.Pipeline(log.Ops).Compile(s.schema)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	savedHistory, savedCursor := s.history, s.cursor
	restore := func() { s.history, s.cursor = savedHistory, savedCursor }
	// Starting from nil history, pushes allocate a fresh backing array,
	// so the saved slice cannot be clobbered.
	s.history, s.cursor = nil, -1
	for i, c := range compiled {
		if err := ctxErr(ctx); err != nil {
			restore()
			return ops.Failed(err, i)
		}
		if err := s.applyLocked(ctx, c); err != nil {
			restore()
			return ops.Failed(err, i)
		}
	}
	if len(s.history) == 0 {
		if log.Cursor != -1 {
			restore()
			return ops.Failed(fmt.Errorf("session: replay cursor %d with empty history", log.Cursor), -1)
		}
		return nil
	}
	if log.Cursor < 0 || log.Cursor >= len(s.history) {
		restore()
		return ops.Failed(fmt.Errorf("session: replay cursor %d outside history of %d", log.Cursor, len(s.history)), -1)
	}
	s.cursor = log.Cursor
	return nil
}

// presentationKey identifies a prepared presentation: the pattern
// alone (String covers nodes, conditions, primary, and edges).
// Neither sort nor hiding is part of the key — a Presentation's
// prepared state (distinct rows, groupings, column layout) is
// independent of both. Sort variants are memoized per entry as
// SortedView row orders over the one shared base (presEntry.variant),
// and hideColumns applies per materialized window; both differentiate
// windows via winKey. The result: one Prepare and one set of groupings
// per pattern across every sort/hide combination a session toggles
// through.
func presentationKey(e Entry) string {
	return e.Pattern.String()
}

// sortKey canonicalizes a sort spec for the sorted-view and window
// memo keys.
func sortKey(sp *etable.SortSpec) string {
	if sp == nil {
		return ""
	}
	return fmt.Sprintf("%s\x01%s\x01%v", sp.Attr, sp.Column, sp.Desc)
}

// hiddenKey canonicalizes a hidden-column set for the window memo key.
func hiddenKey(hidden map[string]bool) string {
	if len(hidden) == 0 {
		return ""
	}
	names := make([]string, 0, len(hidden))
	for k := range hidden {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, "\x01")
}

// Result executes the current pattern and applies the presentation state
// (sort, hidden columns), returning the full render. Identical
// presentation states are served from the session's memo without
// re-sorting or re-transforming; paged readers should prefer WindowCtx.
func (s *Session) Result() (*etable.Result, error) {
	return s.ResultCtx(context.Background())
}

// ResultCtx is Result under a request context (cancellation and
// parallelism budget; see StateCtx).
func (s *Session) ResultCtx(ctx context.Context) (*etable.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(ctx)
}

// resultLocked is the full render with s.mu held: the all-rows window.
func (s *Session) resultLocked(ctx context.Context) (*etable.Result, error) {
	return s.windowLocked(ctx, 0, -1)
}

// presentationLocked returns the memoized presentation for the current
// entry, preparing it on first use. Caller holds s.mu.
func (s *Session) presentationLocked(ctx context.Context, cur Entry) (*presEntry, error) {
	key := presentationKey(cur)
	if pe, ok := s.memo[key]; ok {
		return pe, nil
	}
	pres, err := s.exec.PrepareWithOpts(cur.Pattern, s.execOptions(ctx))
	if err != nil {
		return nil, err
	}
	pe := &presEntry{base: pres,
		sorted:  make(map[string]*etable.Presentation),
		windows: make(map[winKey]*etable.Result)}
	if len(s.memoOrder) >= memoEntries {
		evict := s.memoOrder[0]
		s.discard(s.memo[evict])
		delete(s.memo, evict)
		s.memoOrder = s.memoOrder[1:]
	}
	s.memo[key] = pe
	s.memoOrder = append(s.memoOrder, key)
	return pe, nil
}

// windowLocked materializes (or re-reads) one row window of the current
// presentation, with hidden columns applied. Caller holds s.mu.
func (s *Session) windowLocked(ctx context.Context, offset, limit int) (*etable.Result, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	pe, err := s.presentationLocked(ctx, cur)
	if err != nil {
		return nil, err
	}
	pres, err := pe.variant(cur)
	if err != nil {
		return nil, err
	}
	// The max-rows guard, window side: the match itself passed (or was
	// computed under) the cap, but an unbounded read of a huge table
	// would still materialize result-sized cells — reject it before
	// transforming anything. Computed from the prepared presentation's
	// row count, so the check is O(1).
	if s.maxRows > 0 {
		eff := pres.NumRows() - offset
		if eff < 0 {
			eff = 0
		}
		if limit >= 0 && limit < eff {
			eff = limit
		}
		if eff > s.maxRows {
			return nil, graphrel.LimitExceeded(s.maxRows, eff)
		}
	}
	wkey := winKey{offset: offset, limit: limit,
		hidden: hiddenKey(cur.Hidden), sort: sortKey(cur.Sort)}
	if res, ok := pe.windows[wkey]; ok {
		return res, nil
	}
	res, err := pres.WindowOpts(offset, limit, s.execOptions(ctx))
	if err != nil {
		return nil, err
	}
	if len(cur.Hidden) > 0 {
		res = hideColumns(res, cur.Hidden)
	}
	if !(offset == 0 && limit < 0) && len(res.Rows) > windowMemoRowCap {
		return res, nil // oversized partial window: serve, don't retain
	}
	if len(pe.winOrder) >= windowMemoEntries {
		if s.recycleWindows {
			// The evicted window's arenas feed the next materialization.
			// Sole ownership holds under the recycling contract: any
			// Result handed out by an earlier call is dead by now.
			pe.windows[pe.winOrder[0]].Recycle()
		}
		delete(pe.windows, pe.winOrder[0])
		pe.winOrder = pe.winOrder[1:]
	}
	pe.windows[wkey] = res
	pe.winOrder = append(pe.winOrder, wkey)
	return res, nil
}

// visibleColumnsLocked returns the current entry's presented column
// layout (hidden columns removed) without materializing any rows —
// what ops that only need to resolve a column (pivot, seeall, sort,
// hide) read instead of rendering the table. Caller holds s.mu.
func (s *Session) visibleColumnsLocked(ctx context.Context) ([]etable.Column, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	pe, err := s.presentationLocked(ctx, cur)
	if err != nil {
		return nil, err
	}
	return visibleColumns(pe.base.Columns(), cur.Hidden), nil
}

// visibleColumns filters hidden columns out of a column layout.
func visibleColumns(cols []etable.Column, hidden map[string]bool) []etable.Column {
	if len(hidden) == 0 {
		return cols
	}
	out := make([]etable.Column, 0, len(cols))
	for _, c := range cols {
		if !hidden[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// findColumn returns the ordinal of the named column, or -1.
func findColumn(cols []etable.Column, name string) int {
	for i := range cols {
		if cols[i].Name == name {
			return i
		}
	}
	return -1
}

func hideColumns(res *etable.Result, hidden map[string]bool) *etable.Result {
	out := *res
	out.Columns = nil
	keep := make([]int, 0, len(res.Columns))
	for i, c := range res.Columns {
		if !hidden[c.Name] {
			out.Columns = append(out.Columns, c)
			keep = append(keep, i)
		}
	}
	out.Rows = make([]etable.Row, len(res.Rows))
	for ri, row := range res.Rows {
		nr := row
		nr.Cells = make([]etable.Cell, len(keep))
		for i, ci := range keep {
			nr.Cells[i] = row.Cells[ci]
		}
		out.Rows[ri] = nr
	}
	return &out
}

// Close empties the presentation memo, releasing every spill file it
// holds. History is untouched, so a later read still works: it
// re-prepares what it needs (a request racing the server's eviction of
// this session reads its own fresh presentation; a spilled one's
// anonymous run files are reclaimed by the descriptors' finalizers).
// Servers must Close a session when evicting it; Close is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pe := range s.memo {
		s.discard(pe)
	}
	clear(s.memo)
	s.memoOrder = nil
}

// EntityTypes lists the node types shown in the default table list:
// entity types first, then attribute node types.
func (s *Session) EntityTypes() []*tgm.NodeType {
	var ents, attrs []*tgm.NodeType
	for _, nt := range s.schema.NodeTypes() {
		if nt.Kind == tgm.NodeEntity {
			ents = append(ents, nt)
		} else {
			attrs = append(attrs, nt)
		}
	}
	return append(ents, attrs...)
}

// LookupValue finds a base attribute value in the current result by row
// label, a convenience for task scripting and tests.
func (s *Session) LookupValue(rowLabel, attr string) (value.V, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.resultLocked(context.Background())
	if err != nil {
		return value.Null, err
	}
	ci := -1
	for i := range res.Columns {
		if res.Columns[i].Kind == etable.ColBase && res.Columns[i].Attr == attr {
			ci = i
			break
		}
	}
	if ci < 0 {
		return value.Null, fmt.Errorf("session: no base attribute %q", attr)
	}
	for _, row := range res.Rows {
		if row.Label == rowLabel {
			return row.Cells[ci].Value, nil
		}
	}
	return value.Null, fmt.Errorf("session: no row labeled %q", rowLabel)
}
