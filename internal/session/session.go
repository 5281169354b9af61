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
// execution state is NOT per-session — a pattern is prepared through
// an etable.Cache that may be shared across every session of a server
// (NewShared).
//
// Presentation is windowed: the session keeps a small LRU memo of
// prepared presentations (etable.Presentation — the reduced sets and
// column layout; no cells) plus, per presentation, an LRU memo of
// sorted views. A page fetch therefore costs O(window): the row order
// comes from the prepared presentation and only the requested rows'
// cells are computed. No window is memoized: ReadWindow hands its
// caller the current window — the sorted view, the visible column
// ordinals and the clamped row range — to read through an
// etable.Cursor under the session lock (the server encodes it straight
// to bytes), and WindowCtx materializes it as an *etable.Result, an
// ordinary value that stays valid after later calls, evictions and
// Close, for as long as the caller holds it. A presentation owns
// everything its windows read, so the session holds at most
// memoEntries prepared presentations and no match — reduced matches
// are held by the shared cache alone, under its LRU. Every
// memo is an lru.Cache, so a presentation the user keeps re-reading
// stays while newer ones come and go.
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
	"sync"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/lru"
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

// presEntry is one memoized presentation state: the prepared base
// presentation (canonical ID-ascending row order) and the bounded memo
// of sorted views over that base. Sort variants are etable.SortedView
// shallow copies — they share the base's columns, reduced sets, count
// vectors and neighbor layout and own only their row order — so
// switching sorts re-prepares nothing. Hidden columns are not part of
// the entry: a window reads only the visible columns' ordinals.
type presEntry struct {
	base   *etable.Presentation
	sorted *lru.Cache[string, *etable.Presentation]
}

// sortMemoEntries bounds the sorted views kept per presentation. A
// view is O(rows) row IDs (everything else is shared with the base),
// so the bound is about row-ID slices, not prepared state.
const sortMemoEntries = 8

// variant returns the presentation ordered per the entry's sort spec:
// the shared base when unsorted, otherwise a memoized SortedView over
// it (built on first use). All variants share one prepared
// presentation; only row order differs, so an evicted view needs no
// release.
func (pe *presEntry) variant(e Entry) (*etable.Presentation, error) {
	if e.Sort == nil {
		return pe.base, nil
	}
	return pe.sorted.Get(sortKey(e.Sort), func() (*etable.Presentation, error) {
		return pe.base.SortedView(*e.Sort)
	})
}

// Session is one user's interactive exploration state.
type Session struct {
	schema *tgm.SchemaGraph
	graph  *tgm.InstanceGraph
	// cache reuses intermediate match results (the paper's §9
	// future-work item 2): Sort, Hide, Shift, and Revert re-executions
	// hit it. It is shared across sessions when the session is built
	// with NewShared.
	cache *etable.Cache
	// maxRows is the widest window one request may read (0 =
	// unbounded): windowLocked rejects a wider one with
	// *graphrel.RowLimitError before reading a cell.
	maxRows int

	// mu serializes all state-changing actions and snapshot reads on
	// this session. Lock ordering: session.mu may be held while the
	// memos and the execution cache take their lru.Cache locks, never
	// the reverse.
	mu      sync.Mutex
	history []Entry
	cursor  int // index into history of the current state; -1 = empty

	// memo caches prepared presentations keyed by pattern alone
	// (sorting is a memoized view per entry, hiding picks the columns a
	// window reads).
	memo *lru.Cache[string, *presEntry]
}

// New starts an empty session over a TGDB with a private execution
// cache.
func New(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph) *Session {
	return NewShared(schema, graph, etable.NewCache(etable.DefaultCacheEntries))
}

// NewShared starts an empty session that prepares through a shared
// execution cache. All sessions sharing a cache must be over the
// same instance graph.
func NewShared(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph, cache *etable.Cache) *Session {
	return &Session{
		schema: schema,
		graph:  graph,
		cache:  cache,
		cursor: -1,
		memo:   lru.New[string, *presEntry](memoEntries),
	}
}

// NewWithExec is NewShared; pool and parallelism are ignored.
//
// Deprecated: every request runs on its caller's goroutine. Use
// NewShared. The function stays because the benchmark harness in
// cmd/etable-load still calls it.
func NewWithExec(schema *tgm.SchemaGraph, graph *tgm.InstanceGraph, cache *etable.Cache, pool *exec.Pool, parallelism int) *Session {
	return NewShared(schema, graph, cache)
}

// SetMaxRows sets the widest window one request on this session may
// read (0 = unbounded, the default): a wider window fails with a
// *graphrel.RowLimitError carrying its row count before any cell is
// read. A match is never refused for its size — a presentation holds
// its reduced sets whatever |m(Q)| is — so the cap guards only against
// an unbounded read of a huge table; paging within it is unaffected.
// Call before serving requests.
func (s *Session) SetMaxRows(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxRows = n
}

// SetWindowRecycling does nothing: every *etable.Result a session
// returns is a plain value that stays valid across later calls, and no
// window is memoized for it to recycle.
//
// Deprecated: window arenas are no longer recycled. The method stays
// because the benchmark harness in cmd/etable-load still calls it.
func (s *Session) SetWindowRecycling(bool) {}

// Schema returns the schema graph (the "default table list" of Figure 9
// is its entity node types).
func (s *Session) Schema() *tgm.SchemaGraph { return s.schema }

// Graph returns the instance graph.
func (s *Session) Graph() *tgm.InstanceGraph { return s.graph }

// Pattern returns the current query pattern, or nil before any Open.
func (s *Session) Pattern() *etable.Pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cursor < 0 {
		return nil
	}
	return s.history[s.cursor].Pattern
}

// WindowCtx returns the [offset, offset+limit) row window of the
// current presented result (limit < 0 = all rows from offset, limit 0 =
// metadata only), materialized. The window is read from the session's
// memoized presentation: only the requested rows are transformed, so
// the cost of a page does not scale with the table. ReadWindow reads
// the same window without materializing it.
func (s *Session) WindowCtx(ctx context.Context, offset, limit int) (*etable.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(ctx, offset, limit)
}

// Window is one row window of the current presentation state, described
// rather than materialized: the presentation in the state's sort order,
// the visible columns, and the row range [Lo, Hi) — already clamped to
// the table and checked against the session's row cap. Read its cells
// through Pres.Cursor(Lo, Hi, Visible).
type Window struct {
	Pres *etable.Presentation
	// Columns is the visible column layout, in order; Visible holds
	// their ordinals in Pres.Columns(), nil when no column is hidden.
	Columns []etable.Column
	Visible []int
	Lo, Hi  int
}

// ReadWindow calls read with the current state's [offset,
// offset+limit) row window (limit < 0 = all rows from offset) under the
// session lock, so the state cannot change while read runs. read must
// not call back into the session. The window's errors — no open table,
// a failed prepare or sort, the row cap, a done ctx — are returned
// without calling read.
func (s *Session) ReadWindow(ctx context.Context, offset, limit int, read func(Window) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.windowLocked(ctx, offset, limit)
	if err != nil {
		return err
	}
	return read(w)
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
// pattern (pivot, seeall, sort, …) honor ctx's cancellation. A canceled
// ctx leaves the session unchanged.
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
	savedHistory, savedCursor := append([]Entry(nil), s.history...), s.cursor
	return s.applyAllLocked(ctx, compiled, func() { s.history, s.cursor = savedHistory, savedCursor })
}

// applyAllLocked applies compiled ops in order with s.mu held. On the
// first op that fails, or finds ctx done, it calls restore and returns
// an *ops.Error carrying that op's index.
func (s *Session) applyAllLocked(ctx context.Context, compiled []ops.Compiled, restore func()) error {
	for i, c := range compiled {
		err := ctxErr(ctx)
		if err == nil {
			err = s.applyLocked(ctx, c)
		}
		if err != nil {
			restore()
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
		col, err := s.columnLocked(ctx, cur, op.Column)
		if err != nil {
			return err
		}
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
		col, err := s.columnLocked(ctx, cur, op.Column)
		if err != nil {
			return err
		}
		p, err := s.through(cur.Pattern, col, "pivot")
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
		col, err := s.columnLocked(ctx, cur, op.Column)
		if err != nil {
			return err
		}
		cond, condSrc := keyCondition(n)
		p, err := etable.SelectExpr(cur.Pattern, cond, condSrc)
		if err != nil {
			return err
		}
		if p, err = s.through(p, col, "see-all"); err != nil {
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

	case ops.KindHide, ops.KindShow:
		// Hide names a visible column, Show a hidden one; each edits a
		// copy of the hidden set, which history entries share.
		cur, err := s.current()
		if err != nil {
			return err
		}
		hide := op.Op == ops.KindHide
		if hide {
			if _, err := s.columnLocked(ctx, cur, op.Column); err != nil {
				return err
			}
		} else if !cur.Hidden[op.Column] {
			return fmt.Errorf("session: column %q is not hidden", op.Column)
		}
		hidden := make(map[string]bool, len(cur.Hidden)+1)
		for k := range cur.Hidden {
			if k != op.Column {
				hidden[k] = true
			}
		}
		verb := "Show"
		if hide {
			hidden[op.Column], verb = true, "Hide"
		}
		s.push(op, fmt.Sprintf("%s column '%s'", verb, op.Column), cur.Pattern, cur.Sort, hidden)

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

// through extends p through a visible column: Add for a neighbor
// column, Shift for a participating one (Pivot and Seeall). A base
// attribute leads nowhere; verb names the action in its error.
func (s *Session) through(p *etable.Pattern, col etable.Column, verb string) (*etable.Pattern, error) {
	switch col.Kind {
	case etable.ColNeighbor:
		return etable.Add(s.schema, p, col.EdgeType)
	case etable.ColParticipating:
		return etable.Shift(p, col.NodeKey)
	}
	return nil, fmt.Errorf("session: cannot %s on base attribute %q", verb, col.Name)
}

// keyCondition builds the "this exact node" condition used by Single and
// Seeall: key attribute = node's key value.
func keyCondition(n *tgm.Node) (expr.Expr, string) {
	nt := n.Type
	// The condition lives in the session's history and the cached
	// patterns: a clone keeps no evicted column's strings reachable.
	keyVal := n.Attr(nt.Key).Clone()
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

// Entries returns a copy of the history, oldest first, and the current
// entry's index (-1 when empty) under one lock, so no concurrent action
// lands between them or appends into the copy.
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
	if err := s.applyAllLocked(ctx, compiled, restore); err != nil {
		return err
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
// prepared state (reduced sets, column layout) is independent of both.
// Sort variants are memoized per entry as SortedView row orders over
// the one shared base (presEntry.variant), and hiding selects the
// column ordinals a window reads. The result: one Prepare per pattern
// across every sort/hide combination a session toggles through.
func presentationKey(e Entry) string {
	return e.Pattern.String()
}

// sortKey canonicalizes a sort spec for the sorted-view memo key.
func sortKey(sp *etable.SortSpec) string {
	if sp == nil {
		return ""
	}
	return fmt.Sprintf("%s\x01%s\x01%v", sp.Attr, sp.Column, sp.Desc)
}

// Result executes the current pattern and applies the presentation state
// (sort, hidden columns), returning the full render. Identical
// presentation states are served from the session's memo without
// re-preparing or re-sorting; paged readers should prefer WindowCtx.
func (s *Session) Result() (*etable.Result, error) {
	return s.WindowCtx(context.Background(), 0, -1)
}

// resultLocked materializes one row window of the current presentation
// with hidden columns left out. Caller holds s.mu.
func (s *Session) resultLocked(ctx context.Context, offset, limit int) (*etable.Result, error) {
	w, err := s.windowLocked(ctx, offset, limit)
	if err != nil {
		return nil, err
	}
	return w.Pres.WindowColumns(ctx, w.Lo, w.Hi-w.Lo, w.Visible)
}

// presentationLocked returns the memoized presentation for the current
// entry, preparing it on first use. Caller holds s.mu.
func (s *Session) presentationLocked(ctx context.Context, cur Entry) (*presEntry, error) {
	key := presentationKey(cur)
	if pe, ok := s.memo.Lookup(key); ok {
		return pe, nil
	}
	pres, err := s.cache.Prepare(ctx, s.graph, cur.Pattern)
	if err != nil {
		return nil, err
	}
	pe := &presEntry{base: pres, sorted: lru.New[string, *etable.Presentation](sortMemoEntries)}
	s.memo.Add(key, pe)
	return pe, nil
}

// windowLocked resolves one row window of the current presentation:
// its sort variant, visible columns and clamped row range. Caller holds
// s.mu.
func (s *Session) windowLocked(ctx context.Context, offset, limit int) (Window, error) {
	if offset < 0 {
		return Window{}, fmt.Errorf("session: negative window offset %d", offset)
	}
	cur, err := s.current()
	if err != nil {
		return Window{}, err
	}
	pe, err := s.presentationLocked(ctx, cur)
	if err != nil {
		return Window{}, err
	}
	pres, err := pe.variant(cur)
	if err != nil {
		return Window{}, err
	}
	w := Window{Pres: pres, Columns: pres.Columns()}
	w.Lo, w.Hi = pres.Bounds(offset, limit)
	// The max-rows guard: an unbounded read of a huge table would read
	// result-sized cells — reject it before reading anything. Computed
	// from the prepared presentation's row count, so the check is O(1).
	if n := w.Hi - w.Lo; s.maxRows > 0 && n > s.maxRows {
		return Window{}, graphrel.LimitExceeded(s.maxRows, n)
	}
	if len(cur.Hidden) > 0 {
		w.Columns = make([]etable.Column, 0, len(w.Columns))
		w.Visible = make([]int, 0, cap(w.Columns))
		for ci, c := range pres.Columns() {
			if !cur.Hidden[c.Name] {
				w.Columns, w.Visible = append(w.Columns, c), append(w.Visible, ci)
			}
		}
	}
	// A request whose client is gone reads nothing: a window can be up
	// to the row cap.
	if err := ctxErr(ctx); err != nil {
		return Window{}, err
	}
	return w, nil
}

// columnLocked resolves the visible column named name in cur's
// presentation without materializing any rows — what ops that only
// need to resolve a column (filter_neighbor, pivot, seeall, hide) read
// instead of rendering the table. Hiding is by name, so a hidden name
// resolves to nothing. Caller holds s.mu.
func (s *Session) columnLocked(ctx context.Context, cur Entry, name string) (etable.Column, error) {
	pe, err := s.presentationLocked(ctx, cur)
	if err != nil {
		return etable.Column{}, err
	}
	if !cur.Hidden[name] {
		for _, c := range pe.base.Columns() {
			if c.Name == name {
				return c, nil
			}
		}
	}
	return etable.Column{}, fmt.Errorf("session: no column %q", name)
}

// Close empties the presentation memo. History is untouched, so a
// later read still works: it re-prepares what it needs (a request
// racing the server's eviction of this session reads its own fresh
// presentation). Servers Close a session when evicting it; Close is
// idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memo.RemoveFunc(func(string, *presEntry) bool { return true })
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
	res, err := s.resultLocked(context.Background(), 0, -1)
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
