package etable

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// This file is the presentation pipeline: the format transformation of
// §5.4.2 rebuilt as a prepared, windowed, morsel-parallel kernel.
//
// The transformation has two phases with very different costs:
//
//   - Prepare computes everything that depends on the whole matched
//     relation — the distinct primary rows, the column layout, and the
//     per-column neighbor groupings — but materializes no cells.
//   - Window materializes any [offset, offset+limit) row range of the
//     presentation. Row materialization partitions cleanly by row
//     range, so Window fans transformRange out over the shared worker
//     pool with the same disjoint-window splice discipline as the
//     matching kernels (graphrel.Select): every range writes only
//     its own rows and its own cell-arena window, no locks.
//
// Splitting the phases is what makes paging cheap: a session prepares
// a Presentation once, then each page fetch pays only for the rows it
// returns — O(window), not O(table). A Presentation owns everything its
// windows read; the matched relation is an input of Prepare and is not
// referenced afterwards.
//
// Allocation discipline: all cells of a window share one backing
// array, each range's entity references are carved from one per-range
// arena, empty reference lists share a single package-level slice, and
// non-string labels are interned per range so N references to one node
// share one rendered string.

// Presentation is a prepared format transformation over one matched
// relation: the canonical row order, the column layout, and the
// per-column groupings, ready to materialize any row window.
//
// The zero value is unusable; build one with Prepare/PrepareOpts (or
// Executor.PrepareWithOpts, which takes the matched relation from the
// shared cache). Sort reorders rows without materializing cells.
// A Presentation is safe for concurrent Window calls once built, but
// Sort must not race Window.
type Presentation struct {
	g         *tgm.InstanceGraph
	pattern   *Pattern
	primType  *tgm.NodeType
	columns   []Column
	rowIDs    []tgm.NodeID // current row order; ID-ascending until Sort
	parts     []partCol
	neighbors []neighborCol
	// labelTypes names every node type whose label a window can render
	// (the primary type plus all reference-column target types); it is
	// the exact set of label columns a window must pin on an
	// out-of-core graph.
	labelTypes []string
	// view caches the resolved columns for memory-resident graphs, set
	// once at Prepare so windows pay no column resolution at all. For
	// out-of-core graphs it stays nil and every window pins its own
	// view (see pinColumns), keeping steady-state residency bounded by
	// the pager budget instead of by presentation lifetime.
	view *colView
	// closers are the spilled groupings whose run files Close releases,
	// when the streamed prepare overflowed its spill threshold; nil on
	// the heap path.
	closers []*graphrel.SpilledGroups
	// closeOnce is shared by every SortedView of one prepare, so the
	// spill files behind a family of views release exactly once no
	// matter which copy is closed. nil when nothing spilled.
	closeOnce *sync.Once
}

// Close releases any spill-backed state behind the presentation (the
// run files of the external group folds). Idempotent, shared across
// SortedViews, and a no-op for heap-resident presentations. Windows
// already materialized stay valid; new Window calls after Close fail on
// their first fault.
func (pr *Presentation) Close() error {
	if pr.closeOnce == nil {
		return nil
	}
	var err error
	pr.closeOnce.Do(func() {
		for _, c := range pr.closers {
			if e := c.Close(); e != nil && err == nil {
				err = e
			}
		}
	})
	return err
}

// colView is the set of resolved attribute columns one window reads:
// the primary type's base columns (indexed [attr][row]) and the label
// column of every type the window's entity references can point at.
type colView struct {
	base   [][]value.V
	labels map[string][]value.V
}

// pinColumns resolves (and, on out-of-core graphs, pins) every column a
// window materialization reads. The release must be called exactly once
// after the window's rows are written; on memory-resident graphs both
// the pins and the release are no-ops and the cached Prepare-time view
// is returned. A column fault failure — e.g. a *snapshot.CorruptError
// on a damaged section — aborts the window before any row is rendered.
func (pr *Presentation) pinColumns() (*colView, func(), error) {
	if pr.view != nil {
		return pr.view, func() {}, nil
	}
	g := pr.g
	view := &colView{
		base:   make([][]value.V, len(pr.primType.Attrs)),
		labels: make(map[string][]value.V, len(pr.labelTypes)),
	}
	var releases []func()
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
	}
	for ai := range pr.primType.Attrs {
		col, rel, err := g.PinAttrColumn(pr.primType.Name, ai)
		if err != nil {
			releaseAll()
			return nil, nil, err
		}
		releases = append(releases, rel)
		view.base[ai] = col
	}
	view.labels[pr.primType.Name] = view.base[pr.primType.LabelIndex()]
	for _, tn := range pr.labelTypes {
		if _, ok := view.labels[tn]; ok {
			continue
		}
		nt := g.Schema().NodeType(tn)
		col, rel, err := g.PinAttrColumn(tn, nt.LabelIndex())
		if err != nil {
			releaseAll()
			return nil, nil, err
		}
		releases = append(releases, rel)
		view.labels[tn] = col
	}
	return view, releaseAll, nil
}

// groupSource is a participating column's row → related-nodes
// grouping, abstracted over residency: *graphrel.Groups (CSR arrays on
// the heap) for in-memory prepares, *graphrel.SpilledGroups (a
// directory over a values file) when the prepare overflowed to disk.
// Count is IO-free on both forms — it is what the sort key and the
// window's arena-sizing pass read — while Refs may fault runs back in
// and can therefore fail with a typed error.
type groupSource interface {
	Count(id tgm.NodeID) int
	Refs(id tgm.NodeID) ([]tgm.NodeID, error)
}

// partCol is one participating node column (A_t) with its precomputed
// row → related-nodes grouping.
type partCol struct {
	col int
	src groupSource
}

// neighborCol is one neighbor node column (A_h): references are read
// straight off the instance graph's adjacency at materialization time,
// through a handle resolved once at prepare. The handle loads nothing
// until a sort or a window first calls Ensure, so preparing over an
// out-of-core graph faults no adjacency in.
type neighborCol struct {
	col int
	adj tgm.Adjacency
}

// ensureNeighbors materializes the adjacency behind every neighbor
// column, returning a deferred load's typed error instead of letting a
// failed load read as "no neighbors".
func (pr *Presentation) ensureNeighbors() error {
	for _, nc := range pr.neighbors {
		if err := nc.adj.Ensure(); err != nil {
			return err
		}
	}
	return nil
}

// Prepare builds the presentation over a matched relation serially.
// See PrepareOpts.
func Prepare(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation) (*Presentation, error) {
	return PrepareOpts(g, p, matched, ExecOptions{})
}

// PrepareOpts builds the presentation: rows are the distinct primary
// nodes of the matched relation ordered ascending by ID (the canonical
// order — independent of the join plan), columns are the base
// attributes A_b, participating node columns A_t, and neighbor node
// columns A_h of §5.4.2. It is the one Prepare kernel: a streamed match
// is drained and prepared here too (PrepareFromSource), so the rows and
// the per-column groupings (the bulk Π_type σ_{τa=r}(m(Q)) evaluation,
// graphrel.GroupNeighbors) have a single heap implementation.
func PrepareOpts(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation, opt ExecOptions) (*Presentation, error) {
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	prim := p.PrimaryNode()
	if prim == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(prim.Type)}

	// Rows: Π_τa of the matched relation, canonically ordered.
	var err error
	if pr.rowIDs, err = graphrel.DistinctSorted(matched, prim.Key); err != nil {
		return nil, err
	}

	// One grouping per participating node, keyed by the rows just
	// computed. GroupNeighbors returns each group ID-ascending by
	// contract, so the cell order is canonical regardless of join order.
	parts := make([]groupSource, 0, len(p.Nodes)-1)
	for _, n := range p.Nodes {
		if n.Key == prim.Key {
			continue
		}
		groups, err := graphrel.GroupNeighbors(opt.Ctx, matched, pr.rowIDs, prim.Key, n.Key)
		if err != nil {
			return nil, err
		}
		parts = append(parts, groups)
	}
	if err := pr.layoutColumns(p, parts); err != nil {
		return nil, err
	}
	return pr, nil
}

// layoutColumns lays out the columns of §5.4.2 — base attributes A_b,
// participating node columns A_t, neighbor node columns A_h — and
// finishes the prepare. parts holds the grouping of every pattern node
// except the primary, in pattern order; the heap prepare (PrepareOpts)
// and the spilled one (prepareSpilled) both end here, so the layout
// cannot differ between residencies.
func (pr *Presentation) layoutColumns(p *Pattern, parts []groupSource) error {
	schema := pr.g.Schema()
	for _, a := range pr.primType.Attrs {
		pr.columns = append(pr.columns, Column{Kind: ColBase, Name: a.Name, Attr: a.Name})
	}

	primEdges := primaryEdgeTypes(p, schema)
	for _, n := range p.Nodes {
		if n.Key == p.Primary {
			continue
		}
		pr.columns = append(pr.columns, Column{
			Kind: ColParticipating, Name: n.Key, NodeKey: n.Key,
			EdgeType: primEdges[n.Key], TargetType: n.Type,
		})
		pr.parts = append(pr.parts, partCol{col: len(pr.columns) - 1, src: parts[len(pr.parts)]})
	}

	// Neighbor columns are the schema out-edges of the primary type,
	// skipping edges already shown as participating columns directly
	// adjacent to the primary node (the paper notes the overlap).
	shown := map[string]bool{}
	for _, en := range primEdges {
		if en != "" {
			shown[en] = true
		}
	}
	for _, et := range schema.OutEdges(pr.primType.Name) {
		if shown[et.Name] {
			continue
		}
		pr.columns = append(pr.columns, Column{
			Kind: ColNeighbor, Name: et.Label, EdgeType: et.Name, TargetType: et.Target,
		})
		pr.neighbors = append(pr.neighbors, neighborCol{col: len(pr.columns) - 1, adj: pr.g.Adjacency(et.Name)})
	}
	return pr.finishPrepare()
}

// finishPrepare completes a presentation whose columns are laid out:
// it records which label columns windows will need and, on
// memory-resident graphs, resolves the whole column view now so the
// per-window hot path does no column lookups at all.
func (pr *Presentation) finishPrepare() error {
	seen := map[string]bool{pr.primType.Name: true}
	pr.labelTypes = append(pr.labelTypes, pr.primType.Name)
	for i := range pr.columns {
		c := &pr.columns[i]
		if (c.Kind == ColParticipating || c.Kind == ColNeighbor) && !seen[c.TargetType] {
			seen[c.TargetType] = true
			pr.labelTypes = append(pr.labelTypes, c.TargetType)
		}
	}
	if !pr.g.ColumnSourceAttached() {
		view, _, err := pr.pinColumns()
		if err != nil {
			return err
		}
		pr.view = view
	}
	return nil
}

// NumRows returns the full table's row count (no rows need be
// materialized to know it).
func (pr *Presentation) NumRows() int { return len(pr.rowIDs) }

// Columns returns the column layout. The returned slice must not be
// modified; materialized Results alias it.
func (pr *Presentation) Columns() []Column { return pr.columns }

// transformChunkRows is the row-range size Window fans out in; it
// matches the matching kernels' morsel size, so a window smaller than
// one morsel never pays fan-out overhead.
const transformChunkRows = graphrel.MorselRows

// Window materializes the [offset, offset+limit) row window serially.
// See WindowOpts.
func (pr *Presentation) Window(offset, limit int) (*Result, error) {
	return pr.WindowOpts(offset, limit, ExecOptions{})
}

// WindowOpts materializes one row window of the presentation. limit < 0
// means "all rows from offset"; limit 0 returns a row-less result that
// still carries the table metadata (columns, TotalRows). An offset past
// the end clamps to an empty window — paging past a table that shrank
// is not an error. The returned Result's TotalRows and Offset locate
// the window; Rows is row- and cell-identical to the same slice of a
// full render.
func (pr *Presentation) WindowOpts(offset, limit int, opt ExecOptions) (*Result, error) {
	return pr.window(offset, limit, opt, transformChunkRows)
}

// windowStore is one window's recyclable backing: the shared cell
// arena, the row headers, and the per-range entity-reference arenas.
// Stores circulate through windowStorePool so steady-state paging —
// the session's page-up/page-down loop — reuses the previous window's
// allocations instead of growing the heap on every fetch.
//
// Recycling is strictly opt-in (Result.Recycle) and sole-owner: a
// store returns to the pool only when the caller guarantees no
// reference to the Result, its Rows, or any Cell survives. Callers
// that never call Recycle get the pre-pooling behavior — the store is
// garbage collected with the Result.
type windowStore struct {
	cells []Cell
	rows  []Row
	refs  [][]EntityRef
	// recycled guards against double-Put: two Results can share one
	// store (session.hideColumns copies the struct), and returning a
	// store twice would hand the same arenas to two live windows.
	recycled atomic.Bool
}

var windowStorePool = sync.Pool{New: func() any { return new(windowStore) }}

// window is WindowOpts with an explicit fan-out chunk size, so tests
// can exercise the parallel path (including windows straddling a final
// partial chunk) on corpora far smaller than a real morsel.
func (pr *Presentation) window(offset, limit int, opt ExecOptions, chunk int) (*Result, error) {
	if offset < 0 {
		return nil, fmt.Errorf("etable: negative window offset %d", offset)
	}
	total := len(pr.rowIDs)
	start := offset
	if start > total {
		start = total
	}
	end := total
	if limit >= 0 && limit < total-start {
		end = start + limit
	}
	n := end - start
	res := &Result{
		Pattern: pr.pattern, PrimaryType: pr.primType, Columns: pr.columns,
		TotalRows: total, Offset: start,
	}
	if n == 0 {
		res.Rows = make([]Row, 0)
		return res, ctxErr(opt.Ctx)
	}
	ws := windowStorePool.Get().(*windowStore)
	ws.recycled.Store(false)
	if cap(ws.rows) < n {
		ws.rows = make([]Row, n)
	} else {
		ws.rows = ws.rows[:n]
	}
	// All cells of the window share one backing array; each range slices
	// its own disjoint piece (full-capacity sub-slices, so no append can
	// cross range boundaries).
	if need := n * len(pr.columns); cap(ws.cells) < need {
		ws.cells = make([]Cell, need)
	} else {
		ws.cells = ws.cells[:need]
	}
	res.Rows, res.store = ws.rows, ws
	cells := ws.cells
	// Pin the window's columns for the duration of materialization: on
	// an out-of-core graph this faults in exactly the columns the window
	// renders and guards them against eviction until every range has
	// been written; a corrupt section fails the whole window here with
	// its typed error before any row materializes.
	view, release, err := pr.pinColumns()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := pr.ensureNeighbors(); err != nil {
		return nil, err
	}
	if opt.Pool == nil || opt.Parallelism <= 1 || n <= chunk {
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, err
		}
		ws.ensureRanges(1)
		arena, err := pr.transformRange(view, start, end, start, res.Rows, cells, ws.refs[0])
		ws.refs[0] = arena
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	// Each range owns one recycled ref arena, indexed by range ordinal —
	// disjoint slots, so the parallel ranges write without locks.
	ws.ensureRanges((n + chunk - 1) / chunk)
	if err := opt.Pool.MapRanges(opt.Ctx, n, chunk, opt.Parallelism, func(lo, hi int) error {
		ri := lo / chunk
		arena, err := pr.transformRange(view, start+lo, start+hi, start, res.Rows, cells, ws.refs[ri])
		ws.refs[ri] = arena
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// ensureRanges sizes the per-range arena table, keeping already-grown
// arenas in their slots.
func (ws *windowStore) ensureRanges(n int) {
	if cap(ws.refs) < n {
		refs := make([][]EntityRef, n)
		copy(refs, ws.refs)
		ws.refs = refs
		return
	}
	ws.refs = ws.refs[:n]
}

// transformRange is the row-range transform kernel (§5.4.2 restricted
// to rows [lo, hi) of the presentation order): it writes rows into
// rows[lo-base:hi-base] and carves their cells from the shared arena.
// Ranges touch disjoint row and cell windows, so concurrent calls on
// distinct ranges need no synchronization — the same splice discipline
// as graphrel's morsel kernels.
//
// arena is the range's entity-reference backing, recycled across
// windows (windowStore): it is re-sliced to zero and grown only when
// the range needs more capacity than any previous occupant. The
// (possibly re-allocated) arena is returned for the caller to store.
// Every cell of the range is assigned whole — recycled arenas carry
// stale cells from earlier windows, and a partial field write would
// leak them.
//
// The (possibly re-allocated) arena is returned even on error so the
// caller can keep recycling it; a failed refs fault (a corrupt spill
// run, a closed file) aborts the range with its typed error.
func (pr *Presentation) transformRange(view *colView, lo, hi, base int, rows []Row, cells []Cell, arena []EntityRef) ([]EntityRef, error) {
	ncols := len(pr.columns)
	nattrs := len(pr.primType.Attrs)
	g := pr.g

	// Count the range's entity references first, then carve every cell's
	// Refs from one arena: at most one allocation per range, none once
	// the recycled arena has grown to the window working set. Counts are
	// IO-free on every groupSource form — only the refs reads below can
	// fault spilled runs.
	refTotal := 0
	for i := lo; i < hi; i++ {
		id := pr.rowIDs[i]
		for _, pc := range pr.parts {
			refTotal += pc.src.Count(id)
		}
		for _, nc := range pr.neighbors {
			refTotal += nc.adj.Degree(id)
		}
	}
	if cap(arena) < refTotal {
		arena = make([]EntityRef, 0, refTotal)
	} else {
		arena = arena[:0]
	}
	intern := labelInterner{}
	for i := lo; i < hi; i++ {
		id := pr.rowIDs[i]
		n := g.Node(id)
		row := int(n.Row)
		cs := cells[(i-base)*ncols : (i-base+1)*ncols : (i-base+1)*ncols]
		for ai := 0; ai < nattrs; ai++ {
			cs[ai] = Cell{Value: view.base[ai][row]}
		}
		for _, pc := range pr.parts {
			ids, err := pc.src.Refs(id)
			if err != nil {
				return arena, err
			}
			var refs []EntityRef
			arena, refs = appendRefs(arena, g, view, intern, ids)
			cs[pc.col] = Cell{Refs: refs}
		}
		for _, nc := range pr.neighbors {
			var refs []EntityRef
			arena, refs = appendRefs(arena, g, view, intern, nc.adj.Neighbors(id))
			cs[nc.col] = Cell{Refs: refs}
		}
		rows[i-base] = Row{Node: id, Label: intern.label(view, n), Cells: cs}
	}
	return arena, nil
}

// emptyRefs is the shared zero-length reference list: cells with no
// entity references all alias it instead of each allocating (or
// carving arena) — asserted zero-alloc by test.
var emptyRefs = make([]EntityRef, 0)

// appendRefs renders ids' entity references into the arena and returns
// the grown arena plus the full-capacity window just written. The
// arena must have been sized by the caller's counting pass, so appends
// never reallocate and earlier windows stay valid.
func appendRefs(arena []EntityRef, g *tgm.InstanceGraph, view *colView, intern labelInterner, ids []tgm.NodeID) ([]EntityRef, []EntityRef) {
	if len(ids) == 0 {
		return arena, emptyRefs
	}
	start := len(arena)
	for _, id := range ids {
		arena = append(arena, EntityRef{ID: id, Label: intern.label(view, g.Node(id))})
	}
	return arena, arena[start:len(arena):len(arena)]
}

// labelInterner dedups rendered node labels within one transform range:
// N references to one node share one string instead of re-rendering
// per ref. String-valued labels bypass the map entirely — Format
// returns the stored string without allocating, so interning them
// would only add map traffic; the map holds only labels that require
// rendering (ints, floats, bools).
type labelInterner map[tgm.NodeID]string

func (li labelInterner) label(view *colView, n *tgm.Node) string {
	v := view.labels[n.Type.Name][n.Row]
	if v.Kind() == value.KindString {
		return v.Format()
	}
	if s, ok := li[n.ID]; ok {
		return s
	}
	s := v.Format()
	li[n.ID] = s
	return s
}

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
