package etable

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// This file is the presentation pipeline: the format transformation of
// §5.4.2 rebuilt as a prepared, windowed kernel.
//
// The transformation has two phases with very different costs:
//
//   - Prepare computes everything that depends on the whole matched
//     relation — the distinct primary rows, the column layout, and the
//     per-column neighbor groupings — but materializes no cells.
//   - Window materializes any [offset, offset+limit) row range of the
//     presentation in one transformRange call on the caller's
//     goroutine. The serving path's windows are pages — at most 100
//     rows on every benchmark workload (PERFORMANCE.md §17) — so there
//     is no morsel to fan out.
//
// Splitting the phases is what makes paging cheap: a session prepares
// a Presentation once, then each page fetch pays only for the rows it
// returns — O(window), not O(table). A Presentation owns everything its
// windows read; the matched relation is an input of Prepare and is not
// referenced afterwards.
//
// Allocation discipline: all cells of a window share one backing
// array, its entity references are carved from one arena, empty
// reference lists share a single package-level slice, and non-string
// labels are interned per window so N references to one node share one
// rendered string (string labels are the stored strings themselves).
//
// Label reads: every reference column carries its target type's label
// column, bound to that type's ID layout when the view is resolved
// (labelCol). Where the type's node IDs are one contiguous run, a
// reference's label is vals[id-lo] — no node lookup, no map probe.

// Presentation is a prepared format transformation over one matched
// relation: the canonical row order, the column layout, and the
// per-column groupings, ready to materialize any row window.
//
// The zero value is unusable; build one with Prepare/PrepareOpts (or
// Executor.PrepareWithOpts, which takes the matched relation from the
// shared cache). A prepared Presentation is immutable: SortedView
// returns a reordered copy, so any number of goroutines may Window a
// presentation and its views concurrently.
type Presentation struct {
	g         *tgm.InstanceGraph
	pattern   *Pattern
	primType  *tgm.NodeType
	columns   []Column
	rowIDs    []tgm.NodeID // row order; ID-ascending unless reordered
	reordered bool         // a SortedView: rowIDs no longer match the groupings' keys
	parts     []partCol
	neighbors []neighborCol
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
// the primary type's base columns (indexed [attr][row]) and, per
// reference column, the label column of the column's target type (refs
// is indexed like the presentation's columns; base columns leave their
// slot zero).
type colView struct {
	base [][]value.V
	refs []labelCol
}

// labelCol is one reference column's label source: the label column of
// its target type, bound to how that type's node IDs map to rows. When
// the IDs are one contiguous run (tgm.InstanceGraph.TypeIDRange) the
// row is id-lo; otherwise it is the node's Row, read through the graph.
type labelCol struct {
	vals  []value.V
	g     *tgm.InstanceGraph
	lo    tgm.NodeID
	dense bool
}

func newLabelCol(g *tgm.InstanceGraph, typeName string, vals []value.V) labelCol {
	lo, _, dense := g.TypeIDRange(typeName)
	return labelCol{vals: vals, g: g, lo: lo, dense: dense}
}

// value returns the label value of node id, which must be of the
// column's target type.
func (lc *labelCol) value(id tgm.NodeID) value.V {
	if lc.dense {
		return lc.vals[id-lc.lo]
	}
	return lc.vals[lc.g.Node(id).Row]
}

// pinColumns resolves (and, on out-of-core graphs, pins) every column a
// window materialization reads: the primary type's base columns and the
// label column behind each reference column, pinned once per type. The
// release must be called exactly once after the window's rows are
// written; on memory-resident graphs both the pins and the release are
// no-ops and the cached Prepare-time view is returned. A column fault
// failure — e.g. a *snapshot.CorruptError on a damaged section — aborts
// the window before any row is rendered.
func (pr *Presentation) pinColumns() (*colView, func(), error) {
	if pr.view != nil {
		return pr.view, func() {}, nil
	}
	g := pr.g
	view := &colView{
		base: make([][]value.V, len(pr.primType.Attrs)),
		refs: make([]labelCol, len(pr.columns)),
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
	labels := map[string][]value.V{pr.primType.Name: view.base[pr.primType.LabelIndex()]}
	for ci := range pr.columns {
		if pr.columns[ci].Kind == ColBase {
			continue
		}
		tn := pr.columns[ci].TargetType
		col, ok := labels[tn]
		if !ok {
			var rel func()
			var err error
			col, rel, err = g.PinAttrColumn(tn, g.Schema().NodeType(tn).LabelIndex())
			if err != nil {
				releaseAll()
				return nil, nil, err
			}
			releases = append(releases, rel)
			labels[tn] = col
		}
		view.refs[ci] = newLabelCol(g, tn, col)
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
// is drained and prepared here too (prepareFromSource), so the rows and
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
// on memory-resident graphs it resolves the whole column view now, so
// the per-window hot path does no column lookups at all.
func (pr *Presentation) finishPrepare() error {
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

// Window materializes the [offset, offset+limit) row window. See
// WindowOpts.
func (pr *Presentation) Window(offset, limit int) (*Result, error) {
	return pr.WindowOpts(offset, limit, ExecOptions{})
}

// WindowOpts materializes one row window of the presentation. limit < 0
// means "all rows from offset"; limit 0 returns a row-less result that
// still carries the table metadata (columns, TotalRows). An offset past
// the end clamps to an empty window — paging past a table that shrank
// is not an error. The returned Result's TotalRows and Offset locate
// the window; Rows is row- and cell-identical to the same slice of a
// full render. Of the options only Ctx is read: the window is one
// transformRange call on the caller's goroutine.
func (pr *Presentation) WindowOpts(offset, limit int, opt ExecOptions) (*Result, error) {
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
	res := &Result{
		Pattern: pr.pattern, PrimaryType: pr.primType, Columns: pr.columns,
		TotalRows: total, Offset: start,
	}
	if start == end {
		res.Rows = make([]Row, 0)
		return res, ctxErr(opt.Ctx)
	}
	// Pin the window's columns for the duration of materialization: on
	// an out-of-core graph this faults in exactly the columns the window
	// renders and guards them against eviction until every row has been
	// written; a corrupt section fails the whole window here with its
	// typed error before any row materializes.
	view, release, err := pr.pinColumns()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := pr.ensureNeighbors(); err != nil {
		return nil, err
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	if res.Rows, err = pr.transformRange(view, start, end); err != nil {
		return nil, err
	}
	return res, nil
}

// transformRange is the row-range transform kernel (§5.4.2 restricted
// to rows [lo, hi) of the presentation order). It allocates exactly
// what the range fills: the rows, one cell array they all slice, and
// one entity-reference arena. A failed refs fault (a corrupt spill run,
// a closed file) aborts the range with its typed error.
func (pr *Presentation) transformRange(view *colView, lo, hi int) ([]Row, error) {
	ncols := len(pr.columns)
	nattrs := len(pr.primType.Attrs)
	rows := make([]Row, hi-lo)
	// All cells of the window share one backing array; each row slices
	// its own disjoint piece (full-capacity sub-slices, so no append can
	// cross row boundaries).
	cells := make([]Cell, (hi-lo)*ncols)

	// Count the range's entity references first, then carve every cell's
	// Refs from one arena sized to them. Counts are IO-free on every
	// groupSource form — only the refs reads below can fault spilled runs.
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
	arena := make([]EntityRef, 0, refTotal)
	intern := labelInterner{}
	primLabels := view.base[pr.primType.LabelIndex()]
	for i := lo; i < hi; i++ {
		id := pr.rowIDs[i]
		row := pr.g.Node(id).Row
		cs := cells[(i-lo)*ncols : (i-lo+1)*ncols : (i-lo+1)*ncols]
		for ai := 0; ai < nattrs; ai++ {
			cs[ai] = Cell{Value: view.base[ai][row]}
		}
		for _, pc := range pr.parts {
			ids, err := pc.src.Refs(id)
			if err != nil {
				return nil, err
			}
			var refs []EntityRef
			arena, refs = appendRefs(arena, &view.refs[pc.col], intern, ids)
			cs[pc.col] = Cell{Refs: refs}
		}
		for _, nc := range pr.neighbors {
			var refs []EntityRef
			arena, refs = appendRefs(arena, &view.refs[nc.col], intern, nc.adj.Neighbors(id))
			cs[nc.col] = Cell{Refs: refs}
		}
		rows[i-lo] = Row{Node: id, Label: intern.label(id, primLabels[row]), Cells: cs}
	}
	return rows, nil
}

// emptyRefs is the shared zero-length reference list: cells with no
// entity references all alias it instead of each allocating (or
// carving arena) — asserted zero-alloc by test.
var emptyRefs = make([]EntityRef, 0)

// appendRefs renders ids' entity references, labelled from lc, into the
// arena and returns the grown arena plus the full-capacity window just
// written. The arena must have been sized by the caller's counting
// pass, so appends never reallocate and earlier cells' references stay
// valid.
func appendRefs(arena []EntityRef, lc *labelCol, intern labelInterner, ids []tgm.NodeID) ([]EntityRef, []EntityRef) {
	if len(ids) == 0 {
		return arena, emptyRefs
	}
	start := len(arena)
	for _, id := range ids {
		arena = append(arena, EntityRef{ID: id, Label: intern.label(id, lc.value(id))})
	}
	return arena, arena[start:len(arena):len(arena)]
}

// labelInterner dedups the rendered non-string labels of one window:
// N references to one node share one string instead of re-rendering
// per ref. String labels bypass the map — the stored string is the
// label, so interning it would only add map traffic; the map holds
// only labels that need rendering (ints, floats, bools, NULL).
type labelInterner map[tgm.NodeID]string

// label returns node id's rendered label, v being its label value.
func (li labelInterner) label(id tgm.NodeID, v value.V) string {
	if v.Kind() == value.KindString {
		return v.AsString()
	}
	if s, ok := li[id]; ok {
		return s
	}
	s := v.Format()
	li[id] = s
	return s
}

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
