package etable

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// This file is the presentation pipeline: the format transformation of
// §5.4.2 as a prepared, windowed kernel (the package doc's "Windowed
// presentation"). A prepare computes what depends on the whole match —
// the rows, the column layout, the per-column groupings — and no cells;
// a Cursor then reads any [lo, hi) row range over any subset of the
// columns on the caller's goroutine, so a page pays O(window), not
// O(table), and a cursor over a memory-resident graph allocates
// nothing. Its consumers are the server's state encoder and
// transformRange (Window, WindowOpts, WindowColumns), which allocates
// exactly what its Result holds — one cell array, one reference arena,
// labels interned per window — and is the only reader of label
// columns: a reference's label is its target type's label column at
// id − lo (labelCol).

// Presentation is a prepared format transformation over one match:
// the canonical row order, the column layout, and the per-column
// groupings, ready to materialize any row window.
//
// The zero value is unusable; build one with Prepare/PrepareOpts (or
// Executor.PrepareWithOpts, which takes the reduced match from the
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
	// allCols lists every column ordinal, the cursor's nil column list.
	allCols []int
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

// colView is the set of resolved attribute columns a materialized
// window reads: the primary type's base columns (indexed [attr][row]),
// its label column, and, per reference column, the label column of the
// column's target type (refs is indexed like the presentation's
// columns; base columns leave their slot zero). The cursor reads base
// only; labels are transformRange's.
type colView struct {
	base []value.Column
	prim value.Column
	refs []labelCol
}

// labelCol is one reference column's label source: the label column of
// its target type and the type's first node ID, so node id's row is
// id-lo (tgm.InstanceGraph.TypeIDRange).
type labelCol struct {
	vals value.Column
	lo   tgm.NodeID
}

func newLabelCol(g *tgm.InstanceGraph, typeName string, vals value.Column) labelCol {
	lo, _ := g.TypeIDRange(typeName)
	return labelCol{vals: vals, lo: lo}
}

// pins collects the releases of the columns one window pinned.
type pins []func()

// pin resolves attribute ai of typeName — pinned against eviction on an
// out-of-core graph — and records its release.
func (p *pins) pin(g *tgm.InstanceGraph, typeName string, ai int) (value.Column, error) {
	col, rel, err := g.PinAttrColumn(typeName, ai)
	if err != nil {
		return value.Column{}, err
	}
	*p = append(*p, rel)
	return col, nil
}

// release releases every recorded pin.
func (p pins) release() {
	for _, r := range p {
		r()
	}
}

// pinBase resolves the primary type's base columns that cols (column
// ordinals) reads, pinning each on an out-of-core
// graph; unread attributes stay empty. On memory-resident graphs the
// Prepare-time view is returned and nothing is pinned.
func (pr *Presentation) pinBase(cols []int, p *pins) ([]value.Column, error) {
	if pr.view != nil {
		return pr.view.base, nil
	}
	base := make([]value.Column, len(pr.primType.Attrs))
	for _, ci := range cols {
		if ci < len(base) {
			col, err := p.pin(pr.g, pr.primType.Name, ci)
			if err != nil {
				return nil, err
			}
			base[ci] = col
		}
	}
	return base, nil
}

// pinLabels resolves the label columns a materialized window reads —
// the primary type's, for the row labels, and the target type's of each
// reference column in cols (column ordinals) — pinning each type's
// once. On memory-resident graphs the Prepare-time view is returned.
func (pr *Presentation) pinLabels(cols []int, p *pins) (*colView, error) {
	if pr.view != nil {
		return pr.view, nil
	}
	g := pr.g
	label := func(tn string) (value.Column, error) {
		return p.pin(g, tn, g.Schema().NodeType(tn).LabelIndex())
	}
	prim, err := label(pr.primType.Name)
	if err != nil {
		return nil, err
	}
	view := &colView{prim: prim, refs: make([]labelCol, len(pr.columns))}
	byType := map[string]value.Column{pr.primType.Name: prim}
	for _, ci := range cols {
		if pr.columns[ci].Kind == ColBase {
			continue
		}
		tn := pr.columns[ci].TargetType
		col, ok := byType[tn]
		if !ok {
			if col, err = label(tn); err != nil {
				return nil, err
			}
			byType[tn] = col
		}
		view.refs[ci] = newLabelCol(g, tn, col)
	}
	return view, nil
}

// groupSource is a participating column's row → related-nodes
// grouping, abstracted over residency: *graphrel.Groups (CSR arrays on
// the heap) for in-memory prepares, *graphrel.SpilledGroups (a
// directory over a values file) when the prepare overflowed to disk.
// Count is IO-free on both forms — it is what the sort key and the
// window's arena-sizing pass read — while Refs may fault runs back in
// and can therefore fail with a typed error. Refs returns the heap
// form's CSR segment itself and reads the spilled form into *buf.
type groupSource interface {
	Count(id tgm.NodeID) int
	Refs(buf *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error)
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
// column in cols (column ordinals), returning a deferred load's typed
// error instead of letting a failed load read as "no neighbors".
func (pr *Presentation) ensureNeighbors(cols []int) error {
	for _, ci := range cols {
		if nc := pr.neighborAt(ci); nc != nil {
			if err := nc.adj.Ensure(); err != nil {
				return err
			}
		}
	}
	return nil
}

// partAt and neighborAt map a column ordinal to its reference source.
// The layout is fixed — base attributes, then participating columns,
// then neighbor columns — so the lookup is arithmetic; each returns nil
// for a column of another family.
func (pr *Presentation) partAt(ci int) *partCol {
	if k := ci - len(pr.primType.Attrs); k >= 0 && k < len(pr.parts) {
		return &pr.parts[k]
	}
	return nil
}

func (pr *Presentation) neighborAt(ci int) *neighborCol {
	if k := ci - len(pr.primType.Attrs) - len(pr.parts); k >= 0 && k < len(pr.neighbors) {
		return &pr.neighbors[k]
	}
	return nil
}

// Prepare builds the presentation over a matched relation serially.
// See PrepareOpts.
func Prepare(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation) (*Presentation, error) {
	return PrepareOpts(g, p, matched, ExecOptions{})
}

// PrepareOpts builds the presentation over a matched relation: rows are
// the distinct primary nodes ascending by ID, columns the base
// attributes A_b, participating node columns A_t and neighbor node
// columns A_h of §5.4.2. matched must be m(Q): the presentation is
// prepared from its projections π_k(matched), which for m(Q) are
// exactly the engine's reduced sets (prepareSets). A relation that is
// not — a subset, a capped drain — counts fewer tuples than the full
// reduction over its projections, and is refused.
func PrepareOpts(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation, opt ExecOptions) (*Presentation, error) {
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	sets := make([]graphrel.NodeSet, len(t.keys))
	for i, k := range t.keys {
		col := matched.ColumnNamed(k)
		if col == nil && matched.AttrIndex(k) < 0 {
			return nil, fmt.Errorf("etable: matched relation has no attribute %q", k)
		}
		sets[i] = graphrel.SetOf(col)
	}
	reduced, rows, err := graphrel.Reduce(opt.Ctx, sets, t.edges)
	if err != nil {
		return nil, err
	}
	if rows != matched.Len() {
		return nil, fmt.Errorf("etable: matched relation holds %d tuples, not the %d matches over its projections: PrepareOpts needs m(Q)", matched.Len(), rows)
	}
	return prepareSets(g, p, t, &Reduced{keys: t.keys, sets: reduced, rows: rows}, opt)
}

// prepareReduced prepares a reduced match under the row cap: past
// MaxRows a pattern with edges fails with the exact |m(Q)| or, under a
// spill policy, spills (prepareSpilled). A joinless match is never
// capped.
func prepareReduced(g *tgm.InstanceGraph, p *Pattern, t *patternTree, red *Reduced, opt ExecOptions) (*Presentation, error) {
	if len(p.Nodes) > 1 && opt.MaxRows > 0 && red.rows > opt.MaxRows {
		if opt.Spill == nil {
			return nil, graphrel.LimitExceeded(opt.MaxRows, red.rows)
		}
		return prepareSpilled(g, p, t, red, opt)
	}
	return prepareSets(g, p, t, red, opt)
}

// prepareSets builds the presentation from a reduced match: rows are
// the primary's set ascending (the type's node list itself when the set
// holds every node), and each participating column groups its tree
// path's adjacency inside the sets (graphrel.GroupPath).
func prepareSets(g *tgm.InstanceGraph, p *Pattern, t *patternTree, red *Reduced, opt ExecOptions) (*Presentation, error) {
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	sets := make([]graphrel.NodeSet, len(t.keys))
	for i, k := range t.keys {
		var ok bool
		if sets[i], ok = red.Set(k); !ok {
			return nil, fmt.Errorf("etable: reduced match has no set for pattern node %q", k)
		}
	}
	prim := t.nodes[0]
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(prim.Type)}
	if all := g.NodesOfType(prim.Type); sets[0].Len() == len(all) {
		pr.rowIDs = all
	} else {
		pr.rowIDs = sets[0].IDs()
	}
	parts := make([]groupSource, 0, len(p.Nodes)-1)
	for _, n := range p.Nodes {
		if n.Key == prim.Key {
			continue
		}
		var path []graphrel.NodeSet
		var up, down []tgm.Adjacency
		for i := slices.Index(t.keys, n.Key); i != 0; i = t.edges[i].Parent {
			path, up, down = append(path, sets[i]), append(up, t.edges[i].Up), append(down, t.edges[i].Down)
		}
		groups, err := graphrel.GroupPath(opt.Ctx, pr.rowIDs, append(path, sets[0]), up, down)
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
// except the primary, in pattern order; the heap prepare (prepareSets)
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
	pr.allCols = make([]int, len(pr.columns))
	for i := range pr.allCols {
		pr.allCols[i] = i
	}
	if pr.g.ColumnSourceAttached() {
		return nil
	}
	var p pins // memory-resident: every release is a no-op
	base, err := pr.pinBase(pr.allCols, &p)
	if err != nil {
		return err
	}
	view, err := pr.pinLabels(pr.allCols, &p)
	if err != nil {
		return err
	}
	view.base = base
	pr.view = view
	return nil
}

// PrimaryType returns the node type of the presentation's rows.
func (pr *Presentation) PrimaryType() *tgm.NodeType { return pr.primType }

// NumRows returns the full table's row count (no rows need be
// materialized to know it).
func (pr *Presentation) NumRows() int { return len(pr.rowIDs) }

// Columns returns the column layout. The returned slice must not be
// modified; materialized Results alias it.
func (pr *Presentation) Columns() []Column { return pr.columns }

// Bounds clamps the [offset, offset+limit) window to the table: limit
// < 0 means "all rows from offset", and an offset past the end clamps
// to an empty window at the end — paging past a table that shrank is
// not an error. offset must not be negative.
func (pr *Presentation) Bounds(offset, limit int) (lo, hi int) {
	total := len(pr.rowIDs)
	lo = min(offset, total)
	hi = total
	if limit >= 0 && limit < total-lo {
		hi = lo + limit
	}
	return lo, hi
}

// Window materializes the [offset, offset+limit) row window. See
// WindowOpts.
func (pr *Presentation) Window(offset, limit int) (*Result, error) {
	return pr.WindowOpts(offset, limit, ExecOptions{})
}

// WindowOpts materializes one row window of every column. See
// WindowColumns.
func (pr *Presentation) WindowOpts(offset, limit int, opt ExecOptions) (*Result, error) {
	return pr.WindowColumns(offset, limit, nil, opt)
}

// WindowColumns materializes one row window of the presentation,
// restricted to the columns whose ordinals visible lists (nil = every
// column). The window is Bounds(offset, limit); limit 0 returns a
// row-less result that still carries the table metadata (columns,
// TotalRows). The returned Result's TotalRows and Offset locate the
// window; Rows is row- and cell-identical to the same slice of a full
// render with the other columns dropped. Of the options only Ctx is
// read: the window is one transformRange pass over a Cursor on the
// caller's goroutine.
func (pr *Presentation) WindowColumns(offset, limit int, visible []int, opt ExecOptions) (*Result, error) {
	if offset < 0 {
		return nil, fmt.Errorf("etable: negative window offset %d", offset)
	}
	lo, hi := pr.Bounds(offset, limit)
	cols := pr.columns
	if visible != nil {
		cols = make([]Column, len(visible))
		for k, ci := range visible {
			cols[k] = pr.columns[ci]
		}
	}
	res := &Result{
		Pattern: pr.pattern, PrimaryType: pr.primType, Columns: cols,
		TotalRows: len(pr.rowIDs), Offset: lo,
	}
	if lo == hi {
		res.Rows = make([]Row, 0)
		return res, ctxErr(opt.Ctx)
	}
	// The cursor pins the window's base columns and pinLabels its label
	// columns for the duration of materialization: on an out-of-core
	// graph this faults in exactly the columns the window renders and
	// guards them against eviction until every row has been written; a
	// corrupt section fails the whole window here with its typed error
	// before any row materializes.
	c, err := pr.Cursor(lo, hi, visible)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var p pins
	defer func() { p.release() }()
	view, err := pr.pinLabels(c.cols, &p)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	if res.Rows, err = pr.transformRange(&c, view); err != nil {
		return nil, err
	}
	return res, nil
}

// Cursor reads rows [lo, hi) of a presentation in order without
// materializing them: per row the primary node ID, per column either a
// base value or the reference IDs. It is the one row reader of the
// format transformation; transformRange (a Result) and the server's
// state encoder (bytes) are its consumers.
//
// A cursor pins only the primary type's base columns that its columns
// read, and reads no label: a consumer that renders labels resolves
// them itself. On memory-resident graphs opening, reading and closing
// a cursor allocate nothing; a spilled grouping's references are read
// into one buffer the cursor reuses for every cell.
type Cursor struct {
	pr   *Presentation
	cols []int
	base []value.Column
	pins pins
	pos  int
	hi   int
	id   tgm.NodeID
	row  int32
	// idLo is the primary type's first node ID: node id's column row is
	// id − idLo.
	idLo tgm.NodeID
	buf  *[]tgm.NodeID // spilled groupings' read buffer; nil when nothing spilled
}

// Cursor opens a cursor over rows [lo, hi), which must lie within
// [0, NumRows()] (see Bounds), reading the columns whose ordinals
// visible lists (nil = every column; the slice is retained, not
// copied). A non-empty window faults its base columns in and loads the
// adjacency behind its neighbor columns here, so a corrupt section or a
// failed load is this call's typed error and nothing is left pinned.
// The caller must Close the cursor.
func (pr *Presentation) Cursor(lo, hi int, visible []int) (Cursor, error) {
	if lo < 0 || lo > hi || hi > len(pr.rowIDs) {
		return Cursor{}, fmt.Errorf("etable: cursor range [%d, %d) outside %d rows", lo, hi, len(pr.rowIDs))
	}
	if visible == nil {
		visible = pr.allCols
	}
	c := Cursor{pr: pr, cols: visible, pos: lo - 1, hi: hi}
	if lo == hi {
		return c, nil
	}
	c.idLo, _ = pr.g.TypeIDRange(pr.primType.Name)
	if len(pr.closers) > 0 {
		c.buf = new([]tgm.NodeID)
	}
	base, err := pr.pinBase(visible, &c.pins)
	if err == nil {
		err = pr.ensureNeighbors(visible)
	}
	if err != nil {
		c.pins.release()
		return Cursor{}, err
	}
	c.base = base
	return c, nil
}

// Columns returns the column ordinals the cursor reads, in order.
func (c *Cursor) Columns() []int { return c.cols }

// Next advances to the next row, reporting false past the last one.
func (c *Cursor) Next() bool {
	c.pos++
	if c.pos >= c.hi {
		return false
	}
	c.id = c.pr.rowIDs[c.pos]
	c.row = int32(c.id - c.idLo)
	return true
}

// Node returns the current row's primary node.
func (c *Cursor) Node() tgm.NodeID { return c.id }

// Value returns the current row's value in base column ci.
func (c *Cursor) Value(ci int) value.V { return c.base[ci].At(int(c.row)) }

// Refs returns the current row's references in reference column ci:
// ascending for a participating column, in adjacency order for a
// neighbor column. The slice is the grouping's CSR segment or the
// adjacency list itself, or, for a spilled grouping, the cursor's
// buffer; it must not be modified and is valid until the next Refs
// call. Reading a spilled run can fail with its typed error.
func (c *Cursor) Refs(ci int) ([]tgm.NodeID, error) {
	if pc := c.pr.partAt(ci); pc != nil {
		return pc.src.Refs(c.buf, c.id)
	}
	return c.pr.neighborAt(ci).adj.Neighbors(c.id), nil
}

// refCount returns node id's reference count in reference column ci
// without reading the references: IO-free on every grouping.
func (pr *Presentation) refCount(ci int, id tgm.NodeID) int {
	if pc := pr.partAt(ci); pc != nil {
		return pc.src.Count(id)
	}
	return pr.neighborAt(ci).adj.Degree(id)
}

// Close releases the cursor's pins. Idempotent.
func (c *Cursor) Close() {
	c.pins.release()
	c.pins = nil
}

// transformRange is the row-range transform kernel (§5.4.2 restricted
// to the cursor's rows and columns), the cursor's Result consumer and
// the only reader of label columns. It allocates exactly what the range
// fills: the rows, one cell array they all slice, and one
// entity-reference arena. A failed refs fault (a corrupt spill run, a
// closed file) aborts the range with its typed error.
func (pr *Presentation) transformRange(c *Cursor, view *colView) ([]Row, error) {
	ncols := len(c.cols)
	nrows := c.hi - c.pos - 1
	rows := make([]Row, 0, nrows)
	// All cells of the window share one backing array; each row slices
	// its own disjoint piece (full-capacity sub-slices, so no append can
	// cross row boundaries).
	cells := make([]Cell, nrows*ncols)

	// Count the range's entity references first, then carve every cell's
	// Refs from one arena sized to them. Counts are IO-free on every
	// groupSource form — only the refs reads below can fault spilled runs.
	refTotal := 0
	for _, id := range pr.rowIDs[c.pos+1 : c.hi] {
		for _, ci := range c.cols {
			if pr.columns[ci].Kind != ColBase {
				refTotal += pr.refCount(ci, id)
			}
		}
	}
	arena := make([]EntityRef, 0, refTotal)
	intern := labelInterner{}
	for r := 0; c.Next(); r++ {
		id := c.Node()
		cs := cells[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for k, ci := range c.cols {
			if pr.columns[ci].Kind == ColBase {
				cs[k] = Cell{Value: c.Value(ci)}
				continue
			}
			ids, err := c.Refs(ci)
			if err != nil {
				return nil, err
			}
			var refs []EntityRef
			arena, refs = appendRefs(arena, &view.refs[ci], intern, ids)
			cs[k] = Cell{Refs: refs}
		}
		rows = append(rows, Row{Node: id, Label: intern.label(id, &view.prim, int(c.row)), Cells: cs})
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
		arena = append(arena, EntityRef{ID: id, Label: intern.label(id, &lc.vals, int(id-lc.lo))})
	}
	return arena, arena[start:len(arena):len(arena)]
}

// labelInterner dedups the rendered non-string labels of one window:
// N references to one node share one string instead of re-rendering
// per ref. String labels bypass the map — the stored string is the
// label, so interning it would only add map traffic; the map holds
// only labels that need rendering (ints, floats, bools, NULL).
type labelInterner map[tgm.NodeID]string

// label returns node id's rendered label, read from row of its type's
// label column.
func (li labelInterner) label(id tgm.NodeID, col *value.Column, row int) string {
	if col.Kind(row) == value.KindString {
		return col.Str(row)
	}
	if s, ok := li[id]; ok {
		return s
	}
	s := col.At(row).Format()
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
