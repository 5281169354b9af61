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
// presentation"). A prepare keeps the reduced match — the primary's
// set as the rows, with a rank directory over its words, and per
// participating column its tree path of reduced sets — plus the column
// layout, and stores no cell; a Cursor then reads any [lo, hi) row
// range over any subset of the columns on the caller's goroutine,
// computing each participating cell as it reads it, so a page pays
// O(window), not O(table), and a cursor over a memory-resident graph
// allocates nothing. Its consumers are the server's state encoder and
// transformRange (Window, WindowOpts, WindowColumns), which allocates
// exactly what its Result holds — one cell array, one reference arena,
// labels interned per window — and is the only reader of label
// columns: a reference's label is its target type's label column at
// id − lo (labelCol).

// Presentation is a prepared format transformation over one match:
// the canonical row order, the column layout, and per participating
// column the reduced sets its cells are read from, ready to materialize
// any row window.
//
// The zero value is unusable; build one with Cache.Prepare, which
// takes the reduced match from the cache, or PrepareOpts over
// MatchOpts' relation. A prepared Presentation is immutable:
// SortedView returns a reordered copy, so any number of goroutines may
// Window a presentation and its views concurrently.
type Presentation struct {
	g        *tgm.InstanceGraph
	pattern  *Pattern
	primType *tgm.NodeType
	columns  []Column
	// rows is the primary's reduced set, the prepared order's rows
	// ascending. ranks is its rank directory, nil when the set holds
	// every node of the type: the type's IDs are one run from idLo, so
	// row i is then idLo + i.
	rows  graphrel.NodeSet
	ranks []int32
	idLo  tgm.NodeID
	// perm is a SortedView's row order; nil on the prepared order.
	perm      []tgm.NodeID
	parts     []partCol
	neighbors []neighborCol
	// allCols lists every column ordinal, the cursor's nil column list.
	allCols []int
	// view caches the resolved columns for memory-resident graphs, set
	// once at Prepare so windows pay no column resolution at all. For
	// out-of-core graphs it stays nil and every window pins its own
	// view (see pinBase and pinLabels), keeping steady-state residency
	// bounded by the pager budget instead of by presentation lifetime.
	view *colView
}

// Close does nothing: a presentation holds no file, pin or pooled
// buffer, so there is nothing to release.
//
// Deprecated: there is nothing to close. The method stays because the
// benchmark harness in cmd/etable-load still calls it.
func (pr *Presentation) Close() error { return nil }

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

// partCol is one participating node column (A_t): its tree path in the
// reduced match, which a cell is read from (graphrel.Path.Refs), and the
// count vector a sort by the column builds on first use.
type partCol struct {
	col    int
	path   graphrel.Path
	counts *countVec
}

// countVec is a participating column's cell sizes indexed by the row's
// rank in the primary's set (graphrel.Path.Counts). It is built once,
// by the first sort by the column, however many SortedViews of one
// prepare sort concurrently, and shared by all of them; a failed
// adjacency load is kept beside it.
type countVec struct {
	once sync.Once
	v    []int32
	err  error
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

// ensureRefs materializes the adjacency behind every reference column
// in cols (column ordinals) — a participating column's path, a neighbor
// column's edge type — returning a deferred load's typed error instead
// of letting a failed load read as "no references".
func (pr *Presentation) ensureRefs(cols []int) error {
	for _, ci := range cols {
		var err error
		if pc := pr.partAt(ci); pc != nil {
			err = pc.path.Ensure()
		} else if nc := pr.neighborAt(ci); nc != nil {
			err = nc.adj.Ensure()
		}
		if err != nil {
			return err
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

// PrepareOpts builds the presentation of a pattern's match, as
// MatchOpts returns it, the way a cache hit does (prepareSets): rows
// are the distinct primary nodes ascending by ID, columns the base
// attributes A_b, participating node columns A_t and neighbor node
// columns A_h of §5.4.2.
func PrepareOpts(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation, opt ExecOptions) (*Presentation, error) {
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	return prepareSets(opt.Ctx, g, p, t, matched)
}

// prepareSets builds the presentation from a reduced match: rows are
// the primary's set, addressed through its rank directory (arithmetic
// when the set holds every node of the type), and each participating
// column keeps its tree path from the primary down to its node — the
// reduced set and the adjacency into it at every hop. Nothing is read
// per row: a cell is computed when a window reads it.
func prepareSets(ctx context.Context, g *tgm.InstanceGraph, p *Pattern, t *patternTree, red *graphrel.Relation) (*Presentation, error) {
	if err := ctxErr(ctx); err != nil {
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
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(prim.Type), rows: sets[0]}
	pr.idLo, _ = g.TypeIDRange(prim.Type)
	if sets[0].Len() < len(g.NodesOfType(prim.Type)) {
		pr.ranks = sets[0].Ranks()
	}
	paths := make([]graphrel.Path, 0, len(p.Nodes)-1)
	for _, n := range p.Nodes {
		if n.Key == prim.Key {
			continue
		}
		var hops []graphrel.NodeSet
		var down, up []tgm.Adjacency
		for i := slices.Index(t.keys, n.Key); i != 0; i = t.edges[i].Parent {
			hops, down, up = append(hops, sets[i]), append(down, t.edges[i].Down), append(up, t.edges[i].Up)
		}
		slices.Reverse(hops)
		slices.Reverse(down)
		slices.Reverse(up)
		paths = append(paths, graphrel.NewPath(hops, down, up))
	}
	if err := pr.layoutColumns(p, paths); err != nil {
		return nil, err
	}
	return pr, nil
}

// layoutColumns lays out the columns of §5.4.2 — base attributes A_b,
// participating node columns A_t, neighbor node columns A_h — and
// finishes the prepare. paths holds the tree path of every pattern node
// except the primary, in pattern order.
func (pr *Presentation) layoutColumns(p *Pattern, paths []graphrel.Path) error {
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
		pr.parts = append(pr.parts, partCol{col: len(pr.columns) - 1, path: paths[len(pr.parts)], counts: new(countVec)})
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
func (pr *Presentation) NumRows() int { return pr.rows.Len() }

// Columns returns the column layout. The returned slice must not be
// modified; materialized Results alias it.
func (pr *Presentation) Columns() []Column { return pr.columns }

// Bounds clamps the [offset, offset+limit) window to the table: limit
// < 0 means "all rows from offset", and an offset past the end clamps
// to an empty window at the end — paging past a table that shrank is
// not an error. offset must not be negative.
func (pr *Presentation) Bounds(offset, limit int) (lo, hi int) {
	total := pr.NumRows()
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
	return pr.WindowColumns(context.Background(), offset, limit, nil)
}

// WindowOpts materializes one row window of every column under
// opt.Ctx. See WindowColumns.
func (pr *Presentation) WindowOpts(offset, limit int, opt ExecOptions) (*Result, error) {
	return pr.WindowColumns(opt.Ctx, offset, limit, nil)
}

// WindowColumns materializes one row window of the presentation,
// restricted to the columns whose ordinals visible lists (nil = every
// column). The window is Bounds(offset, limit); limit 0 returns a
// row-less result that still carries the table metadata (columns,
// TotalRows). The returned Result's TotalRows and Offset locate the
// window; Rows is row- and cell-identical to the same slice of a full
// render with the other columns dropped. The window is one
// transformRange pass over a Cursor on the caller's goroutine; a done
// ctx fails it before any row is written, and nil never cancels.
func (pr *Presentation) WindowColumns(ctx context.Context, offset, limit int, visible []int) (*Result, error) {
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
		TotalRows: pr.NumRows(), Offset: lo,
	}
	if lo == hi {
		res.Rows = make([]Row, 0)
		return res, ctxErr(ctx)
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
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res.Rows = pr.transformRange(&c, view)
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
// a cursor allocate nothing: the prepared order's rows are walked off
// the set's bitset, and participating cells are computed into one
// pooled buffer the cursor reuses for every cell.
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
	// members walks the prepared order's rows when the set does not hold
	// the whole type.
	members graphrel.Members
	scr     *graphrel.Scratch // participating cells' buffer, lent on the first Refs
}

// Cursor opens a cursor over rows [lo, hi), which must lie within
// [0, NumRows()] (see Bounds), reading the columns whose ordinals
// visible lists (nil = every column; the slice is retained, not
// copied). A non-empty window seeks row lo once (a binary search over
// the rank directory), faults its base columns in and loads the
// adjacency behind its reference columns here, so a corrupt section or
// a failed load is this call's typed error and nothing is left pinned.
// The caller must Close the cursor.
func (pr *Presentation) Cursor(lo, hi int, visible []int) (Cursor, error) {
	if lo < 0 || lo > hi || hi > pr.NumRows() {
		return Cursor{}, fmt.Errorf("etable: cursor range [%d, %d) outside %d rows", lo, hi, pr.NumRows())
	}
	if visible == nil {
		visible = pr.allCols
	}
	c := Cursor{pr: pr, cols: visible, pos: lo - 1, hi: hi, idLo: pr.idLo}
	if lo == hi {
		return c, nil
	}
	if pr.perm == nil && pr.ranks != nil {
		c.members = pr.rows.Seek(pr.ranks, lo)
	}
	base, err := pr.pinBase(visible, &c.pins)
	if err == nil {
		err = pr.ensureRefs(visible)
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
	switch {
	case c.pr.perm != nil:
		c.id = c.pr.perm[c.pos]
	case c.pr.ranks == nil:
		c.id = c.idLo + tgm.NodeID(c.pos)
	default:
		c.id = c.members.Next()
	}
	c.row = int32(c.id - c.idLo)
	return true
}

// Node returns the current row's primary node.
func (c *Cursor) Node() tgm.NodeID { return c.id }

// Value returns the current row's value in base column ci.
func (c *Cursor) Value(ci int) value.V { return c.base[ci].At(int(c.row)) }

// Refs returns the current row's references in reference column ci:
// ascending and deduplicated for a participating column, computed from
// its path into the cursor's buffer; the adjacency list itself, in
// adjacency order, for a neighbor column. The slice must not be
// modified and is valid until the next Refs call.
func (c *Cursor) Refs(ci int) []tgm.NodeID {
	pc := c.pr.partAt(ci)
	if pc == nil {
		return c.pr.neighborAt(ci).adj.Neighbors(c.id)
	}
	if c.scr == nil {
		c.scr = graphrel.GetScratch()
	}
	c.scr.IDs = pc.path.Refs(c.scr.IDs[:0], c.id, c.scr)
	return c.scr.IDs
}

// Close releases the cursor's pins and buffer. Idempotent.
func (c *Cursor) Close() {
	c.pins.release()
	c.pins = nil
	if c.scr != nil {
		graphrel.PutScratch(c.scr)
		c.scr = nil
	}
}

// transformRange is the row-range transform kernel (§5.4.2 restricted
// to the cursor's rows and columns), the cursor's Result consumer and
// the only reader of label columns. It allocates exactly what the range
// fills: the rows, one cell array they all slice, and one
// entity-reference arena. One pass gathers every reference cell's IDs
// into pooled scratch with its end offset, so no cell is walked twice
// and the arena is allocated once, at its exact size.
func (pr *Presentation) transformRange(c *Cursor, view *colView) []Row {
	ncols := len(c.cols)
	nrows := c.hi - c.pos - 1
	rows := make([]Row, 0, nrows)
	// All cells of the window share one backing array; each row slices
	// its own disjoint piece (full-capacity sub-slices, so no append can
	// cross row boundaries).
	cells := make([]Cell, nrows*ncols)
	scr := graphrel.GetScratch()
	defer graphrel.PutScratch(scr)
	intern := labelInterner{}
	for r := 0; c.Next(); r++ {
		cs := cells[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for k, ci := range c.cols {
			switch pc := pr.partAt(ci); {
			case pr.columns[ci].Kind == ColBase:
				cs[k] = Cell{Value: c.Value(ci)}
				continue
			case pc != nil:
				scr.IDs = pc.path.Refs(scr.IDs, c.id, scr)
			default:
				scr.IDs = append(scr.IDs, pr.neighborAt(ci).adj.Neighbors(c.id)...)
			}
			scr.Offs = append(scr.Offs, int32(len(scr.IDs)))
		}
		rows = append(rows, Row{Node: c.id, Label: intern.label(c.id, &view.prim, int(c.row)), Cells: cs})
	}
	arena := make([]EntityRef, 0, len(scr.IDs))
	start, cell := int32(0), 0
	for _, row := range rows {
		for k, ci := range c.cols {
			if pr.columns[ci].Kind == ColBase {
				continue
			}
			end := scr.Offs[cell]
			arena, row.Cells[k].Refs = appendRefs(arena, &view.refs[ci], intern, scr.IDs[start:end])
			start, cell = end, cell+1
		}
	}
	return rows
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
