package tgm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// NodeID identifies a node in an instance graph. IDs are dense ordinals
// assigned at insertion.
type NodeID int32

// Node is one entity instance (Definition 2): its type and its position
// within the type's column block. Attribute values live column-major on
// the graph (see colBlock); Row is the node's index into every one of
// its type's columns, aligned with NodesOfType.
type Node struct {
	ID   NodeID
	Type *NodeType
	// Row is the node's ordinal within its type: the index into
	// NodesOfType(Type.Name) and into each attribute column.
	Row int32
	blk *colBlock
}

// Attr returns the named attribute's value (NULL if absent, or if an
// out-of-core column fails to fault in — query paths that must
// distinguish corruption from NULL use TryAttrAt or the graph's column
// accessors, which return typed errors).
func (n *Node) Attr(name string) value.V {
	i := n.Type.AttrIndex(name)
	if i < 0 {
		return value.Null
	}
	return n.AttrAt(i)
}

// AttrAt returns the value of the attribute at ordinal i, faulting the
// column in from the graph's column source when it is not resident.
// Fault failures surface as NULL; error-aware callers use TryAttrAt.
func (n *Node) AttrAt(i int) value.V {
	v, _ := n.TryAttrAt(i)
	return v
}

// TryAttrAt returns the value of the attribute at ordinal i. For graphs
// whose columns live out of core, the column is faulted in through the
// graph's ColumnSource; a fault failure (e.g. snapshot corruption)
// returns the source's typed error.
func (n *Node) TryAttrAt(i int) (value.V, error) {
	b := n.blk
	if i < 0 || i >= len(b.cols) {
		return value.Null, fmt.Errorf("tgm: type %q has no attribute ordinal %d", n.Type.Name, i)
	}
	if col := b.cols[i]; col != nil {
		return col[n.Row], nil
	}
	col, err := b.column(i)
	if err != nil {
		return value.Null, err
	}
	return col[n.Row], nil
}

// Label returns label(v) = v[β_i]: the label attribute rendered as text.
func (n *Node) Label() string {
	return n.AttrAt(n.Type.LabelIndex()).Format()
}

// ColumnSource supplies node-attribute columns on demand for graphs
// whose columns live out of core (internal/snapshot's lazy loader backed
// by internal/pager). Implementations must be safe for concurrent use —
// the serving stack reads frozen graphs without synchronization.
type ColumnSource interface {
	// Column returns the values of attribute ordinal ai of typeName,
	// aligned with NodesOfType(typeName). The call may fault the column
	// in from disk; failures carry the implementation's typed error
	// (e.g. *snapshot.CorruptError). The returned slice must not be
	// modified and stays valid even if the source later evicts the
	// column from residency.
	Column(typeName string, ai int) ([]value.V, error)
	// PinColumn is Column plus a residency guarantee: until release is
	// called, the source must keep the column resident (exempt from
	// eviction). Windows pin the columns they render so an eviction
	// storm cannot thrash sections out mid-materialization.
	PinColumn(typeName string, ai int) (vals []value.V, release func(), err error)
}

// colBlock is one node type's column-major attribute storage: cols[ai]
// holds the attribute's values aligned with the type's row order. A nil
// column is unresolved — its values live out of core and fault in
// through src on first access — unless the type has no nodes, which the
// graph's accessors answer with an empty column before asking the block.
type colBlock struct {
	typeName string
	cols     [][]value.V
	src      ColumnSource
}

func (b *colBlock) column(ai int) ([]value.V, error) {
	if col := b.cols[ai]; col != nil {
		return col, nil
	}
	if b.src == nil {
		return nil, fmt.Errorf("tgm: type %q attribute %d has no column data and no column source", b.typeName, ai)
	}
	return b.src.Column(b.typeName, ai)
}

// InstanceGraph is G_I = (V, E) from Definition 2, with per-edge-type
// adjacency indexes for the neighbor lookups the presentation layer
// performs.
//
// # Immutability contract
//
// An instance graph is built once (AddNode/AddEdge during translation,
// or the Install* bulk constructors during a snapshot load) and then
// read forever; the serving stack depends on this. Freeze marks the end
// of the build phase: after Freeze, mutators fail and every read
// accessor — Node, NodesOfType, Neighbors, Degree, HasEdge,
// AvgOutDegree, EdgeTypeCount, ComputeStats, FindNode, AttrColumn — is
// safe for unsynchronized concurrent use, because nothing writes. All
// indexes (adjacency, per-type node lists, edge totals) are maintained
// eagerly at insertion time; the one deliberately lazy state is
// out-of-core attribute columns, whose residency is owned by the
// attached ColumnSource (which must itself be concurrency-safe).
// translate.Translate freezes the graph before returning it, which is
// what lets the server share one execution cache of graphrel.Relations
// (whose base columns alias these node lists) across all sessions.
//
// # Storage layout
//
// Attribute values are stored column-major per node type (colBlock):
// the in-memory shape matches the snapshot format's per-attribute
// column sections, so a snapshot decode installs columns wholesale
// (InstallColumn) and an out-of-core graph leaves them unresolved,
// faulting each column in through its ColumnSource on first touch.
// Adjacency has two interchangeable representations: the map-of-slices
// built incrementally by AddEdge, and the packed CSR arrays installed
// wholesale by InstallAdjacency (the snapshot decode path). Readers
// cannot tell them apart.
type InstanceGraph struct {
	schema *SchemaGraph
	nodes  []*Node
	byType map[string][]NodeID
	blocks map[string]*colBlock
	colSrc ColumnSource
	// adj maps edge type name → source node → ordered target nodes
	// (the incremental AddEdge representation).
	adj map[string]map[NodeID][]NodeID
	// csr holds adjacency installed wholesale as packed arrays
	// (InstallAdjacency); a given edge type lives in exactly one of
	// adj or csr.
	csr map[string]*csrAdj
	// edgeSeen deduplicates edges per edge type: key = src<<32|dst.
	edgeSeen  map[string]map[uint64]bool
	edgeCount int
	// edgeTotals counts edges per edge type, maintained incrementally so
	// the query planner's degree statistic is O(1) per lookup.
	edgeTotals map[string]int
	// frozen marks the graph immutable (see the immutability contract
	// above). Atomic so concurrent readers may assert it without racing
	// a late Freeze call.
	frozen atomic.Bool
	// statsCache holds derived statistics computed over the frozen
	// graph (an opaque value owned by internal/stats). Stored on the
	// graph so the statistics share its lifetime instead of pinning the
	// graph in a process-global registry.
	statsCache atomic.Value
	// planCache holds prepared query plans keyed by pattern signature
	// (an opaque value owned by internal/etable). Like statsCache it
	// lives on the graph so plans share the graph's lifetime — and so
	// that plans for one graph can never be served for another.
	planCache atomic.Value
}

// csrAdj is one edge type's adjacency in compressed-sparse-row form,
// indexed densely by node ID: node base+i's out-neighbors are
// targets[offs[i]:offs[i+1]] in insertion order. base is the lowest
// source ID and offs spans the sources' ID run, so a lookup is one
// subtraction and two loads whatever the sources look like — IDs inside
// the run that have no out-edge own an empty segment.
type csrAdj struct {
	base    NodeID
	offs    []int32
	targets []NodeID
	// load defers materialization (InstallAdjacencyDeferred): the first
	// traversal fills the arrays through it, under once. Eagerly
	// installed adjacency has a nil load and pays only the nil check.
	load AdjacencyLoader
	once sync.Once
	err  error
}

// install indexes validated CSR arrays (srcs ascending, offs of
// len(srcs)+1) by node ID. Gap-free sources — every node of a type
// created in one block has an out-edge, e.g. each paper its authors —
// keep the installed offsets as they are; gapped sources (citation
// edges, reverse edges of optional relationships) get one offset per ID
// of their run instead, 4 bytes × the run once per edge type, so no
// reader ever searches.
func (a *csrAdj) install(srcs []NodeID, offs []int32, targets []NodeID) {
	a.targets = targets
	if len(srcs) == 0 {
		return
	}
	a.base = srcs[0]
	span := int(srcs[len(srcs)-1]-srcs[0]) + 1
	if span == len(srcs) {
		a.offs = offs
		return
	}
	a.offs = make([]int32, span+1)
	j := 0
	for i, s := range srcs {
		// IDs in the gap before s end where s starts: empty segments.
		for ; j <= int(s-a.base); j++ {
			a.offs[j] = offs[i]
		}
	}
	a.offs[span] = offs[len(srcs)]
}

// ensure materializes deferred adjacency. Concurrent first traversals
// are collapsed by once; the result (arrays or error) is cached for
// the graph's lifetime.
func (a *csrAdj) ensure() error {
	if a.load == nil {
		return nil
	}
	a.once.Do(func() {
		srcs, offs, targets, err := a.load()
		if a.err = err; err == nil {
			a.install(srcs, offs, targets)
		}
	})
	return a.err
}

func (a *csrAdj) neighbors(id NodeID) []NodeID {
	i := int(id) - int(a.base)
	if i < 0 || i >= len(a.offs)-1 || a.offs[i] == a.offs[i+1] {
		return nil // as the AddEdge form answers for a node without out-edges
	}
	return a.targets[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
}

// NewInstanceGraph returns an empty instance graph over schema.
func NewInstanceGraph(schema *SchemaGraph) *InstanceGraph {
	return &InstanceGraph{
		schema:     schema,
		byType:     make(map[string][]NodeID),
		blocks:     make(map[string]*colBlock),
		adj:        make(map[string]map[NodeID][]NodeID),
		edgeSeen:   make(map[string]map[uint64]bool),
		edgeTotals: make(map[string]int),
	}
}

// Schema returns the schema graph this instance conforms to.
func (g *InstanceGraph) Schema() *SchemaGraph { return g.schema }

// Freeze marks the graph immutable: subsequent AddNode/AddEdge/Install*
// calls fail. Freezing is idempotent. Once frozen, the graph is safe
// for unsynchronized concurrent reads (see the type's immutability
// contract).
func (g *InstanceGraph) Freeze() { g.frozen.Store(true) }

// StatsCache returns the derived statistics published by
// SetStatsCache, or nil.
func (g *InstanceGraph) StatsCache() any { return g.statsCache.Load() }

// SetStatsCache publishes derived statistics for the graph. If two
// collectors race, the first published value wins; the winner is
// returned either way. Callers must always pass the same concrete
// type.
func (g *InstanceGraph) SetStatsCache(v any) any {
	if g.statsCache.CompareAndSwap(nil, v) {
		return v
	}
	return g.statsCache.Load()
}

// PlanCache returns the plan cache published by SetPlanCache, or nil.
func (g *InstanceGraph) PlanCache() any { return g.planCache.Load() }

// SetPlanCache publishes a plan cache for the graph. If two callers
// race, the first published value wins; the winner is returned either
// way. Callers must always pass the same concrete type.
func (g *InstanceGraph) SetPlanCache(v any) any {
	if g.planCache.CompareAndSwap(nil, v) {
		return v
	}
	return g.planCache.Load()
}

// Frozen reports whether Freeze has been called.
func (g *InstanceGraph) Frozen() bool { return g.frozen.Load() }

// block returns (creating if needed) the column block for a node type.
func (g *InstanceGraph) block(nt *NodeType) *colBlock {
	b := g.blocks[nt.Name]
	if b == nil {
		b = &colBlock{typeName: nt.Name, cols: make([][]value.V, len(nt.Attrs)), src: g.colSrc}
		g.blocks[nt.Name] = b
	}
	return b
}

// AddNode inserts a node of the named type with the given attribute
// values (aligned with the type's Attrs) and returns its ID. Values are
// copied into the type's columns.
func (g *InstanceGraph) AddNode(typeName string, attrs []value.V) (NodeID, error) {
	if g.frozen.Load() {
		return 0, fmt.Errorf("tgm: graph is frozen; cannot add node of type %q", typeName)
	}
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return 0, fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if len(attrs) != len(nt.Attrs) {
		return 0, fmt.Errorf("tgm: node type %q expects %d attributes, got %d",
			typeName, len(nt.Attrs), len(attrs))
	}
	b := g.block(nt)
	id := NodeID(len(g.nodes))
	row := int32(len(g.byType[typeName]))
	n := &Node{ID: id, Type: nt, Row: row, blk: b}
	g.nodes = append(g.nodes, n)
	g.byType[typeName] = append(g.byType[typeName], id)
	for ai, v := range attrs {
		b.cols[ai] = append(b.cols[ai], v)
	}
	return id, nil
}

// InstallNodes bulk-creates every node of the graph at once: owner[gid]
// is the index (into Schema().NodeTypes() order) of the type that owns
// global ID gid. It is the snapshot decode path's constructor — one
// arena allocation for all nodes instead of one per AddNode — and
// leaves every attribute column unresolved: provide values with
// InstallColumn (eager decode) or SetColumnSource (out-of-core). The
// graph must be empty and unfrozen.
func (g *InstanceGraph) InstallNodes(owner []int32) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot install nodes")
	}
	if len(g.nodes) != 0 {
		return fmt.Errorf("tgm: InstallNodes on a non-empty graph (%d nodes)", len(g.nodes))
	}
	nts := g.schema.NodeTypes()
	counts := make([]int32, len(nts))
	for gid, ti := range owner {
		if ti < 0 || int(ti) >= len(nts) {
			return fmt.Errorf("tgm: node %d owner type index %d out of range [0,%d)", gid, ti, len(nts))
		}
		counts[ti]++
	}
	arena := make([]Node, len(owner))
	nodes := make([]*Node, len(owner))
	rows := make([]int32, len(nts))
	// Per-type state is indexed by ti inside the hot loop; the map
	// writes happen once per type, not once per node.
	perType := make([][]NodeID, len(nts))
	blks := make([]*colBlock, len(nts))
	for ti, nt := range nts {
		if counts[ti] > 0 {
			perType[ti] = make([]NodeID, 0, counts[ti])
		}
		blks[ti] = g.block(nt)
	}
	for gid, ti := range owner {
		arena[gid] = Node{ID: NodeID(gid), Type: nts[ti], Row: rows[ti], blk: blks[ti]}
		nodes[gid] = &arena[gid]
		perType[ti] = append(perType[ti], NodeID(gid))
		rows[ti]++
	}
	for ti, nt := range nts {
		if len(perType[ti]) > 0 {
			g.byType[nt.Name] = perType[ti]
		}
	}
	g.nodes = nodes
	return nil
}

// InstallColumn provides the dense values of one attribute column,
// aligned with NodesOfType(typeName). The graph takes ownership of
// vals: the caller must not modify the slice afterwards (the snapshot
// decoder hands over freshly decoded columns, so eager loads pay no
// second copy).
func (g *InstanceGraph) InstallColumn(typeName string, ai int, vals []value.V) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot install column %s[%d]", typeName, ai)
	}
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if ai < 0 || ai >= len(nt.Attrs) {
		return fmt.Errorf("tgm: type %q has no attribute ordinal %d", typeName, ai)
	}
	if len(vals) != len(g.byType[typeName]) {
		return fmt.Errorf("tgm: column %s[%d] has %d values for %d nodes",
			typeName, ai, len(vals), len(g.byType[typeName]))
	}
	g.block(nt).cols[ai] = vals
	return nil
}

// SetColumnSource attaches the out-of-core column source that resolves
// attribute columns not installed densely. Set it before Freeze; the
// source itself must be safe for concurrent use.
func (g *InstanceGraph) SetColumnSource(src ColumnSource) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot set column source")
	}
	g.colSrc = src
	for _, b := range g.blocks {
		b.src = src
	}
	return nil
}

// ColumnSourceAttached reports whether the graph resolves any columns
// through an out-of-core source (false for fully memory-resident
// graphs). The presentation layer uses it to skip per-window column
// pinning on eager graphs.
func (g *InstanceGraph) ColumnSourceAttached() bool { return g.colSrc != nil }

// AttrColumn returns the values of attribute ordinal ai of typeName,
// aligned with NodesOfType(typeName). For out-of-core graphs the column
// is faulted in through the ColumnSource (typed errors propagate); for
// memory-resident graphs this is a direct slice return. A type with no
// nodes has empty columns, whatever backs the graph. The returned slice
// must not be modified.
func (g *InstanceGraph) AttrColumn(typeName string, ai int) ([]value.V, error) {
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return nil, fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if ai < 0 || ai >= len(nt.Attrs) {
		return nil, fmt.Errorf("tgm: type %q has no attribute ordinal %d", typeName, ai)
	}
	if len(g.byType[typeName]) == 0 {
		return nil, nil
	}
	return g.block(nt).column(ai)
}

// noopRelease is the shared release for columns that need no pinning.
func noopRelease() {}

// PinAttrColumn is AttrColumn plus residency: for out-of-core graphs
// the column stays resident (exempt from buffer-pool eviction) until
// release is called. For memory-resident graphs release is a no-op.
// Callers must call release exactly once.
func (g *InstanceGraph) PinAttrColumn(typeName string, ai int) ([]value.V, func(), error) {
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return nil, nil, fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if ai < 0 || ai >= len(nt.Attrs) {
		return nil, nil, fmt.Errorf("tgm: type %q has no attribute ordinal %d", typeName, ai)
	}
	b := g.block(nt)
	if col := b.cols[ai]; col != nil || len(g.byType[typeName]) == 0 {
		return col, noopRelease, nil // resident, or empty: nothing to pin
	}
	if b.src == nil {
		return nil, nil, fmt.Errorf("tgm: type %q attribute %d has no column data and no column source", typeName, ai)
	}
	return b.src.PinColumn(typeName, ai)
}

// Node returns the node with the given ID, or nil if out of range.
func (g *InstanceGraph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// NumNodes returns the total node count.
func (g *InstanceGraph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges added (including
// automatically added reverse edges).
func (g *InstanceGraph) NumEdges() int { return g.edgeCount }

// NodesOfType returns the IDs of all nodes of the named type, in
// insertion order. The returned slice must not be modified.
func (g *InstanceGraph) NodesOfType(typeName string) []NodeID {
	return g.byType[typeName]
}

// AddEdge inserts a directed edge of the named type and, when the type
// has a registered reverse, the corresponding reverse edge. Duplicate
// edges are ignored. Node types of the endpoints are checked.
func (g *InstanceGraph) AddEdge(edgeType string, src, dst NodeID) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot add edge of type %q", edgeType)
	}
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return fmt.Errorf("tgm: unknown edge type %q", edgeType)
	}
	sn, dn := g.Node(src), g.Node(dst)
	if sn == nil || dn == nil {
		return fmt.Errorf("tgm: edge %q endpoints out of range (%d→%d)", edgeType, src, dst)
	}
	if sn.Type.Name != et.Source {
		return fmt.Errorf("tgm: edge %q source must be %q, got %q", edgeType, et.Source, sn.Type.Name)
	}
	if dn.Type.Name != et.Target {
		return fmt.Errorf("tgm: edge %q target must be %q, got %q", edgeType, et.Target, dn.Type.Name)
	}
	if g.insertEdge(et.Name, src, dst) && et.Reverse != "" {
		g.insertEdge(et.Reverse, dst, src)
	}
	return nil
}

func (g *InstanceGraph) insertEdge(edgeType string, src, dst NodeID) bool {
	seen := g.edgeSeen[edgeType]
	if seen == nil {
		seen = make(map[uint64]bool)
		g.edgeSeen[edgeType] = seen
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if seen[key] {
		return false
	}
	seen[key] = true
	m := g.adj[edgeType]
	if m == nil {
		m = make(map[NodeID][]NodeID)
		g.adj[edgeType] = m
	}
	m[src] = append(m[src], dst)
	g.edgeCount++
	g.edgeTotals[edgeType]++
	return true
}

// AddDirectedEdge inserts exactly one directed edge of the named type,
// without the automatic reverse-edge insertion AddEdge performs. It
// exists for restore paths (internal/snapshot) that serialize every
// edge type's adjacency — forward and reverse types alike — and must
// rebuild each list exactly as stored; mixing it with AddEdge on
// reverse-paired types would desynchronize the two directions.
// Duplicate edges are ignored; endpoint types are checked.
func (g *InstanceGraph) AddDirectedEdge(edgeType string, src, dst NodeID) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot add edge of type %q", edgeType)
	}
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return fmt.Errorf("tgm: unknown edge type %q", edgeType)
	}
	sn, dn := g.Node(src), g.Node(dst)
	if sn == nil || dn == nil {
		return fmt.Errorf("tgm: edge %q endpoints out of range (%d→%d)", edgeType, src, dst)
	}
	if sn.Type.Name != et.Source {
		return fmt.Errorf("tgm: edge %q source must be %q, got %q", edgeType, et.Source, sn.Type.Name)
	}
	if dn.Type.Name != et.Target {
		return fmt.Errorf("tgm: edge %q target must be %q, got %q", edgeType, et.Target, dn.Type.Name)
	}
	g.insertEdge(et.Name, src, dst)
	return nil
}

// InstallAdjacency installs one edge type's entire adjacency wholesale
// in CSR form: srcs ascending, offs of length len(srcs)+1, and
// targets[offs[i]:offs[i+1]] the i-th source's out-neighbors in the
// order Neighbors must return them. It is the snapshot decode path's
// bulk alternative to per-edge AddDirectedEdge — three array
// installations instead of O(edges) map inserts — and must not be mixed
// with AddEdge/AddDirectedEdge for the same edge type. Endpoint types
// and ID ranges are validated.
func (g *InstanceGraph) InstallAdjacency(edgeType string, srcs []NodeID, offs []int32, targets []NodeID) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot install adjacency for %q", edgeType)
	}
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return fmt.Errorf("tgm: unknown edge type %q", edgeType)
	}
	if len(g.adj[edgeType]) > 0 {
		return fmt.Errorf("tgm: edge type %q already has incrementally added edges", edgeType)
	}
	if g.csr != nil && g.csr[edgeType] != nil {
		return fmt.Errorf("tgm: edge type %q adjacency already installed", edgeType)
	}
	if err := g.validateCSR(et, srcs, offs, targets); err != nil {
		return err
	}
	if g.csr == nil {
		g.csr = make(map[string]*csrAdj)
	}
	a := &csrAdj{}
	a.install(srcs, offs, targets)
	g.csr[edgeType] = a
	g.edgeCount += len(targets)
	g.edgeTotals[edgeType] = len(targets)
	return nil
}

// AdjacencyLoader produces one edge type's CSR arrays on first
// traversal (see InstallAdjacencyDeferred).
type AdjacencyLoader func() (srcs []NodeID, offs []int32, targets []NodeID, err error)

// InstallAdjacencyDeferred registers an edge type whose CSR arrays are
// materialized by load on the first Neighbors/Degree/HasEdge touching
// the type, instead of at install time — the out-of-core open's bulk
// alternative to InstallAdjacency. targetCount is the type's edge
// count (known from the snapshot directory without decoding the
// arrays), so NumEdges, EdgeTypeCount, and AvgOutDegree are exact
// before any traversal. The loaded arrays pass exactly the validation
// InstallAdjacency applies; a load or validation failure is cached and
// leaves the type with empty adjacency — the name-keyed accessors
// (Neighbors, Degree, HasEdge) see no edges, never a panic, while an
// Adjacency handle's Ensure returns the failure, which is how the
// presentation layer reports it instead of rendering zero counts.
func (g *InstanceGraph) InstallAdjacencyDeferred(edgeType string, targetCount int, load AdjacencyLoader) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot install adjacency for %q", edgeType)
	}
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return fmt.Errorf("tgm: unknown edge type %q", edgeType)
	}
	if len(g.adj[edgeType]) > 0 {
		return fmt.Errorf("tgm: edge type %q already has incrementally added edges", edgeType)
	}
	if g.csr != nil && g.csr[edgeType] != nil {
		return fmt.Errorf("tgm: edge type %q adjacency already installed", edgeType)
	}
	if g.csr == nil {
		g.csr = make(map[string]*csrAdj)
	}
	g.csr[edgeType] = &csrAdj{load: func() ([]NodeID, []int32, []NodeID, error) {
		srcs, offs, targets, err := load()
		if err != nil {
			return nil, nil, nil, err
		}
		if len(targets) != targetCount {
			return nil, nil, nil, fmt.Errorf("tgm: edge type %q: deferred load produced %d targets, directory says %d",
				edgeType, len(targets), targetCount)
		}
		if err := g.validateCSR(et, srcs, offs, targets); err != nil {
			return nil, nil, nil, err
		}
		return srcs, offs, targets, nil
	}}
	g.edgeCount += targetCount
	g.edgeTotals[edgeType] = targetCount
	return nil
}

// validateCSR checks one edge type's CSR arrays: offsets span targets
// monotonically, sources are ascending, and every endpoint is a node
// of the declared type. Endpoint types are validated by canonical
// *NodeType identity — schema types are interned, so pointer equality
// is the same test as comparing names without the per-edge string
// compare. When a type's node IDs form one contiguous run (the common
// case: IDs are handed out in insertion order and loaders create nodes
// type by type), membership is two integer compares per endpoint with
// no node dereference at all.
func (g *InstanceGraph) validateCSR(et *EdgeType, srcs []NodeID, offs []int32, targets []NodeID) error {
	if len(offs) != len(srcs)+1 {
		return fmt.Errorf("tgm: edge type %q: %d offsets for %d sources", et.Name, len(offs), len(srcs))
	}
	if len(srcs) > 0 && (offs[0] != 0 || int(offs[len(srcs)]) != len(targets)) {
		return fmt.Errorf("tgm: edge type %q: offsets do not span targets", et.Name)
	}
	srcType, tgtType := g.schema.NodeType(et.Source), g.schema.NodeType(et.Target)
	srcLo, srcHi, srcContig := g.TypeIDRange(et.Source)
	prev := NodeID(-1)
	for i, src := range srcs {
		if src <= prev {
			return fmt.Errorf("tgm: edge type %q: sources not ascending at %d", et.Name, i)
		}
		prev = src
		if offs[i+1] < offs[i] {
			return fmt.Errorf("tgm: edge type %q: offsets not monotonic at %d", et.Name, i)
		}
		if srcContig {
			if src < srcLo || src > srcHi {
				return fmt.Errorf("tgm: edge %q source %d is not a %q node", et.Name, src, et.Source)
			}
		} else if sn := g.Node(src); sn == nil || sn.Type != srcType {
			return fmt.Errorf("tgm: edge %q source %d is not a %q node", et.Name, src, et.Source)
		}
	}
	if tgtLo, tgtHi, tgtContig := g.TypeIDRange(et.Target); tgtContig {
		for _, dst := range targets {
			if dst < tgtLo || dst > tgtHi {
				return fmt.Errorf("tgm: edge %q target %d is not a %q node", et.Name, dst, et.Target)
			}
		}
	} else {
		for _, dst := range targets {
			dn := g.Node(dst)
			if dn == nil || dn.Type != tgtType {
				return fmt.Errorf("tgm: edge %q target %d is not a %q node", et.Name, dst, et.Target)
			}
		}
	}
	return nil
}

// TypeIDRange reports the named type's node-ID span [lo, hi] and
// whether that span is contiguous, i.e. every ID in it belongs to the
// type. Kernels that key a dense array by a column's nodes index it by
// id − lo over hi − lo + 1 slots; a type with no nodes has the empty
// span [0, -1]. byType lists are ascending (IDs are assigned in
// insertion order), so the check is O(1).
func (g *InstanceGraph) TypeIDRange(name string) (lo, hi NodeID, contiguous bool) {
	ids := g.byType[name]
	if len(ids) == 0 {
		return 0, -1, false
	}
	lo, hi = ids[0], ids[len(ids)-1]
	return lo, hi, int(hi-lo) == len(ids)-1
}

// EdgeTypeCount returns the number of edges of the named type.
func (g *InstanceGraph) EdgeTypeCount(edgeType string) int {
	return g.edgeTotals[edgeType]
}

// AvgOutDegree returns the mean out-degree of the named edge type over
// all nodes of its source type (0 for unknown types or empty sources).
// It is the fan-out factor the etable engine orders pattern joins by,
// and it is exact before any adjacency loads: deferred edge types know
// their totals from the snapshot directory.
func (g *InstanceGraph) AvgOutDegree(edgeType string) float64 {
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return 0
	}
	n := len(g.byType[et.Source])
	if n == 0 {
		return 0
	}
	return float64(g.edgeTotals[edgeType]) / float64(n)
}

// Neighbors returns the targets of the given node's out-edges of the
// named edge type, in insertion order. This is the "quick
// neighbor-lookup" the paper relies on for entity-reference columns.
// The returned slice must not be modified.
func (g *InstanceGraph) Neighbors(id NodeID, edgeType string) []NodeID {
	if a := g.csr[edgeType]; a != nil {
		if a.ensure() != nil {
			return nil
		}
		return a.neighbors(id)
	}
	m := g.adj[edgeType]
	if m == nil {
		return nil
	}
	return m[id]
}

// Degree returns the number of out-neighbors of id along edgeType.
func (g *InstanceGraph) Degree(id NodeID, edgeType string) int {
	return len(g.Neighbors(id, edgeType))
}

// Adjacency is one edge type's out-adjacency with the edge-type name
// already resolved: the handle loops over many nodes of one type (a
// join probe, a sort key extraction, a window's count and render
// passes) hold instead of paying Neighbors' per-call name lookup. Unlike
// Neighbors it does not swallow a failed deferred load: Ensure returns
// the loader's error, and Degree/Neighbors may only be called once it
// returned nil.
type Adjacency struct {
	csr *csrAdj
	m   map[NodeID][]NodeID
}

// Adjacency resolves edgeType's adjacency handle. Resolution loads
// nothing — deferred adjacency materializes at the handle's first
// Ensure — and an unknown edge type yields a handle with no edges.
func (g *InstanceGraph) Adjacency(edgeType string) Adjacency {
	if a := g.csr[edgeType]; a != nil {
		return Adjacency{csr: a}
	}
	return Adjacency{m: g.adj[edgeType]}
}

// Ensure materializes deferred adjacency (InstallAdjacencyDeferred) and
// returns its load error; it is a nil check for every other form.
func (a Adjacency) Ensure() error {
	if a.csr == nil {
		return nil
	}
	return a.csr.ensure()
}

// Neighbors returns id's out-neighbors in insertion order; the slice
// must not be modified. CSR adjacency indexes in O(1), AddEdge-built
// graphs map-look-up.
func (a Adjacency) Neighbors(id NodeID) []NodeID {
	if a.csr == nil {
		return a.m[id]
	}
	return a.csr.neighbors(id)
}

// Degree returns the number of out-neighbors of id.
func (a Adjacency) Degree(id NodeID) int { return len(a.Neighbors(id)) }

// HasEdge reports whether a directed edge of the given type exists.
func (g *InstanceGraph) HasEdge(edgeType string, src, dst NodeID) bool {
	if a := g.csr[edgeType]; a != nil {
		if a.ensure() != nil {
			return false
		}
		for _, t := range a.neighbors(src) {
			if t == dst {
				return true
			}
		}
		return false
	}
	seen := g.edgeSeen[edgeType]
	if seen == nil {
		return false
	}
	return seen[uint64(uint32(src))<<32|uint64(uint32(dst))]
}

// FindNode returns the first node of the named type whose attribute
// equals v. It scans the type's nodes; callers needing repeated lookups
// should build their own index. Column fault failures report "not
// found".
func (g *InstanceGraph) FindNode(typeName, attr string, v value.V) (*Node, bool) {
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return nil, false
	}
	ai := nt.AttrIndex(attr)
	if ai < 0 {
		return nil, false
	}
	ids := g.byType[typeName]
	if len(ids) == 0 {
		return nil, false
	}
	col, err := g.block(nt).column(ai)
	if err != nil {
		return nil, false
	}
	for row, id := range ids {
		if value.Equal(col[row], v) {
			return g.nodes[id], true
		}
	}
	return nil, false
}

// Stats summarizes the instance graph: node counts per type and edge
// counts per edge type.
type Stats struct {
	NodesByType map[string]int
	EdgesByType map[string]int
	Nodes       int
	Edges       int
}

// ComputeStats returns counts for the whole graph.
func (g *InstanceGraph) ComputeStats() Stats {
	s := Stats{
		NodesByType: make(map[string]int),
		EdgesByType: make(map[string]int),
		Nodes:       len(g.nodes),
		Edges:       g.edgeCount,
	}
	for t, ids := range g.byType {
		s.NodesByType[t] = len(ids)
	}
	for et, n := range g.edgeTotals {
		s.EdgesByType[et] = n
	}
	return s
}

// SortedTypeNames returns node type names present in the instance graph,
// sorted, for deterministic reporting.
func (g *InstanceGraph) SortedTypeNames() []string {
	names := make([]string, 0, len(g.byType))
	for n := range g.byType {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
