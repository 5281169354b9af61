package tgm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// NodeID identifies a node in an instance graph. IDs are dense ordinals
// assigned at insertion, and each node type's IDs are one contiguous
// run [lo, hi] (TypeIDRange): a graph is built type by type, and the
// constructors reject a node that would reopen a closed run. So a
// node's row in its type's columns, and in NodesOfType, is id − lo.
type NodeID int32

// Node is one entity instance (Definition 2): its ID and type. Attribute
// values live column-major on the graph (see colBlock), at row ID − lo
// of the node's type.
type Node struct {
	ID   NodeID
	Type *NodeType
	blk  *colBlock
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
// whose columns live out of core, the column is pinned through the
// graph's ColumnSource for the read; a fault failure (e.g. snapshot
// corruption) returns the source's typed error.
func (n *Node) TryAttrAt(i int) (value.V, error) {
	b := n.blk
	if i < 0 || i >= len(b.cols) {
		return value.Null, fmt.Errorf("tgm: type %q has no attribute ordinal %d", n.Type.Name, i)
	}
	col, release, err := b.pin(i)
	if err != nil {
		return value.Null, err
	}
	defer release()
	return col.At(int(n.ID - b.lo)), nil
}

// Label returns label(v) = v[β_i]: the label attribute rendered as text.
func (n *Node) Label() string {
	return n.AttrAt(n.Type.LabelIndex()).Format()
}

// ColumnSource supplies node-attribute columns on demand for graphs
// whose columns live out of core (internal/snapshot's paged open).
// Implementations must be safe for concurrent use — the serving stack
// reads frozen graphs without synchronization.
type ColumnSource interface {
	// PinColumn returns the values of attribute ordinal ai of typeName,
	// aligned with NodesOfType(typeName), and keeps the column resident
	// (exempt from eviction) until release is called. The call may fault
	// the column in from disk; failures carry the implementation's typed
	// error (e.g. *snapshot.CorruptError) and no release. The column is
	// immutable and stays valid after release, even once the source
	// evicts it. Windows hold their pins while they render, so an
	// eviction storm cannot thrash sections out mid-materialization;
	// every other read pins and releases at once.
	PinColumn(typeName string, ai int) (col value.Column, release func(), err error)
}

// colBlock is one node type's column-major attribute storage: cols[ai]
// holds the attribute's values aligned with the type's row order, and
// lo is the type's first node ID, so node id's row is id − lo. A
// column with no rows is unresolved — its values live out of core and
// fault in through src on first access — unless the type has no nodes,
// which the graph's accessors answer with an empty column before asking
// the block.
type colBlock struct {
	typeName string
	lo       NodeID
	cols     []value.Column
	// bld[ai] appends AddNode's values to cols[ai]; nil until the first
	// AddNode of the type.
	bld []value.Builder
	src ColumnSource
}

// pin resolves column ai of a type that has nodes: a resident column
// comes back as is with a no-op release, an unresolved one is pinned
// through src. It is the one route to a column, behind
// PinAttrColumn (and so AttrColumn, AttrRank and FindNode) and
// Node.TryAttrAt, whose callers check ai.
func (b *colBlock) pin(ai int) (value.Column, func(), error) {
	if col := b.cols[ai]; col.Len() > 0 {
		return col, noopRelease, nil
	}
	if b.src == nil {
		return value.Column{}, nil, fmt.Errorf("tgm: type %q attribute %d has no column data and no column source", b.typeName, ai)
	}
	return b.src.PinColumn(b.typeName, ai)
}

// noopRelease is the shared release for columns that need no pinning.
func noopRelease() {}

// builders returns the block's AddNode builders, seeded with any column
// installed before them.
func (b *colBlock) builders() []value.Builder {
	if b.bld == nil {
		b.bld = make([]value.Builder, len(b.cols))
		for ai, col := range b.cols {
			for r := 0; r < col.Len(); r++ {
				b.bld[ai].Append(col.At(r))
			}
		}
	}
	return b.bld
}

// InstanceGraph is G_I = (V, E) from Definition 2, with per-edge-type
// adjacency indexes for the neighbor lookups the presentation layer
// performs.
//
// # Immutability contract
//
// An instance graph is built once (AddNode/AddEdge during translation,
// or the Install* bulk constructors during a snapshot load) and then
// read forever; the serving stack depends on this. Nodes are created
// type by type: each type's IDs are one contiguous run, which AddNode
// and InstallNodes enforce, so every reader addresses a node's column
// row as ID − lo with no per-node lookup. Freeze marks the end
// of the build phase: after Freeze, mutators fail and every read
// accessor — Node, NodesOfType, Neighbors, Degree, Adjacency,
// EdgeTypeCount, ComputeStats, FindNode, AttrColumn,
// AttrRank, Derive, Peek — is safe for unsynchronized concurrent use.
// Before Freeze a graph belongs to one goroutine: a read packs the
// edges AddEdge logged since the previous read. Freeze packs what is
// left and drops the logs; the deliberately lazy state after it is
// out-of-core attribute columns, whose residency is owned by the
// attached ColumnSource (which must itself be concurrency-safe),
// deferred adjacency (built once under a sync.Once, its load error
// kept) and derived state — attribute ranks, label fragments — built
// once per key in the graph's one registry (Derive).
// translate.Translate freezes the graph before returning it, which is
// what lets the server share one execution cache of reduced node sets
// (graphrel.Relation) across all sessions.
//
// # Storage layout
//
// Attribute values are stored column-major per node type (colBlock),
// one value.Column per attribute — a kind byte and a payload word per
// row plus one string blob, whether the column is eager, faulted in or
// built by AddNode (through a value.Builder). The in-memory shape
// matches the snapshot format's per-attribute column sections, so a
// snapshot decode installs columns wholesale (InstallColumn) and an
// out-of-core graph leaves them unresolved, faulting each column in
// through its ColumnSource on first touch. A string read from a column
// shares the column's blob: whatever keeps one past a fault clones it
// (value.V.Clone), or an evicted column stays reachable.
// Adjacency has one form, packed CSR arrays per edge type (csrAdj),
// whoever builds it: InstallAdjacency installs the snapshot's arrays,
// InstallAdjacencyDeferred loads them on first traversal, and AddEdge
// logs pairs that a read or Freeze packs into the same arrays.
type InstanceGraph struct {
	schema *SchemaGraph
	nodes  []*Node
	byType map[string][]NodeID
	blocks map[string]*colBlock
	colSrc ColumnSource
	// adj maps edge type name → the type's adjacency, however it was
	// built (see csrAdj).
	adj map[string]*csrAdj
	// frozen marks the graph immutable (see the immutability contract
	// above). Atomic so concurrent readers may assert it without racing
	// a late Freeze call.
	frozen atomic.Bool
	// derived is the registry of state derived from the frozen graph
	// (Derive): key → *derivedEntry. On the graph, so the state shares
	// its lifetime instead of pinning it in a process-global registry.
	derived sync.Map
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
	n       int // edge count, known before a deferred load
	// log is AddEdge's pairs in call order, duplicates included; stale
	// marks pairs logged since the last pack. It lives until Freeze, so
	// an AddEdge after an unfrozen read re-packs from all of it.
	log   [][2]NodeID
	stale bool
	// load defers materialization (InstallAdjacencyDeferred): the first
	// traversal fills the arrays through it, under once. Eagerly
	// installed adjacency has a nil load and pays only the nil check.
	load AdjacencyLoader
	once sync.Once
	err  error
}

var noEdges = &csrAdj{} // the adjacency of an edge type with no edges

// pack builds the arrays from the log: a stable counting sort by
// source over the log's source run keeps each source's targets in call
// order, and a first-occurrence pass over the target run drops repeats
// — the order and "duplicates ignored" AddEdge promises.
func (a *csrAdj) pack() {
	a.stale = false
	srcLo, srcHi, tgtLo, tgtHi := a.log[0][0], a.log[0][0], a.log[0][1], a.log[0][1]
	for _, e := range a.log {
		srcLo, srcHi = min(srcLo, e[0]), max(srcHi, e[0])
		tgtLo, tgtHi = min(tgtLo, e[1]), max(tgtHi, e[1])
	}
	span := int(srcHi-srcLo) + 1
	offs := make([]int32, span+1)
	for _, e := range a.log {
		offs[e[0]-srcLo+1]++
	}
	for i := 1; i <= span; i++ {
		offs[i] += offs[i-1]
	}
	targets := make([]NodeID, len(a.log))
	for _, e := range a.log { // offs[i] walks segment i, ending where i+1 starts
		targets[offs[e[0]-srcLo]] = e[1]
		offs[e[0]-srcLo]++
	}
	// seen[t−tgtLo] is 1 + the last source index that kept t.
	seen := make([]int32, int(tgtHi-tgtLo)+1)
	start, w := int32(0), int32(0)
	for i := 0; i < span; i++ {
		end := offs[i]
		offs[i] = w
		for _, t := range targets[start:end] {
			if seen[t-tgtLo] != int32(i+1) {
				seen[t-tgtLo] = int32(i + 1)
				targets[w] = t
				w++
			}
		}
		start = end
	}
	offs[span] = w
	a.base, a.offs, a.targets, a.n = srcLo, offs, targets[:w:w], int(w)
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
		return nil // no out-edges reads as nil, inside the run or outside it
	}
	return a.targets[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
}

// NewInstanceGraph returns an empty instance graph over schema.
func NewInstanceGraph(schema *SchemaGraph) *InstanceGraph {
	return &InstanceGraph{
		schema: schema,
		byType: make(map[string][]NodeID),
		blocks: make(map[string]*colBlock),
		adj:    make(map[string]*csrAdj),
	}
}

// Schema returns the schema graph this instance conforms to.
func (g *InstanceGraph) Schema() *SchemaGraph { return g.schema }

// Freeze marks the graph immutable: subsequent AddNode/AddEdge/Install*
// calls fail. It packs the edges AddEdge logged since the last read and
// drops the logs. Freezing is idempotent. Once frozen, the graph is safe
// for unsynchronized concurrent reads (see the type's immutability
// contract).
func (g *InstanceGraph) Freeze() {
	for name, a := range g.adj {
		if a.log != nil { // a frozen graph has none: a second Freeze writes nothing
			g.adjOf(name).log = nil
		}
	}
	g.frozen.Store(true)
}

// Frozen reports whether Freeze has been called.
func (g *InstanceGraph) Frozen() bool { return g.frozen.Load() }

// block returns (creating if needed) the column block for a node type.
func (g *InstanceGraph) block(nt *NodeType) *colBlock {
	b := g.blocks[nt.Name]
	if b == nil {
		b = &colBlock{typeName: nt.Name, cols: make([]value.Column, len(nt.Attrs)), src: g.colSrc}
		g.blocks[nt.Name] = b
	}
	return b
}

// AddNode inserts a node of the named type with the given attribute
// values (aligned with the type's Attrs) and returns its ID. Values are
// copied into the type's columns; a string that would take its column's
// string bytes past value.MaxBlob is an error. A type's run closes when
// a node of another type is added: adding to a closed type is an error
// (node IDs are public, so the graph never renumbers), and a failed
// AddNode leaves the graph unchanged.
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
	id := NodeID(len(g.nodes))
	ids := g.byType[typeName]
	if len(ids) > 0 && ids[len(ids)-1] != id-1 {
		return 0, fmt.Errorf("tgm: node type %q was closed by a later type; its IDs must be one run", typeName)
	}
	b := g.block(nt)
	bld := b.builders()
	for ai, v := range attrs {
		if v.Kind() == value.KindString && uint64(len(v.AsString())) > value.MaxBlob-uint64(bld[ai].BlobLen()) {
			return 0, fmt.Errorf("tgm: column %s.%s holds more than %d string bytes", typeName, nt.Attrs[ai].Name, uint64(value.MaxBlob))
		}
	}
	if len(ids) == 0 {
		b.lo = id
	}
	g.nodes = append(g.nodes, &Node{ID: id, Type: nt, blk: b})
	g.byType[typeName] = append(ids, id)
	for ai, v := range attrs {
		bld[ai].Append(v)
		b.cols[ai] = bld[ai].Column()
	}
	return id, nil
}

// InstallNodes bulk-creates every node of the graph at once: owner[gid]
// is the index (into Schema().NodeTypes() order) of the type that owns
// global ID gid. Each type's IDs must be one run, so an owner array in
// which a type reappears after another type's run is an error. It is
// the snapshot decode path's constructor — one arena allocation for all
// nodes instead of one per AddNode — and leaves every attribute column
// unresolved: provide values with InstallColumn (eager decode) or
// SetColumnSource (out-of-core). The graph must be empty and unfrozen.
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
		if counts[ti] > 0 && owner[gid-1] != ti {
			return fmt.Errorf("tgm: node %d reopens type %q; its IDs must be one run", gid, nts[ti].Name)
		}
		counts[ti]++
	}
	arena := make([]Node, len(owner))
	nodes := make([]*Node, len(owner))
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
		if len(perType[ti]) == 0 {
			blks[ti].lo = NodeID(gid)
		}
		arena[gid] = Node{ID: NodeID(gid), Type: nts[ti], blk: blks[ti]}
		nodes[gid] = &arena[gid]
		perType[ti] = append(perType[ti], NodeID(gid))
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
// aligned with NodesOfType(typeName). Columns are immutable, so the
// graph shares col (the snapshot decoder hands over freshly decoded
// columns, and eager loads pay no second copy).
func (g *InstanceGraph) InstallColumn(typeName string, ai int, col value.Column) error {
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
	if col.Len() != len(g.byType[typeName]) {
		return fmt.Errorf("tgm: column %s[%d] has %d values for %d nodes",
			typeName, ai, col.Len(), len(g.byType[typeName]))
	}
	b := g.block(nt)
	b.cols[ai] = col
	b.bld = nil // a later AddNode re-seeds its builders from cols
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
// aligned with NodesOfType(typeName): PinAttrColumn, released at once.
// For out-of-core graphs the column is faulted in through the
// ColumnSource (typed errors propagate); for memory-resident graphs
// this returns the stored column.
func (g *InstanceGraph) AttrColumn(typeName string, ai int) (value.Column, error) {
	col, release, err := g.PinAttrColumn(typeName, ai)
	if err != nil {
		return value.Column{}, err
	}
	release()
	return col, nil
}

// PinAttrColumn is AttrColumn plus residency: for out-of-core graphs
// the column stays resident (exempt from buffer-pool eviction) until
// release is called. For memory-resident graphs release is a no-op. A
// type with no nodes has empty columns, whatever backs the graph.
// Callers must call release exactly once.
func (g *InstanceGraph) PinAttrColumn(typeName string, ai int) (value.Column, func(), error) {
	nt := g.schema.NodeType(typeName)
	if nt == nil {
		return value.Column{}, nil, fmt.Errorf("tgm: unknown node type %q", typeName)
	}
	if ai < 0 || ai >= len(nt.Attrs) {
		return value.Column{}, nil, fmt.Errorf("tgm: type %q has no attribute ordinal %d", typeName, ai)
	}
	if len(g.byType[typeName]) == 0 {
		return value.Column{}, noopRelease, nil
	}
	return g.block(nt).pin(ai)
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
func (g *InstanceGraph) NumEdges() int {
	n := 0
	for name := range g.adj {
		n += g.adjOf(name).n
	}
	return n
}

// NodesOfType returns the IDs of all nodes of the named type, in
// insertion order. The returned slice must not be modified.
func (g *InstanceGraph) NodesOfType(typeName string) []NodeID {
	return g.byType[typeName]
}

// AddEdge inserts a directed edge of the named type and, when the type
// has a registered reverse, the corresponding reverse edge. Duplicate
// edges are ignored. Node types of the endpoints are checked. The pair
// goes to the type's build log; the next read or Freeze packs it. An
// edge type (or its reverse) whose adjacency was installed wholesale
// (InstallAdjacency*) has no log to extend: AddEdge refuses it and
// changes nothing.
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
	for _, name := range []string{et.Name, et.Reverse} {
		if a := g.adj[name]; name != "" && a != nil && a.log == nil {
			return fmt.Errorf("tgm: edge type %q adjacency was installed; AddEdge cannot extend it", name)
		}
	}
	g.logEdge(et.Name, src, dst)
	if et.Reverse != "" {
		g.logEdge(et.Reverse, dst, src)
	}
	return nil
}

func (g *InstanceGraph) logEdge(edgeType string, src, dst NodeID) {
	a := g.adj[edgeType]
	if a == nil {
		a = &csrAdj{}
		g.adj[edgeType] = a
	}
	a.log = append(a.log, [2]NodeID{src, dst})
	a.stale = true
}

// adjOf returns edgeType's adjacency (noEdges for a type with none),
// packing the pairs AddEdge logged since the last read.
func (g *InstanceGraph) adjOf(edgeType string) *csrAdj {
	a := g.adj[edgeType]
	if a == nil {
		a = noEdges
	} else if a.stale {
		a.pack()
	}
	return a
}

// InstallAdjacency installs one edge type's entire adjacency wholesale
// in CSR form: srcs ascending, offs of length len(srcs)+1, and
// targets[offs[i]:offs[i+1]] the i-th source's out-neighbors in the
// order Neighbors must return them. It is the snapshot decode path's
// bulk install, and an edge type has one adjacency: installing over
// AddEdge's edges, or installing twice, is an error. Endpoint types and
// ID ranges are validated.
func (g *InstanceGraph) InstallAdjacency(edgeType string, srcs []NodeID, offs []int32, targets []NodeID) error {
	if g.frozen.Load() {
		return fmt.Errorf("tgm: graph is frozen; cannot install adjacency for %q", edgeType)
	}
	et := g.schema.EdgeType(edgeType)
	if et == nil {
		return fmt.Errorf("tgm: unknown edge type %q", edgeType)
	}
	if g.adj[edgeType] != nil {
		return fmt.Errorf("tgm: edge type %q adjacency already installed", edgeType)
	}
	if err := g.validateCSR(et, srcs, offs, targets); err != nil {
		return err
	}
	a := &csrAdj{n: len(targets)}
	a.install(srcs, offs, targets)
	g.adj[edgeType] = a
	return nil
}

// AdjacencyLoader produces one edge type's CSR arrays on first
// traversal (see InstallAdjacencyDeferred).
type AdjacencyLoader func() (srcs []NodeID, offs []int32, targets []NodeID, err error)

// InstallAdjacencyDeferred registers an edge type whose CSR arrays are
// materialized by load on the first Neighbors/Degree/Ensure touching
// the type, instead of at install time — the out-of-core open's bulk
// alternative to InstallAdjacency. targetCount is the type's edge
// count (known from the snapshot directory without decoding the
// arrays), so NumEdges and EdgeTypeCount are exact
// before any traversal. The loaded arrays pass exactly the validation
// InstallAdjacency applies; a load or validation failure is cached and
// leaves the type with empty adjacency — the name-keyed accessors
// (Neighbors, Degree) see no edges, never a panic, while an
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
	if g.adj[edgeType] != nil {
		return fmt.Errorf("tgm: edge type %q adjacency already installed", edgeType)
	}
	g.adj[edgeType] = &csrAdj{n: targetCount, load: func() ([]NodeID, []int32, []NodeID, error) {
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
	return nil
}

// validateCSR checks one edge type's CSR arrays: offsets span targets
// monotonically, sources are ascending, and every endpoint is a node
// of the declared type. A type's node IDs are one run (TypeIDRange), so
// membership is two integer compares per endpoint with no node
// dereference at all.
func (g *InstanceGraph) validateCSR(et *EdgeType, srcs []NodeID, offs []int32, targets []NodeID) error {
	if len(offs) != len(srcs)+1 {
		return fmt.Errorf("tgm: edge type %q: %d offsets for %d sources", et.Name, len(offs), len(srcs))
	}
	if len(srcs) > 0 && (offs[0] != 0 || int(offs[len(srcs)]) != len(targets)) {
		return fmt.Errorf("tgm: edge type %q: offsets do not span targets", et.Name)
	}
	srcLo, srcHi := g.TypeIDRange(et.Source)
	prev := NodeID(-1)
	for i, src := range srcs {
		if src <= prev {
			return fmt.Errorf("tgm: edge type %q: sources not ascending at %d", et.Name, i)
		}
		prev = src
		if offs[i+1] < offs[i] {
			return fmt.Errorf("tgm: edge type %q: offsets not monotonic at %d", et.Name, i)
		}
		if src < srcLo || src > srcHi {
			return fmt.Errorf("tgm: edge %q source %d is not a %q node", et.Name, src, et.Source)
		}
	}
	tgtLo, tgtHi := g.TypeIDRange(et.Target)
	for _, dst := range targets {
		if dst < tgtLo || dst > tgtHi {
			return fmt.Errorf("tgm: edge %q target %d is not a %q node", et.Name, dst, et.Target)
		}
	}
	return nil
}

// TypeIDRange reports the named type's node-ID run [lo, hi]: every ID
// in it belongs to the type (the graph's one-run invariant), and node
// id's row in the type's columns and in NodesOfType is id − lo. A type
// with no nodes has the empty run [0, -1].
func (g *InstanceGraph) TypeIDRange(name string) (lo, hi NodeID) {
	ids := g.byType[name]
	if len(ids) == 0 {
		return 0, -1
	}
	return ids[0], ids[len(ids)-1]
}

// EdgeTypeCount returns the number of edges of the named type.
func (g *InstanceGraph) EdgeTypeCount(edgeType string) int {
	return g.adjOf(edgeType).n
}

// Neighbors returns the targets of the given node's out-edges of the
// named edge type, in insertion order. This is the "quick
// neighbor-lookup" the paper relies on for entity-reference columns.
// The returned slice must not be modified.
func (g *InstanceGraph) Neighbors(id NodeID, edgeType string) []NodeID {
	a := g.adjOf(edgeType)
	if a.ensure() != nil {
		return nil
	}
	return a.neighbors(id)
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
}

// Adjacency resolves edgeType's adjacency handle. Resolution loads
// nothing — deferred adjacency materializes at the handle's first
// Ensure — and an unknown edge type yields a handle with no edges.
func (g *InstanceGraph) Adjacency(edgeType string) Adjacency {
	return Adjacency{g.adjOf(edgeType)}
}

// Ensure materializes deferred adjacency (InstallAdjacencyDeferred) and
// returns its load error; it is a nil check for every other edge type.
func (a Adjacency) Ensure() error { return a.csr.ensure() }

// Neighbors returns id's out-neighbors in insertion order; the slice
// must not be modified. A lookup is one subtraction and two loads.
func (a Adjacency) Neighbors(id NodeID) []NodeID { return a.csr.neighbors(id) }

// Degree returns the number of out-neighbors of id.
func (a Adjacency) Degree(id NodeID) int { return len(a.Neighbors(id)) }

// inverseKey is the derived-state key of a one-way edge type's
// transposed adjacency.
type inverseKey string

// Inverse resolves the adjacency oriented against edgeType: its
// registered reverse's, or, for a type stored one way only (a
// self-loop: AddBidirectional and a self-referencing foreign key
// register no reverse), edgeType's own arrays transposed. Like
// Adjacency it loads nothing: the transpose is built at the handle's
// first Ensure, fails with edgeType's load error, and on a frozen graph
// is built once and kept (Derive).
func (g *InstanceGraph) Inverse(edgeType string) Adjacency {
	if et := g.schema.EdgeType(edgeType); et != nil && et.Reverse != "" {
		return g.Adjacency(et.Reverse)
	}
	inv, _ := Derive(g, inverseKey(edgeType), func() (*csrAdj, error) {
		fwd := g.adjOf(edgeType)
		return &csrAdj{n: fwd.n, load: fwd.transpose}, nil
	})
	return Adjacency{inv}
}

// transpose returns a's arrays reversed, in InstallAdjacency's form: a
// counting sort of the edges by target over the targets' span (each
// target a source of the result, edgeless ones included), so every
// target's sources ascend.
func (a *csrAdj) transpose() ([]NodeID, []int32, []NodeID, error) {
	if err := a.ensure(); err != nil || len(a.targets) == 0 {
		return nil, nil, nil, err
	}
	lo, hi := a.targets[0], a.targets[0]
	for _, t := range a.targets {
		lo, hi = min(lo, t), max(hi, t)
	}
	srcs, offs := make([]NodeID, int(hi-lo)+1), make([]int32, int(hi-lo)+2)
	for _, t := range a.targets {
		offs[t-lo+1]++
	}
	for i := range srcs {
		srcs[i], offs[i+1] = lo+NodeID(i), offs[i+1]+offs[i]
	}
	at, out := append([]int32(nil), offs[:len(srcs)]...), make([]NodeID, len(a.targets))
	for i := 0; i+1 < len(a.offs); i++ {
		for _, t := range a.targets[a.offs[i]:a.offs[i+1]] {
			out[at[t-lo]] = a.base + NodeID(i)
			at[t-lo]++
		}
	}
	return srcs, offs, out, nil
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
	col, err := g.AttrColumn(typeName, nt.AttrIndex(attr))
	if err != nil {
		return nil, false
	}
	for row, id := range g.byType[typeName] {
		if value.Equal(col.At(row), v) {
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
	}
	for t, ids := range g.byType {
		s.NodesByType[t] = len(ids)
	}
	for et := range g.adj {
		s.EdgesByType[et] = g.adjOf(et).n
		s.Edges += s.EdgesByType[et]
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
