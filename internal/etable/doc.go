// Package etable implements the paper's primary contribution: the ETable
// presentation data model. It defines the query pattern Q = (τa, T, P, C)
// (Definition 3), the primitive operators Initiate/Select/Add/Shift that
// incrementally build patterns (§5.3), and query execution as instance
// matching over the typed graph model followed by format transformation
// into an enriched table (§5.4).
//
// # Execution
//
// The matching core has one engine (stream.go, matchPipeline), and it
// does not build m(Q). Patterns are trees, and the format
// transformation reads one thing per participating column: the nodes
// related to each row. So a miss computes reduced node sets — each
// node's starting set (its selected base or, when an ancestor's match
// is resident, the ancestor's reduced set narrowed by the conjuncts it
// lacks: derive.go) reduced by a bottom-up and a top-down semi-join
// pass over the tree (graphrel.Reduce, Yannakakis 1981) — plus the
// exact |m(Q)| from a saturating product-sum. After a full reduction
// every member of a set extends to a full match, so a prepare groups
// each column's adjacency along its tree path inside the sets
// (graphrel.GroupPath). The derivation links set by Pattern.Clone are a
// hint; an ancestor is used only after a structural sub-pattern check.
//
// m(Q) is enumerated only where tuples are the product: MatchOpts runs
// the StreamJoin chain over the reduced sets from the primary
// (enumerate). No prepare enumerates it: past MaxRows a prepare fails
// with the exact count or, under a spill policy, runs the heap prepare
// with its groupings' values written to disk. A pattern without edges
// never derives: its selected base is its match.
// ExecOptions.Parallelism reaches only the base selections
// (graphrel.SelectSet, the one kernel that fans out).
//
// A pattern edge is walked parent → child and child → parent: through
// its type and the type's reverse, or, for a type stored one way only
// (a self-loop, which AddBidirectional and a self-referencing foreign
// key leave without a reverse), through its type and its transpose
// (tgm.InstanceGraph.Inverse); orientEdge marks such a step as walked
// against the type.
//
// The engine's reference is the test-only oracle MatchNaive
// (match_oracle_test.go): conditions compiled on the spot, declaration
// join order, a materialized join at every step — in the edge type's
// stored direction, so it never reads a transpose — and a map-based
// fold (foldOracle).
//
// # Planning
//
// A Plan holds per node the condition its starting set still has to
// apply (the whole condition over a base, the added conjuncts over a
// derived ancestor's set), compiled to column kernels (expr.Compile →
// *expr.Pred) that graphrel.SelectSet runs over the node type's pinned
// attribute columns. matchPipeline builds it (buildPlan) on the miss
// that needs it; plans are not cached (PERFORMANCE.md §18, §19, §21).
// There is no join order and no cost model: the reduction visits the
// tree the same way whatever the sets' sizes, each semi-join walking
// from its side with fewer nodes. The package does not import
// internal/stats.
//
// # Windowed presentation
//
// Prepare computes what depends on the whole matched relation (row set,
// column layout, per-column groupings) and no cells. A Cursor reads any
// row range of it, over any subset of its columns, in one serial pass —
// per row the primary node ID, per cell a base value or the reference
// IDs (a CSR segment, an adjacency list, or a spilled run read into one
// reused buffer) — pinning only the primary type's base columns it
// reads and no label column. Its two consumers are the server's state
// encoder, which writes bytes straight from it, and Window (WindowOpts,
// WindowColumns), which materializes a Result the caller owns for as
// long as it likes, allocating exactly the rows, cells and references
// it fills and reading the label columns. SortedView reorders the row
// IDs between the two phases. A prepared Presentation is immutable —
// SortedView returns a copy owning a fresh row-ID slice, and a view of
// a view stacks sorts — so any number of cursors may read one
// concurrently.
// There is one prepare, prepareSets: the rows are the primary's
// reduced set read ascending (the type's node list itself when the set
// holds every node), and each participating column a graphrel.Groups
// in CSR form — the row IDs as keys, shared by every column, plus
// offsets and one values array — so a presentation retains O(rows +
// deduplicated pairs), nothing sized by a node type. PrepareOpts
// prepares a matched relation through it, from the relation's
// projections. Past MaxRows under a spill policy the same loop hands
// each grouping to graphrel.SpillGroups, which writes its values to a
// run file and keeps its keys and offsets (graphrel.SpilledGroups), so
// a spilled and a heap presentation cannot differ in layout or
// content; groupSource has those two implementations. Nothing reads
// the reduced match after the prepare, so a presentation stays valid
// after the cache evicts it.
//
// Caching. Cache is one lru.Cache of exactly its capacity, shared by
// every executor over a graph, holding node sets (Reduced) for base
// and match keys alike: a few words per node instead of a tuple per
// match. The least recently used entry of the whole cache is evicted
// first, and concurrent misses on one key share one computation (its
// waiters count as hits; an error or a panic caches nothing). A
// resident match also serves as an ancestor: the derivation walk finds
// it with a lookup that loads and counts nothing.
//
// Sort contract (sort.go). A sort is extract-then-sort: one pass over
// the current row order fills an []int64 key vector, and the keys —
// never the graph — are what the sort compares. A reference column's
// key is its count: on the prepared order the grouping's group i is
// row i, so the count is two offset loads (CountAt, on either
// residency); a view of a view looks the row up. A base attribute's key is the
// row's rank in its column (tgm.InstanceGraph.AttrRank): the column's
// value.Compare order, built on the graph's first sort by that
// attribute and kept for the graph's lifetime, so no sort compares a
// string or a value. Keys take an O(n + range) counting sort when
// their range is below denseSpan (4) buckets per row — counts and the
// ranks of a table holding most of its type qualify — and otherwise
// slices.SortFunc over (key, position, id) triples, as the ranks of a
// selective filter do. Both kernels are stable — equal keys keep their
// current relative order (ascending node ID on a fresh presentation,
// the receiver's order on a view of a view) — because the counting
// sort scatters in position order and the comparison sort breaks ties
// by position; Desc reverses keys, never ties. The result is exactly
// the permutation of a stable sort by value.Compare over the rendered
// table, which sort_test.go fuzzes against the oracle in
// sort_oracle_test.go, with the rank's two exceptions: NaN, which
// value.Compare calls equal to every number, sorts as one block just
// below the column's lowest number, and a column mixing INTs and
// FLOATs past ±2^53, where value.Compare is not transitive, gets a
// total order that may disagree with it there. ValidateSort reads
// column names only; the rank, its column and any deferred adjacency
// are left for SortedView.
//
// Adjacency. Neighbor columns hold a tgm.Adjacency handle resolved at
// Prepare; it loads nothing until a sort by that column or a non-empty
// window calls Ensure, so preparing over an out-of-core graph faults no
// adjacency in. A failed deferred load is returned from
// SortedView/Window as the loader's typed error — and from the
// match itself when a kernel walks a pattern edge whose adjacency is
// the one that fails, so an unreadable section never reads as an
// empty, cacheable table. The reduction and the grouping load only the
// direction they walk: a pattern edge's other direction stays unloaded.
package etable
