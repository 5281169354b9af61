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
// does not build m(Q)'s tuples. Patterns are trees, and the format
// transformation reads one thing per participating column: the nodes
// related to each row. So a miss computes reduced node sets — each
// node's starting set (its selected base or, when an ancestor's match
// is resident, the ancestor's reduced set narrowed by the conjuncts it
// lacks: derive.go) reduced by a bottom-up and a top-down semi-join
// pass over the tree (graphrel.Reduce, Yannakakis 1981) into one
// graphrel.Relation, the match's only form. No option caps a match,
// because what a presentation holds does not grow with it. After a full
// reduction every member of a set extends to a full match, so a row's
// cell is its adjacency along the column's tree path filtered by the
// sets (graphrel.Path), computed when a window reads it. The derivation
// links set by Pattern.Clone are a hint; an ancestor is used only after
// a structural sub-pattern check.
//
// No tuple of m(Q) is stored: |m(Q)| is counted on request only, by
// Relation.Len's walk through the reduced sets. MatchOpts is a miss
// without a cache and PrepareOpts the prepare of its relation, so the
// benchmark harness's traced twin times what a request runs. A pattern
// without edges never derives: its selected base is its match. The one
// served entry is Cache.Prepare, and every kernel runs on its caller's
// goroutine, checking the request context between morsels and
// semi-join steps.
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
// join order, a materialized nested-loop join of its own at every step
// — in the edge type's stored direction, so it never reads a transpose
// — into a tuple type of its own, and a map-based fold (foldOracle).
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
// from its side with fewer nodes. No graph statistics exist for it to
// read.
//
// # Windowed presentation
//
// A presentation is its reduced sets, held factorised and enumerated on
// demand (Olteanu & Závodný, TODS 2015). There is one prepare,
// prepareSets, and it stores no cell: the rows are the primary's
// reduced set with a rank directory over its words (one int32 per 64
// IDs; none when the set holds every node of the type, whose row i is
// then the type's first ID + i), and each participating column keeps
// its tree path from the primary — the reduced set and the adjacency
// into it at every hop (graphrel.Path). A presentation retains
// O(set words + columns), nothing per row and nothing sized by |m(Q)|.
// PrepareOpts prepares MatchOpts' relation through it. Nothing reads
// the cache entry after the prepare, so a presentation stays valid
// after the cache evicts it.
//
// A Cursor reads any row range, over any subset of the columns, in one
// serial pass. It seeks its first row once (a binary search over the
// rank directory) and then walks the set's bits; a sorted view walks
// its permutation. Per cell it yields a base value or the reference IDs:
// a neighbor column's adjacency list as it is, or a participating
// cell computed by graphrel.Path.Refs into one pooled buffer the cursor
// reuses — r's adjacency hop by hop, keeping each hop's set members.
// A one-hop cell is sorted only when its segment is insertion-ordered
// (Paper_Authors' is); a deeper one, which can reach a node twice,
// marks each node it keeps in a two-level bitset over the column set's
// span, which orders and deduplicates it, and reads the marks back. A
// cursor pins only the primary type's base columns it reads and no
// label column.
// Its two consumers are the server's state encoder, which writes bytes
// straight from it, and Window (WindowOpts, WindowColumns), which
// materializes a Result the caller owns, gathering every cell once into
// pooled scratch and then allocating exactly the rows, cells and
// references it fills. A
// prepared Presentation is immutable — SortedView returns a copy owning
// a fresh permutation, and a view of a view stacks sorts — so any
// number of cursors may read one concurrently.
//
// Caching. Cache is one lru.Cache of exactly its capacity, shared by
// every session over a graph, holding node sets (*graphrel.Relation)
// for base and match keys alike — a base is the one-node case: a few
// words per node instead of a tuple per match. The least recently used
// entry of the whole cache is evicted first, and concurrent misses on one key share one computation (its
// waiters count as hits; an error or a panic caches nothing). A
// resident match also serves as an ancestor: the derivation walk finds
// it with a lookup that loads and counts nothing.
//
// Sort contract (sort.go). A sort is extract-then-sort: one pass over
// the current row order fills an []int64 key vector, and the keys —
// never the graph — are what the sort compares. A participating
// column's key is its count, read from the column's count vector: every
// row's cell size indexed by the row's rank in the primary's set, built
// by the first sort by the column (once, shared by every view of the
// prepare), so a view of a view reads it at the row's rank with one
// popcount. A neighbor column's key is the row's degree. A base
// attribute's key is the
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
// Adjacency. Reference columns hold tgm.Adjacency handles resolved at
// Prepare; they load nothing until a sort by that column or a non-empty
// window calls Ensure, so preparing over an out-of-core graph faults no
// adjacency in. A failed deferred load is returned from
// SortedView/Window as the loader's typed error — and from the
// match itself when a kernel walks a pattern edge whose adjacency is
// the one that fails, so an unreadable section never reads as an
// empty, cacheable table. The reduction loads only the direction it
// walks; a participating cell walks each edge of its path from the
// primary down.
package etable
