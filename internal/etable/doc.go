// Package etable implements the paper's primary contribution: the ETable
// presentation data model. It defines the query pattern Q = (τa, T, P, C)
// (Definition 3), the primitive operators Initiate/Select/Add/Shift that
// incrementally build patterns (§5.3), and query execution as instance
// matching over the typed graph model followed by format transformation
// into an enriched table (§5.4).
//
// # Execution
//
// The matching core m(Q) has one engine (stream.go, matchPipeline): one
// join loop composed as pull-based morsel iterators (graphrel.RowSource)
// over the pattern's join units, each join stage probing one batch at a
// time against a unit as its build side. A unit is a node's selected
// base relation or, on a cache miss whose ancestor's match is resident,
// that match narrowed by the conjuncts the ancestor lacks and covering
// all its keys (derive.go): the operators of §5.3 are pattern deltas,
// so a miss derived through Select and Add joins only what its resident
// ancestor's match lacks. The pattern's derivation links (set by
// Pattern.Clone) are a hint; an ancestor is used only after a
// structural sub-pattern check. No intermediate ever exists in full;
// memory is proportional to the in-flight batches. The stream is
// always drained whole, into one of two sinks:
//
//   - MatchOpts splices it into one arena-backed relation;
//   - Executor.PrepareWithOpts — the server's one path — drains it
//     under MaxRows and runs the one Prepare kernel over the spliced
//     relation, which is the value the cache holds (prepareFromSource =
//     drain + PrepareOpts); with a spill policy, a drain that crosses
//     MaxRows replays the batches it retained through the external
//     folds, drops them, and keeps folding batch by batch — the folds,
//     and only the folds, write to disk runs. A full render is the
//     prepared presentation's WindowOpts(0, -1).
//
// Stages consume contiguous input runs in order, so the drained
// relation is the same, row for row, for every batch size and budget —
// which is what lets one cached relation serve every requester.
// ExecOptions.Parallelism reaches only the base selections
// (graphrel.Select, the one kernel that fans out). A pattern without
// edges runs nothing and never derives: its selected base relation is
// the match, served zero-copy, and its prepared rows are that base's
// column itself (ascending and distinct by construction). A pattern
// with edges always streams — also when a derived ancestor covers every
// node — so MaxRows and the spill tier treat derived and from-bases
// matches alike. MaxRows caps the drained result, never an
// intermediate.
//
// The engine's reference is the test-only oracle MatchNaive
// (match_oracle_test.go): conditions compiled on the spot, declaration
// join order, the algebra's materializing Join at every step.
//
// # Planning
//
// The engine plans from what it has measured. A Plan holds only what
// exists before any input relation does — per node, the condition its
// input still has to apply (the whole condition over a base, the added
// conjuncts over a derived ancestor's match), compiled to column
// kernels (expr.Compile → *expr.Pred), which graphrel.Select runs over
// the node type's pinned attribute columns — and matchPipeline builds
// it (buildPlan) on the match-cache miss that needs it. Plans are not cached: a repeated query hits its
// cached match, and a refined one its siblings' cached bases, before
// any predicate would be compiled (PERFORMANCE.md §18, §19, §21).
//
// The join order is chosen inside matchPipeline, after every unit is
// in hand, from the units' exact sizes (orderJoins): start at the
// smallest unit — a derived ancestor's match is not always it: a
// selective new node's base usually is — then extend greedily by
// |current| × tgm.AvgOutDegree(edge) × |unit(new)| / |type(new)|. No
// statistic is estimated for it — the package does not import
// internal/stats — and the worker budget passes through as the caller
// gave it: a Select over one morsel runs serially whatever the budget,
// so a small query pays no fan-out without a plan-level gate
// (PERFORMANCE.md §16, §17).
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
// There is one Prepare kernel, PrepareOpts: the rows are
// graphrel.DistinctSorted (a transient bitset read back in order; a
// joinless match's base column as it is), each
// participating column a graphrel.GroupNeighbors grouping in CSR form —
// the sorted row IDs as keys, shared by every column, plus offsets and
// one values array — so a presentation retains O(rows + deduplicated
// pairs), nothing sized by a node type, and cursors read a group by
// binary search on the row IDs (a sort of the prepared order reads
// group i as row i). A spilled prepare holds
// graphrel.SpilledGroups instead; groupSource has those two
// implementations. The matched relation is an input of Prepare, not a
// possession of the Presentation: nothing reads it afterwards, so the
// cache holds relations under plain LRU and a presentation stays valid
// after its relation is evicted.
//
// Caching. Cache is one lru.Cache of exactly its capacity, shared by
// every executor over a graph: bases and matches are keyed by signature,
// the least recently used relation of the whole cache is evicted first,
// and concurrent misses on one key share one computation (its waiters
// count as hits; an error or a panic caches nothing). A resident match
// also serves as an ancestor: the derivation walk finds it with a
// lookup that loads and counts nothing, so a derived miss makes no base
// lookups for the ancestor's nodes.
//
// Sort contract (sort.go). A sort is extract-then-sort: one pass over
// the current row order fills an []int64 key vector, and the keys —
// never the graph — are what the sort compares. A reference column's
// key is its count: on the prepared order the heap grouping's group i
// is row i, so the count is two offset loads; a view of a view (or a
// spilled grouping) looks the row up. A base attribute's key is the
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
// match itself when a join's edge type is the one that fails
// (graphrel.StreamJoin loads its handle at construction), so an
// unreadable section never reads as an empty, cacheable table.
package etable
