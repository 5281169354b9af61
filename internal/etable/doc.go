// Package etable implements the paper's primary contribution: the ETable
// presentation data model. It defines the query pattern Q = (τa, T, P, C)
// (Definition 3), the primitive operators Initiate/Select/Add/Shift that
// incrementally build patterns (§5.3), and query execution as instance
// matching over the typed graph model followed by format transformation
// into an enriched table (§5.4).
//
// # Execution
//
// The matching core m(Q) has one engine (stream.go, matchPipeline): the
// plan's join chain composed as pull-based morsel iterators
// (graphrel.RowSource) over the selected base relations. No
// intermediate ever exists in full; memory is proportional to the
// in-flight batches. What a caller gets depends only on how it consumes
// the stream:
//
//   - MatchOpts / Executor.MatchWithOpts drain it into one arena-backed
//     relation — the value that is cached;
//   - Executor.PrepareWithOpts drains it under MaxRows and runs the one
//     Prepare kernel over the spliced relation (PrepareFromSource =
//     drain + PrepareOpts); with a spill policy, a drain that crosses
//     MaxRows replays the batches it retained through the external
//     folds, drops them, and keeps folding batch by batch — the folds,
//     and only the folds, write to disk runs;
//   - MatchSource hands the stream out, so a window or LIMIT consumer
//     terminates upstream production after O(window) driving-side work.
//
// ExecOptions.Parallelism is the budget each stage may fan its batches
// out with; stages splice outputs in input order over contiguous input
// runs, so the drained relation is the same, row for row, for every
// budget and batch size — which is what lets one cached relation serve
// requesters that asked under different budgets. A pattern without
// joins runs nothing: its selected base relation is the match, served
// zero-copy. MaxRows caps the drained result, never an intermediate.
//
// The engine's reference is the test-only oracle MatchNaive
// (match_oracle_test.go): conditions compiled on the spot, declaration
// join order, the algebra's materializing Join at every step.
//
// # Planning
//
// The engine plans from what it has measured. A Plan holds only what
// exists before any base relation does — the compiled node predicates —
// and the engine and PlanForOpts resolve it through one function,
// planFor: a per-frozen-graph LRU cache keyed by the memoized pattern
// signature (a warm lookup costs a pointer load and one map probe,
// BenchmarkPlanCache). ExecOptions.NoPlanCache builds the plan without
// looking it up or inserting it (the plan-every-time arm of
// BenchmarkPlanCache). PlannerStatsFor exposes hits, misses and
// evictions; the server surfaces them at /api/v1/stats.
//
// The join order is chosen inside matchPipeline, after every base is
// selected, from the bases' exact sizes (orderJoins): start at the
// smallest selected base, then extend greedily by
// |current| × tgm.AvgOutDegree(edge) × |σ(new)| / |type(new)|. No
// statistic is estimated for it — the package does not import
// internal/stats — and the worker budget passes through as the caller
// gave it: a Select over one morsel and a StreamJoin refill of one
// batch run serially whatever the budget, so a small query pays no
// fan-out without a plan-level gate (PERFORMANCE.md §16).
//
// # Windowed presentation
//
// Prepare computes what depends on the whole matched relation (row set,
// column layout, per-column groupings) and no cells; Window materializes
// any row range of it; Sort and SortedView reorder the row IDs between
// the two. There is one Prepare kernel, PrepareOpts: the rows are
// graphrel.DistinctSorted (a transient bitset read back in order), each
// participating column a graphrel.GroupNeighbors grouping in CSR form —
// the sorted row IDs as keys, shared by every column, plus offsets and
// one values array — so a presentation retains O(rows + deduplicated
// pairs), nothing sized by a node type, and windows and sort keys read
// a group by binary search on the row IDs. A spilled prepare holds
// graphrel.SpilledGroups instead; groupSource has those two
// implementations. The matched relation is an input of Prepare, not a
// possession of the Presentation: nothing reads it afterwards, so the
// cache holds relations under plain LRU and a presentation stays valid
// after its relation is evicted.
//
// Sort contract (sort.go). A sort is extract-then-sort: one pass over
// the current row order fills a typed key vector, and the keys — never
// the graph — are what the sort compares. Key classes: []int64 for a
// reference count (a participating column's prepared grouping, a
// neighbor column's degree) and for an attribute column whose presented
// values are all INT or all BOOL; []string when they are all STRING;
// []value.V under value.Compare otherwise (NULLs, FLOATs, mixed kinds —
// the only cases where kind rank or numeric cross-kind comparison
// matters). Integer keys take an O(n + range) counting sort when their
// range is below denseSpan (4) buckets per row, decided from the data:
// counts, years, page numbers and foreign keys qualify, hashes and
// timestamps do not. Everything else is slices.SortFunc over (key,
// position, id) triples. Every kernel is stable — equal keys keep
// their current relative order (ascending node ID on a fresh
// presentation, whatever the previous sort left otherwise) — because
// the counting sort scatters in position order and the comparison sort
// breaks ties by position; Desc reverses keys, never ties. The result
// is exactly the permutation of a stable sort by value.Compare over the
// rendered table, which sort_test.go fuzzes against the oracle in
// sort_oracle_test.go. NaN is the exception: value.Compare reports it
// equal to everything, so no order is consistent with it and rows keyed
// NaN land in an unspecified, deterministic position.
//
// Adjacency. Neighbor columns hold a tgm.Adjacency handle resolved at
// Prepare; it loads nothing until a sort by that column or a non-empty
// window calls Ensure, so preparing over an out-of-core graph faults no
// adjacency in. A failed deferred load is returned from
// Sort/SortedView/Window as the loader's typed error — and from the
// match itself when a join's edge type is the one that fails
// (graphrel.StreamJoin loads its handle at construction), so an
// unreadable section never reads as an empty, cacheable table.
//
// Recycling. Windows draw their row/cell/ref storage from a
// sync.Pool-backed arena (windowStore). Callers that can guarantee sole
// ownership return the storage with Result.Recycle, making steady-state
// paging allocation-free; the serving layer qualifies because it
// encodes each window into its response buffer under the session's
// entry lock, before any later call on the session can recycle it.
// Recycling is strictly opt-in; a Result that is never recycled is
// garbage collected like any other value.
package etable
