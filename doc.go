// Package repro is a from-scratch Go reproduction of "Interactive
// Browsing and Navigation in Relational Databases" (Kahng, Navathe,
// Stasko, Chau; PVLDB 9(12), 2016) — the ETable presentation data model,
// the typed graph model it executes over, the incremental query
// operators and user-level actions, the three-tier system architecture,
// and the full evaluation harness that regenerates every table and
// figure of the paper. See README.md for a tour and DESIGN.md for the
// system inventory and experiment index.
//
// # Concurrent serving core
//
// The paper's §6.2 application server hosts many interactive users over
// one immutable TGDB. The serving stack is concurrent end to end:
//
//   - internal/tgm: the instance graph is frozen after translation
//     (InstanceGraph.Freeze); every read accessor is lock-free and safe
//     for unsynchronized concurrent use because nothing mutates.
//   - internal/graphrel: relations and node sets are immutable once
//     built and shared without copying (the package documents the
//     sharing contract).
//   - internal/lru: the one cache implementation — a mutex-guarded LRU
//     of exact capacity with singleflight loads, pins and hit/miss/
//     eviction counters. Every cache below is an lru.Cache.
//   - internal/etable: one etable.Cache — an LRU of exactly -cache
//     reduced matches and base node sets with singleflight
//     deduplication — is shared by every session, so N users executing
//     the same pattern signature compute it once. Executor is a thin
//     per-session view over the cache.
//   - internal/session: each Session has its own mutex and small LRU
//     memos of presentations, sorted views and windows, so concurrent
//     requests on one session serialize per session, not per server.
//   - internal/server: the session table is an LRU of -max-sessions,
//     also swept by TTL; responses are paginated (offset/limit) so a
//     request encodes a row window, not the whole table.
//
// Lock ordering is strictly the session table's lru mutex → server
// entry.mu (per-session request serialization) → session.mu → the
// execution cache's lru mutex (each released before the next is taken
// where possible, and never acquired in reverse); every lru mutex is a
// leaf that no load runs under, which makes deadlock impossible by
// construction. PERFORMANCE.md records the measured effect versus the
// previous global-mutex serving core.
//
// # Operation protocol
//
// The paper's user-level actions (§6.1) have a first-class, serializable
// representation: internal/ops defines a JSON tagged-union algebra
// (Open/Filter/FilterByNeighbor/Pivot/Single/Seeall/Sort/Hide/Show/
// Revert, plus ops.Pipeline for ordered batches) with Validate(schema)
// and Compile, so malformed operations are rejected — with the stable
// code invalid_op — before they touch any session. The op algebra is the
// single source of truth for session mutation:
//
//   - internal/session: Session.Apply executes one op, ApplyPipeline
//     executes a batch atomically (all-or-nothing with rollback), and
//     the imperative methods are thin wrappers. Every history entry
//     records its originating op, so Session.Export serializes a
//     session to a replayable operation log and Session.Replay
//     deterministically rebuilds identical state over the same graph —
//     which is also how sessions survive server-side eviction.
//   - internal/server: the versioned /api/v1 surface speaks ops
//     natively — POST .../ops applies a single op or an atomic batch
//     with one response snapshot, GET .../history exports the op log,
//     POST .../replay restores it, and errors use structured
//     {code, message, op_index} envelopes with proper 400/404/410
//     statuses. Results page by offset/limit or by opaque cursors that
//     detect staleness across state changes. There is no other route
//     family: the unversioned /api/* aliases were deleted in PR 25.
//   - pkg/client: the typed Go SDK (the first public package) with
//     per-op builders, retry/backoff, pagination iterators, and
//     history export/replay. docs/API.md documents every route.
//
// # Execution and cancellation
//
// Sessions are concurrent; a single query runs on its request's
// goroutine. A morsel-driven fan-out of the selection over a shared
// worker pool was raced against this serial loop at one and at two
// benchmark clients and never won beyond the runs' spread, so it was
// deleted (ROADMAP item 10, PERFORMANCE.md §31): a request uses at most
// one CPU, and multicore speedup within a query is unmeasured and
// absent.
//
//   - internal/graphrel: SelectSet scans a selection's input IDs one
//     2048-ID morsel at a time, checks the request context before each,
//     and sets each morsel's kept members' bits straight into the set.
//     The semi-join kernels and a window are serial passes too. The
//     kernels never hash a node ID: IDs are dense ordinals, so a node
//     set is a bitset over its own span (graphrel.NodeSet), walked
//     through tgm.Adjacency handles.
//   - No graph statistics are collected: the engine plans from the
//     exact sets it selects. A snapshot's STAT section (per-attribute
//     NDVs, per-edge degree summaries) is written by internal/snapshot
//     alone so format version 2's bytes stay unchanged, and no load
//     decodes it.
//   - internal/etable: Execute takes an ExecOptions struct whose one
//     live field is the cancellation context (Ctx).
//   - internal/session + internal/server: the request context threads
//     through ApplyCtx/ApplyPipelineCtx/WindowCtx down to the kernels; a
//     ?parallelism= query parameter is ignored. A disconnected client
//     cancels its context and the query stops between morsels (HTTP 499
//     in logs). A handler that panics is answered 500 internal and its
//     session stays usable.
//
// # Planning
//
// There is one match engine (internal/etable/stream.go), and it does
// not join. A pattern is a tree, and the format transformation reads
// one thing per participating column: each row's related nodes. So a
// miss selects each node's starting set, runs a full semi-join
// reduction over the tree (Yannakakis 1981; graphrel.Reduce: a
// bottom-up and a top-down pass of bitset semi-joins); the cache holds
// those node sets, and a row's cell in a participating column is its
// adjacency along the column's tree path filtered by them
// (graphrel.Path), computed when a window reads it. The reduction loads
// only the adjacency direction it walks, and an edge type stored one
// way only (a self-loop without a reverse) is walked back through its
// transpose (tgm.InstanceGraph.Inverse). The kernels' scratch arrays
// are pooled. m(Q) is enumerated only where tuples are the product —
// etable.MatchOpts — by one depth-first walk of the tree's adjacency
// through the reduced sets (graphrel.Enumerate). No
// match is refused for its size. The server's one path is
// Executor.PrepareWithOpts plus a window. A plan is the pattern's
// compiled node predicates, built on the miss that needs it and not
// cached. A miss derived through the §5.3 operators from a pattern
// whose match is resident reuses that intermediate result (§9, future
// work 2): the ancestor's reduced sets, narrowed by the conjuncts it
// lacks, start its nodes — after a structural sub-pattern check, never
// on the derivation link alone. There is no join order and no cost
// model. PERFORMANCE.md §13–§19 record how the join planner, the plan
// cache and the parallelism gate went, §25 the census and the pairs
// behind derivation, and §26 the semi-join engine.
//
// # Windowed presentation
//
// The format transformation (§5.4.2) is prepared and windowed rather
// than monolithic, and a presentation is its reduced sets held
// factorised (Olteanu & Závodný, TODS 2015): a prepare keeps the
// primary's set as the rows (with a rank directory over its words) and
// each participating column's tree path of reduced sets, and stores no
// cell. A cursor seeks its first row once and computes each cell it
// reads; etable.Presentation.Window materializes any [offset,
// offset+limit) row range on demand, in one serial transformRange pass
// — a window is a page, never a morsel's worth of rows.
//
// Ownership: a Presentation owns everything its windows read — the
// reduced sets, column layout, adjacency handles. The cache entry the
// sets came from (Executor.PrepareWithOpts takes it from the shared
// execution cache) is never read again, so the cache may evict it at
// any time: a page fetch costs O(window), never a re-match or a full
// re-render. The session layer prepares one Presentation per pattern,
// and sort variants of one pattern share that single prepared
// presentation: Presentation.SortedView — the one sort — owns only a
// row permutation while sharing the sets, the column layout and the
// count vectors a sort by a participating column builds once, so
// toggling sort direction never re-prepares and a prepared
// presentation is immutable. Sorting happens on the row
// order (no cells), so sort-then-page equals full-render-then-slice by
// construction.
//
// Sort contract: the sort op is extract-then-sort (internal/etable/
// sort.go). One pass over the row order fills a typed key vector —
// []int64 for reference counts and for attribute columns whose
// presented values are all INT or all BOOL, []string when all STRING,
// []value.V compared with value.Compare for NULLs, FLOATs and mixed
// kinds — and no comparison goes back to the graph. Integer keys whose
// range is at most four buckets per row (counts, years, page numbers,
// foreign keys) take an O(n) counting sort; everything else a
// comparison sort of (key, position) pairs. The sort is stable under
// every kernel — equal keys keep their current order, Desc flips only
// the key comparison — and the permutation equals sort.SliceStable by
// value.Compare over the rendered table, fuzz-tested; NaN alone, which
// value.Compare cannot order, lands in an unspecified position.
// Neighbor counts and references are read through a tgm.Adjacency
// handle resolved once per presentation; a deferred adjacency that
// fails to load fails the sort or the window with its typed error
// instead of reading as "no neighbours".
//
// Encoding: the server writes every state response straight from the
// window's *etable.Result into a pooled buffer (internal/server/
// encode.go) while the session's entry lock is held, so an op and the
// state it returns are one atomic unit. A Result is an ordinary value
// that owns exactly the rows, cells and references it holds; later
// calls on the session never touch it. The bytes are exactly
// encoding/json's for the struct copy this replaced (kept as the test
// reference), Content-Length is always set, and the status is
// committed only after encoding succeeded. Every request body is read
// through one bound (1 MiB); a longer one is 413 body_too_large.
//
// Cursor invalidation: HTTP cursors fingerprint the presentation state
// they were issued against; any op that changes the table invalidates
// them (409 stale_cursor), and the client re-pages the new state.
//
// Memory bound: a session holds at most 8 prepared presentations (its
// presentation memo, least recently read evicted first); node sets are
// held by the cache alone, so -cache is the number of reduced matches
// and base sets resident, whatever the session count.
//
// Allocation discipline in the transform: all cells of a window share
// one backing array, entity references are carved from one arena sized
// by one gather of every cell into pooled scratch (empty lists share a
// single slice), and the rows come out of the primary's reduced bitset
// already ordered. Each reference column reads its target type's
// label column directly at id-lo (a type's node IDs are one
// contiguous run), and non-string
// labels are interned per window so N references to one node share one
// rendered string. PERFORMANCE.md §6 records the page-fetch
// measurements (BenchmarkFigure7Pipeline), §20 the label and encoder
// fast paths.
//
// # Persistence and datasets
//
// internal/snapshot serializes a frozen TGDB — schema, node columns
// and both adjacency directions — into a versioned columnar file (.etsnap) with per-section CRC-32C
// checksums; Load rebuilds a frozen graph that serves byte-identical
// query results without re-running translation (corrupt or
// version-skewed files fail with typed errors, never panics; see
// docs/SNAPSHOT.md for the format). internal/registry names many such
// datasets in one server process: each owns its own execution
// cache, lazy snapshot datasets load on first
// request (singleflight), and sessions bind to one dataset at
// creation. The HTTP surface grows /api/v1/datasets (list/inspect) and
// /api/v1/datasets/{name}/sessions/... routing, with the unscoped
// /api/v1 routes serving the registry's default dataset.
// etable-translate -o writes a snapshot; etable-server -snapshot
// boots from one (3.8× faster than regenerate+translate at the
// 5k-paper default, PERFORMANCE.md §9) and repeatable -dataset
// name=path flags register more.
//
// # Out-of-core snapshots
//
// The snapshot tier has one decoder with two residency policies.
// snapshot.Load/Decode are resident: every section's checksum is
// verified, every column is decoded and every edge type converted at
// boot, and the file's bytes are released. snapshot.LazyLoad
// (etable-server -lazy) is paged: the same open validates the header,
// section table, and skeleton sections only — O(section table), not
// O(corpus) — leaving every attribute column as an unresolved handle
// and every edge type's CSR arrays as a deferred conversion. Both
// resolve a column through one routine: range check, per-column
// CRC-32C, decode. Paged columns
// fault in through a bounded buffer pool inside internal/snapshot — an
// lru.Cache of decoded columns keyed by node type and attribute ordinal
// (budget -pager-sections, default 64) — with CRC verification on
// first fault, LRU eviction of unpinned sections, singleflight fault
// collapsing, and one accessor, tgm.ColumnSource.PinColumn: a window
// holds its pins while it materializes, every other read pins and
// releases at once, so
// steady-state memory is the skeleton plus the pool budget regardless
// of corpus size. Damaged columns surface as typed *CorruptError values
// from the faulting query — never a panic, never poisoning the pool
// (repairing the file heals the next fault in place). The registry
// chooses the policy per dataset with one number, the pager budget
// passed to registry.AddSnapshot (0 is resident), and etable-server
// -snapshot boots the default dataset through the registry either way
// (AddSnapshot + Ensure; -lazy alone gives 64 sections). GET
// /api/v1/datasets describes snapshot files from their headers alone
// (fileBytes, fileSections), and /api/v1/stats exports pager telemetry
// for each paged dataset (a resident one has no pager block). PERFORMANCE.md §10 records the boot-latency
// and cold-window measurements (BenchmarkLazyBoot,
// BenchmarkColdWindowFault); a lazy-vs-eager fuzz and a GOMEMLIMIT
// smoke job in CI hold the equivalence and memory-bound claims.
//
// # The row cap
//
// The out-of-core tier bounds memory on the way *in* (base columns page
// from disk). On the way *out* nothing grows with the result: a
// prepare holds the reduced sets whatever |m(Q)| is, so no match is
// refused for its size and nothing spills to disk. The row cap
// (server Options.MaxRows, etable-server -max-rows) is the widest
// window one request may read: a wider one fails with 413
// result_too_large carrying the cap and the window's row count.
// -spill-dir and -max-spill-bytes are parsed and ignored, so older
// command lines still boot. CI's max-rows-smoke job browses a pivot
// past the cap end to end under GOMEMLIMIT=32MiB.
package repro
