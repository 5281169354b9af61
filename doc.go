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
//   - internal/graphrel: relations are immutable once built and shared
//     without copying (the package documents the sharing contract).
//   - internal/etable: one etable.Cache — sharded, mutex-per-shard,
//     true LRU, with singleflight deduplication — is shared by every
//     session, so N users executing the same pattern signature compute
//     it once. Executor is a thin per-session view over the cache.
//   - internal/session: each Session has its own mutex and a small
//     presentation memo (sorted/hidden results), so concurrent requests
//     on one session serialize per session, not per server.
//   - internal/server: an RWMutex guards only the session map; sessions
//     are bounded by TTL and max-session LRU eviction; responses are
//     paginated (offset/limit) so a request encodes a row window, not
//     the whole table.
//
// Lock ordering is strictly server.mu → server entry.mu (per-session
// request serialization) → session.mu → cache shard mu
// (each released before the next is taken where possible, and never
// acquired in reverse), which makes deadlock impossible by
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
// # Parallel execution
//
// PR 2 made sessions concurrent; this layer makes a single query
// concurrent, following the morsel-driven parallelism design of modern
// analytical engines:
//
//   - internal/exec: a bounded worker Pool shared process-wide. Pool
//     admission is try-acquire, never blocking: a query that finds the
//     pool busy degrades to serial on its own goroutine, so the pool
//     capacity (Options.MaxWorkers, default GOMAXPROCS) is a hard
//     server-wide bound on helper goroutines — 100 concurrent sessions
//     cannot spawn 100×Ncores workers. Each query additionally carries
//     a per-request parallelism budget.
//   - internal/graphrel: relations chunk into fixed 2048-row morsels;
//     Select and the StreamJoin stages fan morsels out to the pool and
//     splice per-morsel outputs in input order through disjoint
//     windows — no locks on the hot path, and output row-for-row
//     identical to a serial run (property-tested under -race). The
//     kernels never hash a node ID: IDs are dense ordinals, so the
//     join's build side is a counting-sort index over the build
//     column's type span probed through a tgm.Adjacency handle, and
//     the presentation's groupings are a serial counting sort into CSR
//     arrays (graphrel.Groups).
//   - internal/stats: per-edge-type out-degree histograms and
//     per-node-type attribute NDV counts, collected once at translate
//     time, frozen with the graph (stats.For) and persisted in the
//     snapshot's STAT section. /api/v1/stats reports them as
//     edgeStats; no planner reads them.
//   - internal/etable: Execute takes an ExecOptions{Ctx, Pool,
//     Parallelism} struct and hands the budget to the kernels as given;
//     a kernel whose input is one morsel (Select) or one batch (a
//     StreamJoin refill) runs serially, so interactive clicks never pay
//     fan-out overhead without any estimate deciding it.
//   - internal/session + internal/server: the per-request budget and
//     the request context thread through ApplyCtx/ApplyPipelineCtx/
//     StateCtx down to the kernels. Clients override the budget with
//     ?parallelism=N; a disconnected client cancels its context and the
//     query stops between morsels (HTTP 499 in logs). /api/v1/stats
//     reports the pool and the per-edge graph statistics.
//
// PERFORMANCE.md §5 records the scaling measurements
// (BenchmarkParallelScaling).
//
// # Planning
//
// There is one match engine (internal/etable/stream.go): every join
// runs as a streamed pipeline, and draining, fanning out and spilling
// are what a caller does with the stream, not separate code paths. The
// engine resolves its plan through one function, etable.PlanFor: a
// per-frozen-graph, signature-keyed cache of compiled node predicates.
// Pattern signatures are memoized on the immutable Pattern, so a warm
// lookup is a pointer load plus one map probe. The join order is not
// planned in advance: the engine selects every base first and orders
// the joins by the bases' exact sizes — smallest base first, then
// greedily by |current| × AvgOutDegree(edge) × |σ(new)| / |type(new)| —
// so no cardinality is estimated anywhere. /api/v1/stats exposes the
// plan cache's hits/misses/evictions; PERFORMANCE.md §8 records the
// cache effect, §13 why the eager join arm and the feedback re-planner
// were removed, §14 why the greedy ordering and its corpus-size
// threshold were (no workload reached them; parity where forced), and
// §16 the census behind ordering by measured sizes and dropping the
// plan-level parallelism gate.
//
// # Windowed presentation
//
// The format transformation (§5.4.2) is prepared and windowed rather
// than monolithic: etable.Prepare computes the row set, column layout,
// and per-column neighbor groupings without materializing a single
// cell, and etable.Presentation.Window materializes any [offset,
// offset+limit) row range on demand. Row materialization partitions cleanly by row
// range, so Window fans the transformRange kernel out over the shared
// worker pool with the same disjoint-window splice discipline as the
// matching kernels — row- and cell-identical to the serial transform,
// equivalence-tested under -race.
//
// Ownership: a Presentation owns everything its windows read — row
// IDs, column layout, groupings, adjacency handles. The matched
// relation is an input of Prepare (Executor.PrepareWithOpts takes it
// from the shared execution cache, or folds it off the engine's stream
// and leaves it there) and is never read again, so the cache may evict
// it at any time: a page fetch costs O(window), never a re-match or a
// full re-render. The session layer prepares one Presentation per
// pattern, and sort variants of one pattern share that single
// prepared presentation: Presentation.SortedView reorders only the row
// IDs while sharing the column layout and neighbor groupings, so
// toggling sort direction never re-prepares. Sorting happens on the row
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
// encode.go) while the session's entry lock is held — recycled windows
// are only valid until the next call on their session, so the Result is
// fully read before the lock drops and only the bytes outlive it. The
// bytes are exactly encoding/json's for the struct copy this replaced
// (kept as the test reference), Content-Length is always set, and the
// status is committed only after encoding succeeded.
//
// Cursor invalidation: HTTP cursors fingerprint the presentation state
// they were issued against; any op that changes the table invalidates
// them (409 stale_cursor), and the client re-pages the new state.
//
// Memory bound: a session holds at most 8 prepared presentations (its
// presentation memo); relations are held by the cache alone, so -cache
// is the number of relations resident, whatever the session count.
//
// Allocation discipline in the transform: all cells of a window share
// one backing array, entity references are carved from one per-range
// arena (empty lists share a single slice), the distinct rows come out
// of a dense-ID bitmap already ordered (graphrel.DistinctSorted), each
// column's grouping is three flat arrays whose segments are sorted and
// compacted in place, and non-string labels are interned per range so N
// rows referencing one node share one rendered string. PERFORMANCE.md
// §6 records the page-fetch measurements (BenchmarkFigure7Pipeline).
//
// # Persistence and datasets
//
// internal/snapshot serializes a frozen TGDB — schema, node columns,
// both adjacency directions, and the graph statistics — into a
// versioned columnar file (.etsnap) with per-section CRC-32C
// checksums; Load rebuilds a frozen graph that serves byte-identical
// query results without re-running translation (corrupt or
// version-skewed files fail with typed errors, never panics; see
// docs/SNAPSHOT.md for the format). internal/registry names many such
// datasets in one server process: each owns its own execution cache,
// plan cache, and statistics, lazy snapshot datasets load on first
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
// The snapshot tier also loads without materializing: snapshot.LazyLoad
// (etable-server -lazy) opens an .etsnap file by validating the header,
// section table, and skeleton sections only — O(section table), not
// O(corpus) — leaving every attribute column as an unresolved handle
// and every edge type's CSR arrays as a deferred conversion. Columns
// fault in through internal/pager, a bounded buffer pool (budget
// -pager-sections, default 64) with CRC verification on first fault,
// LRU eviction of unpinned sections, singleflight fault collapsing, and
// pin/unpin tied to the window-materialization discipline, so
// steady-state memory is the skeleton plus the pool budget regardless
// of corpus size. Damaged columns surface as typed *CorruptError values
// from the faulting query — never a panic, never poisoning the pool
// (repairing the file heals the next fault in place). The registry
// chooses eager or lazy boot per dataset (registry.SnapshotOptions),
// GET /api/v1/datasets describes snapshot files from their headers
// alone (fileBytes, fileSections), and /api/v1/stats exports per-
// dataset pager telemetry. PERFORMANCE.md §10 records the boot-latency
// and cold-window measurements (BenchmarkLazyBoot,
// BenchmarkColdWindowFault); a lazy-vs-eager fuzz and a GOMEMLIMIT
// smoke job in CI hold the equivalence and memory-bound claims.
//
// # Spill-to-disk execution
//
// The out-of-core tier bounds memory on the way *in* (base columns page
// from disk); the spill tier bounds it on the way *out*: a query whose
// result crosses the row cap (ExecOptions.MaxRows, etable-server
// -max-rows) no longer fails with 413 result_too_large — its prepare
// folds through internal/spill into temporary run files (snapshot NCOL
// column encoding, per-run CRC-32C, anonymous O_TMPFILE/unlink-on-open
// so a crash leaks nothing) and pages back through the same
// internal/pager buffer pool as lazy columns. Only what a presentation
// reads back is written: internal/graphrel's ExternalGroupFold (one
// per participating column) and ExternalDistinct (the row set) run
// sort-merge folds whose sorted-run flushes merge with cross-run
// deduplication, so grouping and distinct results far past the cap
// compute in bounded memory; the matched batches themselves are folded
// and dropped, and -max-spill-bytes is charged for the folds alone.
// Policy is per-dataset (graphrel.SpillPolicy via server
// Options{SpillDir, MaxSpillBytes}; flags -spill-dir and
// -max-spill-bytes; "off" restores strict 413s), the byte budget
// rejects with the same unified {code, limit, rows} envelope as every
// other cap layer, damaged runs
// surface as typed *spill.CorruptError values with the session
// surviving, and files are reaped on session close, LRU eviction, and
// a boot-time sweep of named spill directories. /api/v1/stats reports
// a per-dataset spill block (spills, runBytes, mergePasses, faults);
// PERFORMANCE.md §11 records the first-page cost of a spilled result
// (≤1.6× in-memory at 53k and 313k rows, BenchmarkSpilledFirstPage),
// and CI's spill-smoke job browses a capped pivot end to end under
// GOMEMLIMIT=32MiB. A randomized spilled≡in-memory fuzz under -race
// holds the equivalence claim.
package repro
