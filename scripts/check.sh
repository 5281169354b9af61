#!/bin/sh
# check.sh — the repo's full verification gate: build everything, vet,
# and run all tests with the race detector (the serving core is
# concurrent; -race is not optional), then the allocation guards that
# -race cannot measure without it. CI runs exactly this script.
#
# Usage: scripts/check.sh [go-test-run-regexp]
set -eu

cd "$(dirname "$0")/.."

pattern="${1:-.}"

echo "==> go build ./..."
go build ./...

# Every tracked Go file is gofmt-clean (the harness build cache under
# .bench_build is not tracked and not checked).
echo "==> gofmt -l"
unformatted=$(git ls-files -z -- '*.go' ':!:.bench_build/**' | xargs -0 -r gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> staticcheck ./..."
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

# The engine plans from the exact sizes of its selected bases, so no
# graph statistics are collected: the statistics package and its
# per-edge degree histograms stay deleted (ROADMAP 24).
echo "==> no package repro/internal/stats"
if go list ./... | grep -qx 'repro/internal/stats'; then
	echo "the package repro/internal/stats reappeared" >&2
	exit 1
fi

# A snapshot file is read only by internal/snapshot: its mapped file and
# the pager's section key live there, with no package of their own.
echo "==> no package repro/internal/pager"
if go list ./... | grep -qx 'repro/internal/pager'; then
	echo "the package repro/internal/pager reappeared" >&2
	exit 1
fi

# A query runs on its request's goroutine: the worker pool's admission
# and budget (tryAcquire, defaultBudget, MaxWorkers), the selection's
# morsel partition for the fan-out (morselBounds), the stats block that
# reported the pool (workerJSON), the window and join-stage fan-out, the
# LIMIT first-page stream and the ?parallelism= override stay deleted
# (ROADMAP 10; the harness module is exempt).
echo "==> deleted execution paths stay deleted"
if grep -rnwE 'MapRanges|WithBudget|BudgetFrom|StreamLimit|MatchSource|bad_parallelism|tryAcquire|defaultBudget|MaxWorkers|morselBounds|workerJSON' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "a deleted execution path reappeared (see above)" >&2
	exit 1
fi

# Every cache is an lru.Cache: no other recency list may appear outside
# internal/lru (ROADMAP 6; the harness module is exempt).
echo "==> one LRU implementation"
if grep -rnE '"container/list"|prev, *next +\*' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=lru --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "a recency list outside internal/lru (see above)" >&2
	exit 1
fi

# A window is a plain value and a plan is compiled on the match miss
# that needs it: window-arena recycling and the plan cache stay deleted
# (ROADMAP 1a, 1c; the harness module is exempt).
echo "==> no window recycling, no plan cache"
if grep -rnE 'windowStore|\.Recycle\(|PlannerStats|SetPlanCache|planCacheFor' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "window recycling or the plan cache reappeared (see above)" >&2
	exit 1
fi

# A selection condition runs a column at a time: expr.Compile builds
# kernels over pinned attribute columns and graphrel.Select runs them
# over ID ranges. The per-node closure compiler and its node-backed
# fallback environment stay deleted (ROADMAP 2b).
echo "==> no per-node predicate closures"
if grep -rnE 'nodeFallbackEnv|evalFn|func\(([A-Za-z_][A-Za-z0-9_]* )?\*tgm\.Node\) \(bool, error\)' \
	--include='*.go' --exclude='*_test.go' internal/expr internal/graphrel; then
	echo "a per-node predicate closure reappeared (see above)" >&2
	exit 1
fi

# A sort compares integers: attribute sorts read the column's rank
# (tgm.InstanceGraph.AttrRank), built once per graph, so no per-sort
# comparison over strings or values may come back into the engine
# (ROADMAP 2b). Comment lines are exempt.
echo "==> no per-sort string or value comparison in internal/etable"
if grep -rnE '\b(strings|value)\.Compare\b|cmp\.Compare\[string\]|sortKeyed\(' \
	--include='*.go' --exclude='*_test.go' internal/etable | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "a per-sort string or value comparison reappeared in internal/etable (see above)" >&2
	exit 1
fi

# A session keeps no window memo: the server reads the current window
# through a cursor and a Result is materialized only for callers that
# ask for one (ROADMAP 12).
echo "==> no window memo in internal/session"
if grep -rnwE 'winKey|hideColumns|windowMemoRowCap' \
	--include='*.go' --exclude='*_test.go' internal/session; then
	echo "the session window memo reappeared (see above)" >&2
	exit 1
fi

# A reference label is escaped once per graph, into the label fragment
# tables (internal/server/frags.go); a state response copies fragments
# and never escapes a row's or a reference's label again (ROADMAP 12).
echo "==> no per-response label escaping in internal/server"
if grep -rnE 'appendJSONString\([^)]*\.Label\b' \
	--include='*.go' --exclude='*_test.go' internal/server; then
	echo "a state response escapes a reference label again (see above)" >&2
	exit 1
fi

# An attribute column is one value.Column — kinds, payload words and one
# string blob, no pointer per row — wherever a graph stores or hands one
# out: the column source interface, the per-type block, the graph's
# column accessors and the snapshot decoder that fills them (ROADMAP 2b).
echo "==> attribute columns are value.Column"
if awk '
	/^type (ColumnSource interface|colBlock struct) \{/ { blk = 1 }
	blk { print FILENAME ":" FNR ": " $0 }
	blk && /^\}/ { blk = 0 }
	/^func (\([^)]*\) )?(AttrColumn|PinAttrColumn|column|decodeColumn)\(/ { print FILENAME ":" FNR ": " $0 }
' internal/tgm/instance.go internal/snapshot/decode.go | grep -F '[]value.V'; then
	echo "an attribute column signature holds []value.V again (see above)" >&2
	exit 1
fi

# A node type's IDs are one run, so a node's column row is id − lo
# everywhere: no per-node row field, no read of a row through the node,
# no second "interleaved" arm beside the id − lo one (ROADMAP 14; the
# harness module lives outside internal/).
echo "==> one row address"
if grep -rnE 'Node\([^)]*\)\.Row\b|\bRow:|\bdense bool\b|\bcontiguous bool\b' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "a second row address reappeared (see above)" >&2
	exit 1
fi

# One snapshot decoder: Decode, Load and LazyLoad reach one open and
# one EDGE directory walk, differing only in residency, and a column is
# resolved only through the pager's fault routine (columnSource.load),
# so decodeColumn has exactly one call site. The second open, the eager
# edge decoder, the unused per-edge restore path and the external
# distinct stay deleted (ROADMAP 13; the harness module is exempt).
echo "==> one snapshot decoder"
calls=$(grep -rnE 'decodeColumn\(' --include='*.go' --exclude='*_test.go' internal/snapshot |
	grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|func decodeColumn\()' || true)
if [ "$(printf '%s' "$calls" | grep -c .)" -ne 1 ]; then
	echo "decodeColumn must have exactly one non-test call site in internal/snapshot:" >&2
	echo "$calls" >&2
	exit 1
fi
if grep -rnwE 'decodeEdges|decodeEdgesDeferred|lazyDecode|AddDirectedEdge|ExternalDistinct' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "a second snapshot decoder or a deleted restore path reappeared (see above)" >&2
	exit 1
fi

# m(Q) is one walk: no tuple of it is stored, and |m(Q)| is counted by
# one depth-first walk through the reduced node sets
# (graphrel.Relation.Len). The streamed join engine that walk replaced
# (batched sources, the counting-sort join index, the drain and its
# splicing, the base-relation constructors) stays deleted (ROADMAP 22).
echo "==> m(Q) is one walk"
if grep -rnwE 'StreamJoin|RowSource|StreamRelationBatch|MaterializeMax|ConcatAll|joinIndex|streamBatchRows|BaseNamed' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "the streamed join engine reappeared (see above): m(Q) is counted by graphrel.Relation.Len's walk" >&2
	exit 1
fi

# A match is its reduced sets, in one type: graphrel.Relation holds a
# pattern's reduced node sets for the cache, every prepare and the
# harness alike. The tuple form of m(Q) — its enumeration, its
# attribute list and column accessor — and the second reduced-match
# type stay deleted (ROADMAP 22). Comment lines are exempt.
echo "==> one reduced-match type"
if grep -rnE '\bEnumerate\b|\bColumnNamed\b|\bgraphrel\.Attr\b|^type Reduced\b' \
	--include='*.go' --exclude='*_test.go' internal | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "a tuple form of m(Q) or a second reduced-match type reappeared (see above)" >&2
	exit 1
fi

# Semi-join, don't join: a miss computes reduced node sets, so the
# join planner, its cost model, the fold kernels over m(Q), the
# spilled-prepare hand-off and the spill tier's external sort-merge of
# m(Q) stay deleted (ROADMAP 18, 19, 20b). The fold kernels survive
# only as test oracles.
echo "==> no join planner, no fold over m(Q)"
if grep -rnE 'orderJoins|AvgOutDegree|GroupNeighbors|DistinctSorted|errSpilled|ExternalGroupFold|mergeRuns|prepareSpilled' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "a join planner or a fold over m(Q) reappeared (see above)" >&2
	exit 1
fi

# A presentation is its reduced sets: a prepare stores no cell, and a
# participating cell is computed when a window reads it
# (graphrel.Path). The per-prepare grouping, its spilled form and the
# interface over the two stay deleted (ROADMAP 21).
echo "==> cells on read"
if grep -rnwE 'GroupPath|SpillGroups|SpilledGroups|groupSource' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "a per-prepare grouping reappeared (see above)" >&2
	exit 1
fi

# A match is never refused for its size: a presentation holds its
# reduced sets whatever |m(Q)| is, so the spill tier, its policy, the
# ID codec it shared with the snapshot and the reduction's saturating
# count pass stay deleted; -max-rows bounds a window only (ROADMAP 21;
# the harness module is exempt).
echo "==> no spill tier, no match count"
if grep -rnE 'repro/internal/spill|SpillPolicy|SetSpill|SpillDir|satAdd|satMul|internal/snapshot/idcol' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "the spill tier or the match count reappeared (see above)" >&2
	exit 1
fi

# Derived state is one mechanism: an attribute rank and a label
# fragment table are each built once per frozen graph through
# tgm.Derive, the graph's one registry (internal/tgm/derived.go).
# No second build-once slot may appear beside it (ROADMAP 15; the
# harness module is exempt).
echo "==> one derived-state mechanism"
if grep -rnE 'atomic\.Value|StatsCache|FragmentCache|labelFragsOf|\bMemo\[' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build . |
	grep -v '^\./internal/tgm/derived\.go:'; then
	echo "a second derived-state slot reappeared (see above)" >&2
	exit 1
fi

# One adjacency form: every edge type's adjacency is tgm's packed CSR
# arrays, whether a snapshot installs them or Freeze packs AddEdge's
# log into them. The map-of-slices form, its per-edge seen-set and
# HasEdge stay deleted (ROADMAP aim 2).
echo "==> one adjacency form"
if grep -rnE 'edgeSeen|map\[NodeID\]\[\]NodeID|HasEdge' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "a second adjacency form reappeared (see above)" >&2
	exit 1
fi

# NDV stays in the snapshot: per-attribute distinct counts are written
# to STAT only because format version 2 has a slot for them, by a
# snapshot-private helper; no statistics, planner or serving code may
# count or read them again (ROADMAP 20a; the harness module is exempt).
# Comment lines are exempt.
echo "==> NDV stays in the snapshot"
if grep -rnwE 'NDV' --include='*.go' --exclude='*_test.go' \
	--exclude-dir=etable-load --exclude-dir=.bench_build . |
	grep -v '^\./internal/snapshot/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "NDV reappeared outside internal/snapshot (see above)" >&2
	exit 1
fi

# The SQL tier keeps one of each thing: the AST carries
# relational.AggFunc, storage and sqlbridge rename columns through
# expr.MapCols, and a table keeps no secondary index (sqlexec joins by
# hashing). The second aggregate enum, its mapping, the per-package
# condition rewriter and the unread index stay deleted (ROADMAP aim 2;
# the harness module is exempt).
echo "==> one of each thing in the SQL tier"
if grep -rnwE 'toRelAgg|rewriteCond|EnsureIndex|LookupIndex' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build .; then
	echo "a deleted SQL-tier duplicate reappeared (see above)" >&2
	exit 1
fi
if grep -rnE '^type AggFunc\b' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=etable-load --exclude-dir=.bench_build . |
	grep -v '^\./internal/relational/'; then
	echo "a second aggregate enum reappeared outside internal/relational (see above)" >&2
	exit 1
fi

# One way to run a pattern: a session prepares through the execution
# cache's one entry, (*etable.Cache).Prepare(ctx, g, p), and every
# internal step takes the context itself. The per-session executor
# wrapper, its options-taking entries, the session's second full-render
# method and the one-hop cell's bitset arm (a census of the four
# benchmark workloads found no cell it ordered) stay deleted (ROADMAP
# aim 2).
echo "==> one way to run a pattern"
if grep -rnE '\btype Executor\b|\b(NewExecutor|NewSharedExecutor|PrepareWithOpts|ExecuteOpts|ResultCtx|sortedCells)\b' \
	--include='*.go' --exclude='*_test.go' internal; then
	echo "a second way to run a pattern reappeared (see above)" >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race -run "$pattern" ./...

# Allocation guards skip under -race: its instrumentation allocates,
# and its sync.Pool drops a share of what is put back on purpose, so a
# pooled buffer reads as an allocation. They run here without it.
echo "==> allocation guards (without -race)"
go test -count=1 -run 'TestCursorRefsAllocs|TestMatchPrepareAllocGuard|TestReducedMatchesOracles' ./internal/etable
go test -count=1 -run 'TestSelectSetAllocs' ./internal/graphrel

echo "OK"
