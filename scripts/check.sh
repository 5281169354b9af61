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

# Name gates: a name that a deleted mechanism used may not come back.
# One row per gate, tab-separated: grep flags; scope (grep's paths and
# --exclude-dir options over non-test Go, or "packages" for the import
# paths `go list ./...` prints); an ERE of hit lines the gate exempts
# (- for none); the pattern; the gate's name. A "# " line above a row
# says why the name stays deleted. A row fails the script on its first
# hit that is not exempt.
while IFS='	' read -r flags scope skip pattern gate; do
	case $flags in '#'* | '') continue ;; esac
	echo "==> $gate"
	if [ "$scope" = packages ]; then
		hits=$(go list ./... | grep $flags -e "$pattern") ||
			[ $? -eq 1 ] || { echo "name gate \"$gate\": grep failed" >&2; exit 1; }
	else
		hits=$(grep $flags --include='*.go' --exclude='*_test.go' -e "$pattern" $scope) ||
			[ $? -eq 1 ] || { echo "name gate \"$gate\": grep failed" >&2; exit 1; }
	fi
	if [ "$skip" != - ] && [ -n "$hits" ]; then
		hits=$(printf '%s\n' "$hits" | grep -vE -e "$skip" || true)
	fi
	if [ -n "$hits" ]; then
		printf '%s\n' "$hits"
		echo "name gate \"$gate\" failed: a deleted name reappeared (see above)" >&2
		exit 1
	fi
done <<'EOF'
# The engine plans from the exact sizes of its selected bases, so no
# graph statistics are collected: the statistics package and its
# per-edge degree histograms stay deleted (ROADMAP 24).
-x	packages	-	repro/internal/stats	no package repro/internal/stats
#
# A snapshot file is read only by internal/snapshot: its mapped file and
# the pager's section key live there, with no package of their own.
-x	packages	-	repro/internal/pager	no package repro/internal/pager
#
# A query runs on its request's goroutine: the worker pool's admission
# and budget (tryAcquire, defaultBudget, MaxWorkers), the selection's
# morsel partition for the fan-out (morselBounds), the stats block that
# reported the pool (workerJSON), the window and join-stage fan-out, the
# LIMIT first-page stream and the ?parallelism= override stay deleted
# (ROADMAP 10; the harness module is exempt).
-rnwE	--exclude-dir=etable-load --exclude-dir=.bench_build .	-	MapRanges|WithBudget|BudgetFrom|StreamLimit|MatchSource|bad_parallelism|tryAcquire|defaultBudget|MaxWorkers|morselBounds|workerJSON	deleted execution paths stay deleted
#
# Every cache is an lru.Cache: no other recency list may appear outside
# internal/lru (ROADMAP 6; the harness module is exempt).
-rnE	--exclude-dir=lru --exclude-dir=etable-load --exclude-dir=.bench_build .	-	"container/list"|prev, *next +\*	one LRU implementation
#
# A window is a plain value and a plan is compiled on the match miss
# that needs it: window-arena recycling and the plan cache stay deleted
# (ROADMAP 1a, 1c; the harness module is exempt).
-rnE	--exclude-dir=etable-load --exclude-dir=.bench_build .	-	windowStore|\.Recycle\(|PlannerStats|SetPlanCache|planCacheFor	no window recycling, no plan cache
#
# A selection condition runs a column at a time: expr.Compile builds
# kernels over pinned attribute columns and graphrel.Select runs them
# over ID ranges. The per-node closure compiler and its node-backed
# fallback environment stay deleted (ROADMAP 2b).
-rnE	internal/expr internal/graphrel	-	nodeFallbackEnv|evalFn|func\(([A-Za-z_][A-Za-z0-9_]* )?\*tgm\.Node\) \(bool, error\)	no per-node predicate closures
#
# A sort compares integers: attribute sorts read the column's rank
# (tgm.InstanceGraph.AttrRank), built once per graph, so no per-sort
# comparison over strings or values may come back into the engine
# (ROADMAP 2b). Comment lines are exempt.
-rnE	internal/etable	^[^:]+:[0-9]+:[[:space:]]*//	\b(strings|value)\.Compare\b|cmp\.Compare\[string\]|sortKeyed\(	no per-sort string or value comparison in internal/etable
#
# A session keeps no window memo: the server reads the current window
# through a cursor and a Result is materialized only for callers that
# ask for one (ROADMAP 12).
-rnwE	internal/session	-	winKey|hideColumns|windowMemoRowCap	no window memo in internal/session
#
# A reference label is escaped once per graph, into the label fragment
# tables (internal/server/frags.go); a state response copies fragments
# and never escapes a row's or a reference's label again (ROADMAP 12).
-rnE	internal/server	-	appendJSONString\([^)]*\.Label\b	no per-response label escaping in internal/server
#
# A node type's IDs are one run, so a node's column row is id − lo
# everywhere: no per-node row field, no read of a row through the node,
# no second "interleaved" arm beside the id − lo one (ROADMAP 14; the
# harness module lives outside internal/).
-rnE	internal	-	Node\([^)]*\)\.Row\b|\bRow:|\bdense bool\b|\bcontiguous bool\b	one row address
#
# One snapshot decoder: the second open, the eager edge decoder, the
# unused per-edge restore path and the external distinct stay deleted
# (ROADMAP 13; the harness module is exempt).
-rnwE	--exclude-dir=etable-load --exclude-dir=.bench_build .	-	decodeEdges|decodeEdgesDeferred|lazyDecode|AddDirectedEdge|ExternalDistinct	one snapshot decoder: no second decoder or restore path
#
# m(Q) is one walk: no tuple of it is stored, and |m(Q)| is counted by
# one depth-first walk through the reduced node sets
# (graphrel.Relation.Len). The streamed join engine that walk replaced
# (batched sources, the counting-sort join index, the drain and its
# splicing, the base-relation constructors) stays deleted (ROADMAP 22).
-rnwE	internal	-	StreamJoin|RowSource|StreamRelationBatch|MaterializeMax|ConcatAll|joinIndex|streamBatchRows|BaseNamed	m(Q) is one walk
#
# A match is its reduced sets, in one type: graphrel.Relation holds a
# pattern's reduced node sets for the cache, every prepare and the
# harness alike. The tuple form of m(Q) — its enumeration, its
# attribute list and column accessor — and the second reduced-match
# type stay deleted (ROADMAP 22). Comment lines are exempt.
-rnE	internal	^[^:]+:[0-9]+:[[:space:]]*//	\bEnumerate\b|\bColumnNamed\b|\bgraphrel\.Attr\b|^type Reduced\b	one reduced-match type
#
# Semi-join, don't join: a miss computes reduced node sets, so the
# join planner, its cost model, the fold kernels over m(Q), the
# spilled-prepare hand-off and the spill tier's external sort-merge of
# m(Q) stay deleted (ROADMAP 18, 19, 20b).
-rnE	internal	-	orderJoins|AvgOutDegree|GroupNeighbors|DistinctSorted|errSpilled|ExternalGroupFold|mergeRuns|prepareSpilled	no join planner, no fold over m(Q)
#
# A presentation is its reduced sets: a prepare stores no cell, and a
# participating cell is computed when a window reads it
# (graphrel.Path). The per-prepare grouping, its spilled form and the
# interface over the two stay deleted (ROADMAP 21).
-rnwE	internal	-	GroupPath|SpillGroups|SpilledGroups|groupSource	cells on read
#
# A match is never refused for its size: a presentation holds its
# reduced sets whatever |m(Q)| is, so the spill tier, its policy, the
# ID codec it shared with the snapshot and the reduction's saturating
# count pass stay deleted; -max-rows bounds a window only (ROADMAP 21;
# the harness module is exempt).
-rnE	--exclude-dir=etable-load --exclude-dir=.bench_build .	-	repro/internal/spill|SpillPolicy|SetSpill|SpillDir|satAdd|satMul|internal/snapshot/idcol	no spill tier, no match count
#
# Derived state is one mechanism: an attribute rank and a label
# fragment table are each built once per frozen graph through
# tgm.Derive, the graph's one registry (internal/tgm/derived.go).
# No second build-once slot may appear beside it (ROADMAP 15; the
# harness module is exempt).
-rnE	--exclude-dir=etable-load --exclude-dir=.bench_build .	^\./internal/tgm/derived\.go:	atomic\.Value|StatsCache|FragmentCache|labelFragsOf|\bMemo\[	one derived-state mechanism
#
# One adjacency form: every edge type's adjacency is tgm's packed CSR
# arrays, whether a snapshot installs them or Freeze packs AddEdge's
# log into them. The map-of-slices form, its per-edge seen-set and
# HasEdge stay deleted (ROADMAP aim 2).
-rnE	internal	-	edgeSeen|map\[NodeID\]\[\]NodeID|HasEdge	one adjacency form
#
# NDV stays in the snapshot: per-attribute distinct counts are written
# to STAT only because format version 2 has a slot for them, by a
# snapshot-private helper; no statistics, planner or serving code may
# count or read them again (ROADMAP 20a; the harness module is exempt).
# Comment lines are exempt.
-rnwE	--exclude-dir=etable-load --exclude-dir=.bench_build .	^\./internal/snapshot/|^[^:]+:[0-9]+:[[:space:]]*//	NDV	NDV stays in the snapshot
#
# The SQL tier keeps one of each thing: the AST carries
# relational.AggFunc, storage and sqlbridge rename columns through
# expr.MapCols, and a table keeps no secondary index (sqlexec joins by
# hashing). The second aggregate enum, its mapping, the per-package
# condition rewriter and the unread index stay deleted (ROADMAP aim 2;
# the harness module is exempt).
-rnwE	--exclude-dir=etable-load --exclude-dir=.bench_build .	-	toRelAgg|rewriteCond|EnsureIndex|LookupIndex	one of each thing in the SQL tier
#
-rnE	--exclude-dir=etable-load --exclude-dir=.bench_build .	^\./internal/relational/	^type AggFunc\b	one aggregate enum, in internal/relational
#
# One way to run a pattern: a session prepares through the execution
# cache's one entry, (*etable.Cache).Prepare(ctx, g, p), and every
# internal step takes the context itself. The per-session executor
# wrapper, its options-taking entries, the session's second full-render
# method and the one-hop cell's bitset arm (a census of the four
# benchmark workloads found no cell it ordered) stay deleted (ROADMAP
# aim 2).
-rnE	internal	-	\btype Executor\b|\b(NewExecutor|NewSharedExecutor|PrepareWithOpts|ExecuteOpts|ResultCtx|sortedCells)\b	one way to run a pattern
EOF

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

# One snapshot decoder: Decode, Load and LazyLoad reach one open and
# one EDGE directory walk, differing only in residency, and a column is
# resolved only through the pager's fault routine (columnSource.load),
# so decodeColumn has exactly one call site (ROADMAP 13).
echo "==> one snapshot decoder: one decodeColumn call site"
calls=$(grep -rnE 'decodeColumn\(' --include='*.go' --exclude='*_test.go' internal/snapshot |
	grep -vE '^[^:]*:[0-9]+:[[:space:]]*(//|func decodeColumn\()' || true)
if [ "$(printf '%s' "$calls" | grep -c .)" -ne 1 ]; then
	echo "decodeColumn must have exactly one non-test call site in internal/snapshot:" >&2
	echo "$calls" >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race -run "$pattern" ./...

# Allocation guards skip under -race: its instrumentation allocates,
# and its sync.Pool drops a share of what is put back on purpose, so a
# pooled buffer reads as an allocation. They run here without it. A
# -run pattern that matches nothing passes, so every guard must first
# be listed by name: a renamed guard fails here instead of going quiet.
echo "==> allocation guards (without -race)"
guards() {
	pkg=$1
	shift
	for t in "$@"; do
		if ! go test -list "^$t\$" "$pkg" | grep -qx "$t"; then
			echo "allocation guard $t is not a test in $pkg" >&2
			exit 1
		fi
	done
	go test -count=1 -run "$(echo "$*" | tr ' ' '|')" "$pkg"
}
guards ./internal/etable TestCursorRefsAllocs TestMatchPrepareAllocGuard TestReducedMatchesOracles
guards ./internal/graphrel TestSelectSetAllocs

echo "OK"
