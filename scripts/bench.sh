#!/bin/sh
# bench.sh — run the benchmark suite and record the results, so the
# repo's performance trajectory is tracked PR over PR.
#
# Usage: scripts/bench.sh [go-test-bench-regexp]
#        scripts/bench.sh --smoke [go-test-bench-regexp]   (alias: smoke)
#
# Writes BENCH_<date>.json (the `go test -json` event stream, which
# includes every benchmark result line with -benchmem statistics) and
# BENCH_<date>.txt (the plain benchmark lines in the format `benchstat`
# consumes), prints the human-readable results to stdout, and — when an
# earlier BENCH_*.json exists — prints a benchstat-comparable old-vs-new
# summary against the most recent one (and runs `benchstat` itself when
# the tool is installed).
#
# Smoke mode (what CI runs) executes each benchmark for exactly one
# iteration and writes no artifact: it proves every benchmark still
# compiles and runs, without measuring anything. It also covers the
# package benchmarks that live beside their test-only oracle
# (internal/etable, internal/graphrel).
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "smoke" ] || [ "${1:-}" = "--smoke" ]; then
	pattern="${2:-.}"
	# vet first so CI's smoke shard fails on bench-code rot even when a
	# benchmark would happen to run.
	go vet .
	exec go test -run '^$' -bench "$pattern" -benchtime 1x . ./internal/etable ./internal/graphrel
fi

pattern="${1:-.}"
stamp="$(date +%Y-%m-%d)"
out="BENCH_${stamp}.json"
txt="BENCH_${stamp}.txt"

# Environment stamp: benchmark numbers are meaningless without the
# parallelism envelope they ran under, so both artifacts record the
# effective GOMAXPROCS (the env override if set, else every CPU — the
# Go runtime's own default), the machine's CPU count, and the
# toolchain. In the .txt they are benchstat configuration lines
# (`key: value`), so benchstat refuses to blend runs from different
# envelopes; in the .json they are one leading metadata object ahead
# of the `go test -json` event stream.
numcpu="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo unknown)"
gomaxprocs="${GOMAXPROCS:-$numcpu}"
goversion="$(go version | awk '{print $3}')"
# The spill-tier benchmarks (BenchmarkSpilledFirstPage) are sensitive
# to the heap target and the device backing the spill directory, so the
# stamp records both: GOMEMLIMIT (the Go soft heap limit, "off" when
# unset) and the spill envelope (ETABLE_SPILL_DIR overrides the
# benchmarks' per-run temp dir; ETABLE_MAX_SPILL_BYTES a byte cap).
gomemlimit="${GOMEMLIMIT:-off}"
spilldir="${ETABLE_SPILL_DIR:-tmp}"
maxspillbytes="${ETABLE_MAX_SPILL_BYTES:-unbounded}"

# extract_bench turns a `go test -json` event stream into the plain
# benchmark text benchstat consumes. The stream emits a result line as
# two Output events — "BenchmarkX \t" then "N\tV ns/op…" — so a name
# line without values is rejoined with the event that follows it.
extract_bench() {
	grep -o '"Output":"[^"]*"' "$1" |
		sed -e 's/^"Output":"//' -e 's/"$//' -e 's/\\t/\t/g' -e 's/\\n$//' |
		awk '
			/^(goos|goarch|pkg|cpu):/ { print; next }
			/^Benchmark/ && /ns\/op/ { print; next }
			/^Benchmark/ { pending = $0; next }
			pending != "" && /ns\/op/ { print pending $0; pending = ""; next }
			{ pending = "" }
		'
}

# Remember the newest earlier artifact before writing today's.
prev="$(ls -1 BENCH_*.json 2>/dev/null | grep -v "^${out}\$" | sort | tail -n 1 || true)"

status=0
printf '{"BenchEnv":{"gomaxprocs":"%s","numcpu":"%s","go":"%s","gomemlimit":"%s","spillDir":"%s","maxSpillBytes":"%s"}}\n' \
	"$gomaxprocs" "$numcpu" "$goversion" "$gomemlimit" "$spilldir" "$maxspillbytes" >"$out"
go test -run '^$' -bench "$pattern" -benchmem -json . >>"$out" || status=$?

{
	printf 'gomaxprocs: %s\nnumcpu: %s\ngo-version: %s\n' \
		"$gomaxprocs" "$numcpu" "$goversion"
	printf 'gomemlimit: %s\nspill-dir: %s\nmax-spill-bytes: %s\n' \
		"$gomemlimit" "$spilldir" "$maxspillbytes"
	extract_bench "$out"
} >"$txt"
grep -o '"Output":"[^"]*"' "$out" |
	sed -e 's/^"Output":"//' -e 's/"$//' -e 's/\\t/\t/g' -e 's/\\n$//' |
	grep -E '^Benchmark|ns/op|^(goos|goarch|pkg|cpu):|^(PASS|FAIL|ok)' |
	uniq

if [ "$status" -ne 0 ]; then
	echo "go test failed (exit $status); $out holds a partial event stream" >&2
	exit "$status"
fi

if [ -n "$prev" ]; then
	prevtxt="${prev%.json}.txt"
	if [ ! -f "$prevtxt" ]; then
		prevtxt="$(mktemp)"
		extract_bench "$prev" >"$prevtxt"
	fi
	echo ""
	echo "== vs ${prev} =="
	if command -v benchstat >/dev/null 2>&1; then
		benchstat "$prevtxt" "$txt" || true
	else
		# Fallback: join on benchmark name, compare ns/op, B/op, and
		# allocs/op deltas. The .txt artifacts remain benchstat-ready:
		# `benchstat old.txt new.txt`. Files are told apart by FILENAME,
		# not the FNR==NR idiom — an empty or name-less previous artifact
		# would otherwise misclassify every new line as "old" and
		# silently print no comparison at all. Benchmarks absent from the
		# previous artifact are marked "new benchmark" instead of
		# skipped.
		awk -v OLD="$prevtxt" '
			function val(unit,   i) {
				for (i = 2; i <= NF; i++) if ($i == unit) return $(i - 1)
				return ""
			}
			function delta(o, n) {
				if (o == "" || n == "") return "        -"
				if (o == 0) return "        -"
				return sprintf("%+8.1f%%", (n - o) * 100.0 / o)
			}
			!/^Benchmark/ { next }
			{
				ns = val("ns/op"); bb = val("B/op"); al = val("allocs/op")
				if (ns == "") next
				if (FILENAME == OLD) {
					oldns[$1] = ns; oldb[$1] = bb; olda[$1] = al
					next
				}
				if ($1 in oldns) {
					printf "%-60s ns/op %s  B/op %s  allocs/op %s\n",
						$1, delta(oldns[$1], ns), delta(oldb[$1], bb), delta(olda[$1], al)
				} else {
					printf "%-60s (new benchmark: %.0f ns/op, %s B/op, %s allocs/op)\n",
						$1, ns, (bb == "" ? "-" : bb), (al == "" ? "-" : al)
				}
			}
		' "$prevtxt" "$txt"
		echo "(install benchstat for confidence intervals: go install golang.org/x/perf/cmd/benchstat@latest)"
	fi
fi
echo "wrote $out and $txt" >&2
