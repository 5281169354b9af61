#!/bin/sh
# loc.sh — ROADMAP aim 2's number in one command: non-test Go lines per
# package, and the two totals the roadmap quotes (the repository, and
# internal/etable + internal/graphrel). Counted: *.go that is not
# *_test.go, outside the benchmark harness (cmd/etable-load/, a module
# of its own) and outside .bench_build/. Informational — CI prints it,
# nothing gates on it.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
	! -path './cmd/etable-load/*' ! -path './.bench_build/*' -print |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir)
		if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  internal/etable + internal/graphrel\n", lines["internal/etable"] + lines["internal/graphrel"]
		printf "%7d  repository (non-test, harness excluded)\n", total
	}'
