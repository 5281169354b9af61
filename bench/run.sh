#!/usr/bin/env bash
# One command for the op-level benchmark: builds cmd/etable-load (a Go
# module of its own) and hands it the arguments. The harness builds
# etable-server from this checkout itself.
#
#   bench/run.sh                          # all four workloads, end-to-end metrics
#   bench/run.sh --workload page_scan --seed 7 --seconds 10 --trace 1
#   bench/run.sh --smoke                  # every workload, 1/20 of the counts, 2,000-paper corpus
#
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (Go build cache, binaries, corpus) and bench/out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/etable-server ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no cmd/etable-server)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off
go build -C cmd/etable-load -o "$build/bin/etable-load" .
exec "$build/bin/etable-load" -repo "$root" -work "$build" -out "$root/bench/out" "$@"
