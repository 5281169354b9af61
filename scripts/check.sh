#!/bin/sh
# check.sh — the repo's full verification gate: build everything, vet,
# and run all tests with the race detector (the serving core is
# concurrent; -race is not optional). CI runs exactly this script.
#
# Usage: scripts/check.sh [go-test-run-regexp]
set -eu

cd "$(dirname "$0")/.."

pattern="${1:-.}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> staticcheck ./..."
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

# The engine plans from the exact sizes of its selected bases; no
# statistics estimate reaches it (ROADMAP 1a+b).
echo "==> internal/etable does not depend on internal/stats"
if go list -deps ./internal/etable | grep -qx 'repro/internal/stats'; then
	echo "internal/etable depends on repro/internal/stats" >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race -run "$pattern" ./...

echo "OK"
