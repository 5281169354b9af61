#!/bin/sh
# mutants.sh — run the mutant register: every scripts/mutants/*.diff is
# a deliberate fault in non-test Go that a named test must catch.
#
# Each diff starts with a header, then a unified diff against HEAD:
#
#   # package: ./internal/graphrel
#   # run: TestPathRefs
#   # One line on what the fault is.
#   --- a/internal/graphrel/semijoin.go
#   +++ b/internal/graphrel/semijoin.go
#
# For each diff the script extracts `git archive HEAD` into a temporary
# directory, applies the diff with `patch -p1`, requires `go vet` of the
# package to pass (a mutant that does not build is an error, not a
# kill: `go test` exits 1 on a build failure just as on a test
# failure), then requires the named tests to fail: `go test -count=1
# -run '^(<run>)$' <package>`. <run> is one test name or several
# separated by `|`, and `go test -list` at HEAD must find each. The
# script exits 1 if a mutant survives, a diff does not apply or vet, or
# a named test does not exist. It takes no flags; CI runs it, tier-1
# does not (each mutant is a fresh build and test run). It tests
# committed code only: commit before running it.
set -eu

cd "$(dirname "$0")/.."
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git archive HEAD | (mkdir "$tmp/head" && tar -x -C "$tmp/head")

failed=0
killed=0
for diff in "$repo"/scripts/mutants/*.diff; do
	if [ ! -e "$diff" ]; then
		echo "ERROR    scripts/mutants holds no .diff" >&2
		exit 1
	fi
	name=$(basename "$diff" .diff)
	pkg=$(sed -n 's/^# package: *//p' "$diff")
	run=$(sed -n 's/^# run: *//p' "$diff")
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "ERROR    $name: the header names no package or no tests to run"
		failed=1
		continue
	fi

	missing=
	for t in $(echo "$run" | tr '|' ' '); do
		if ! (cd "$tmp/head" && go test -list "^$t\$" "$pkg") | grep -qx "$t"; then
			missing="$missing $t"
		fi
	done
	if [ -n "$missing" ]; then
		echo "ERROR    $name: go test -list finds no test for$missing in $pkg"
		failed=1
		continue
	fi

	work="$tmp/$name"
	git archive HEAD | (mkdir "$work" && tar -x -C "$work")
	if ! patch -s -p1 -d "$work" <"$diff" >"$tmp/log" 2>&1; then
		echo "ERROR    $name: the diff no longer applies; re-cut it"
		sed 's/^/         /' "$tmp/log"
		failed=1
	elif ! (cd "$work" && go vet "$pkg") >"$tmp/log" 2>&1; then
		echo "ERROR    $name: the mutant does not vet or build"
		sed 's/^/         /' "$tmp/log"
		failed=1
	elif (cd "$work" && go test -count=1 -run "^($run)\$" "$pkg") >"$tmp/log" 2>&1; then
		echo "SURVIVED $name: go test -run '^($run)\$' $pkg passes"
		failed=1
	else
		echo "killed   $name"
		killed=$((killed + 1))
	fi
	rm -rf "$work"
done

echo "$killed killed"
exit "$failed"
