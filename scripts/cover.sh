#!/bin/sh
# Tier-1 statement coverage (ROADMAP item 24): run every test outside
# bench/ with -coverpkg over the library packages (all but bench/, cmd/
# and examples/), fold in the counters of the example programs the
# examples test runs, print the total and the functions no test runs,
# and fail on any of those that scripts/cover_allow.txt does not name
# with a reason. The list only shrinks: an allowed function that a test
# now runs fails too, until its entry goes. bench/ stays out, so its
# smoke test's CPU-tick check (ROADMAP item 0) cannot fail this target.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/examples"

mod=$(go list -m)
coverpkg=$(go list ./... | grep -v -e "^$mod/bench" -e "^$mod/cmd/" -e "^$mod/examples" | paste -sd, -)
PI_EXAMPLES_COVERDIR="$tmp/examples" go test -count=1 -coverpkg="$coverpkg" \
    -coverprofile="$tmp/unit.out" $(go list ./... | grep -v "^$mod/bench") >"$tmp/test.log" 2>&1 || {
    cat "$tmp/test.log" >&2
    exit 1
}
go tool covdata textfmt -i="$tmp/examples" -o "$tmp/examples.out"
{ cat "$tmp/unit.out"; tail -n +2 "$tmp/examples.out" | grep -v "^$mod/examples/"; } >"$tmp/all.out"
go tool cover -func="$tmp/all.out" >"$tmp/func.txt"
tail -n 1 "$tmp/func.txt"

# Never-run functions as "dir.Func" (dir relative to the module root),
# leaving out cmd/, examples/ and the paper-figure runners.
awk -v mod="$mod/" '$NF == "0.0%" {
    f = $1; sub(mod, "", f); sub(/\/[^\/]*$/, "", f); print f "." $2
}' "$tmp/func.txt" | grep -v -e '^cmd/' -e '^examples' -e '^internal/experiments\.' | sort -u >"$tmp/zero.txt"
grep -v '^#' scripts/cover_allow.txt | awk 'NF { print $1 }' | sort -u >"$tmp/allow.txt"

echo "functions no Tier-1 test runs:"
sed 's/^/  /' "$tmp/zero.txt"
status=0
for f in $(comm -23 "$tmp/zero.txt" "$tmp/allow.txt"); do
    echo "FAIL: no test runs $f (test it through a product entry point, delete it, or allowlist it with a reason)" >&2
    status=1
done
for f in $(comm -13 "$tmp/zero.txt" "$tmp/allow.txt"); do
    echo "FAIL: scripts/cover_allow.txt lists $f, which a test now runs: drop the entry" >&2
    status=1
done
exit $status
