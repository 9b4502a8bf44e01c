#!/bin/sh
# fuzz-smoke.sh — a short fuzz run of every Fuzz* target in the module,
# FUZZTIME each (default 5s). verify.sh runs it last; `make fuzz-smoke`
# runs it alone.
#
# Usage: ./scripts/fuzz-smoke.sh   (or: make fuzz-smoke FUZZTIME=2s)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-5s}"

echo "== fuzz smoke ($FUZZTIME per target) =="
# Each fuzz target must run alone: `go test -fuzz` accepts only one
# match per package invocation.
go list ./... | while read -r pkg; do
    dir=$(go list -f '{{.Dir}}' "$pkg")
    targets=$(grep -ho 'func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go 2>/dev/null |
        sed 's/func //' | sort -u) || true
    [ -n "$targets" ] || continue
    for t in $targets; do
        echo "-- $pkg $t"
        go test -run '^$' -fuzz "^${t}\$" -fuzztime "$FUZZTIME" "$pkg"
    done
done
