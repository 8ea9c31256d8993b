#!/usr/bin/env bash
# Coverage floor: lists the functions nothing the repo runs reaches, and
# fails when one of them is missing from COVERAGE_FLOOR.txt.
#
#   scripts/coverfloor.sh
#
# Universe  every function of every package: go test -cover -coverpkg=./...
#           with no test selected registers each package at zero, including
#           packages no binary links.
# Union     ./benchmark, ./cmd/symbench, ./cmd/symnetd, ./cmd/symnet,
#           ./cmd/symgen and ./examples/* built with -cover -coverpkg=./...,
#           then run: every BENCHMARK.json workload for 1 s traced, symbench
#           -run all -quick, every example, the symnetd liveness cycle
#           (scripts/symnetd-smoke.sh), symnet on
#           cmd/symnet/testdata/pipeline.click (plain, as IR, and traced over
#           a UDP packet) and a symgen round trip (a MAC table, a FIB and a
#           churn script generated, the first two read back).
# Unreached a universe function that reads 0% or is absent in the union,
#           outside benchmark/ and examples/, other than the marker methods
#           isExpr, isCond, isInstr, isStmt, isLValue and String/Error.
#
# COVERAGE_FLOOR.txt holds one "path<TAB>func<TAB>reason" line per unreached
# function (no line numbers; # starts a comment). The script prints each
# unlisted function as a floor line without its reason and exits 1; it
# prints listed functions that something now reaches as stale, and a line
# without a reason is an error. Run from anywhere; it needs go, curl and
# python3, takes a few minutes, and uses 127.0.0.1:7080-7081.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$(mktemp -d "${TMPDIR:-/tmp}/coverfloor.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/universe" "$work/union" "$work/bin"

echo "coverfloor: universe" >&2
go test -count=1 -cover -coverpkg=./... -run '^$' ./... -args -test.gocoverdir="$work/universe" >/dev/null

echo "coverfloor: union" >&2
for pkg in ./benchmark ./cmd/symbench ./cmd/symnetd ./cmd/symnet ./cmd/symgen ./examples/*/; do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$pkg")" "$pkg"
done
export GOCOVERDIR="$work/union"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
	"$work/bin/benchmark" -workload "$w" -seconds 1 -trace 1 >/dev/null
done
"$work/bin/symbench" -run all -quick >/dev/null
for ex in examples/*/; do
	"$work/bin/$(basename "$ex")" >/dev/null
done
scripts/symnetd-smoke.sh "$work/bin/symnetd" "$work" >/dev/null
"$work/bin/symnet" -config cmd/symnet/testdata/pipeline.click -inject cls:0 >/dev/null
"$work/bin/symnet" -config cmd/symnet/testdata/pipeline.click -dump-ir >/dev/null
"$work/bin/symnet" -config cmd/symnet/testdata/pipeline.click -inject cls:0 -trace -trace-out "$work/spans.jsonl" -packet udp >/dev/null
"$work/bin/symgen" -gen mac -entries 200 >"$work/mac.txt"
"$work/bin/symgen" -gen fib -entries 200 >"$work/fib.txt"
"$work/bin/symgen" -gen churn -fib "$work/fib.txt" -entries 20 >/dev/null
"$work/bin/symgen" -mac "$work/mac.txt" >/dev/null
"$work/bin/symgen" -fib "$work/fib.txt" >/dev/null
unset GOCOVERDIR

# funcs DIR: "path:line<TAB>func<TAB>percent" for every function, the path
# relative to the module root.
funcs() {
	go tool covdata func -i="$1" | awk -v mod="$(go list -m)/" '
		$1 == "total" { next }
		{ loc = $1; sub(/:$/, "", loc); if (index(loc, mod) == 1) loc = substr(loc, length(mod) + 1)
		  print loc "\t" $2 "\t" $NF }'
}
funcs "$work/universe" | awk -F'\t' '$1 !~ /^(benchmark|examples)\// && $2 !~ /(^|\.)(isExpr|isCond|isInstr|isStmt|isLValue|String|Error)$/ { print $1 "\t" $2 }' |
	sort -u >"$work/all"
funcs "$work/union" | awk -F'\t' '$3 != "0.0%" { print $1 "\t" $2 }' | sort -u >"$work/reached"
comm -23 "$work/all" "$work/reached" | sed 's/:[0-9]*\t/\t/' | sort -u >"$work/unreached"

grep -v -e '^#' -e '^$' COVERAGE_FLOOR.txt >"$work/floor.lines" || true
status=0
noreason=$(awk -F'\t' 'NF < 3 || $3 == ""' "$work/floor.lines")
if [ -n "$noreason" ]; then
	echo "coverfloor: COVERAGE_FLOOR.txt lines without a reason:"
	echo "$noreason"
	status=1
fi
cut -f1,2 "$work/floor.lines" | sort -u >"$work/floor"
comm -13 "$work/unreached" "$work/floor" | sed 's/^/coverfloor: stale (reached now, or gone): /'
if comm -23 "$work/unreached" "$work/floor" | grep . >"$work/unlisted"; then
	echo "coverfloor: unreached and not in COVERAGE_FLOOR.txt:"
	sed 's/$/\t/' "$work/unlisted"
	status=1
fi
echo "coverfloor: $(wc -l <"$work/unreached") unreached functions, $(wc -l <"$work/floor") listed"
exit $status
