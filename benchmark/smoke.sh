#!/usr/bin/env bash
# Builds the benchmark, runs every workload for a second, runs a one-second
# traced run of each, and checks every result line against the
# metric lists in BENCHMARK.json: a missing or an extra name fails.
# Run from anywhere; a later CI job can call it as is.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp="$root/.bench_build/smoke.$$" # inside the checkout; .gitignore names it
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/benchmark" ./benchmark

check() { # check <result line file> <end_to_end|per_layer> <label>
	python3 - "$1" "$2" "$3" <<'PY'
import json, sys
path, key, label = sys.argv[1:]
want = {m["name"]: m["unit"] for m in json.load(open("BENCHMARK.json"))[key]}
out = json.loads(open(path).read().strip().splitlines()[-1])
assert set(out) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(out)}"
got = {n: m["unit"] for n, m in out["metrics"].items()}
missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
if missing or extra or wrong or not out["correct"] or out["failed"] or out["attempted"] < 1:
    sys.exit(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}, "
             f"correct {out['correct']}, failed {out['failed']} of {out['attempted']}")
print(f"ok  {label}: {len(got)} metrics, {out['attempted']} operations")
PY
}

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
	"$tmp/benchmark" -workload "$w" -seed 1 -seconds 1 >"$tmp/plain.json" 2>"$tmp/plain.err" ||
		{ cat "$tmp/plain.err" >&2; echo "FAIL $w" >&2; exit 1; }
	check "$tmp/plain.json" end_to_end "$w"
	"$tmp/benchmark" -workload "$w" -seed 1 -seconds 1 -trace 1 -trace-out "$tmp/$w.jsonl" >"$tmp/traced.json" 2>"$tmp/traced.err" ||
		{ cat "$tmp/traced.err" >&2; echo "FAIL $w (traced)" >&2; exit 1; }
	check "$tmp/traced.json" per_layer "$w (traced)"
	test -s "$tmp/$w.jsonl" || { echo "FAIL $w: empty trace" >&2; exit 1; }
done
echo "smoke: all workloads ok"
