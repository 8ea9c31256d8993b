#!/usr/bin/env bash
# The symnetd liveness cycle: boot a daemon on the quick backbone with
# -state, post a coalescable burst and a reroute, read the versioned report
# and the watch stream, round-trip a snapshot, check the counters on
# /debug/vars, then restart from -state and check that the matrix survived.
# Exits 1 on the first check that fails.
#
#   scripts/symnetd-smoke.sh BIN DIR
#
# BIN is a built cmd/symnetd; DIR holds the state file and the responses.
# The daemon listens on 127.0.0.1:7080 (API) and 127.0.0.1:7081 (debug).
set -eu
bin=$1
dir=$2
rm -f "$dir"/st.json
pid=
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true' EXIT
# Start the incremental verification daemon on the quick backbone
# and drive the /v1 serving surface: one POST carrying a 10-delta
# same-table burst must coalesce into a single absorption pass
# (churn.batch.max_size > 1), a reroute of zone0's /16 on zone1
# must flip reachability cells, and a watch client replaying the
# version stream must observe the transition. zone1 owns
# 10.1.0.0/16 with /24s .0-.23 populated, so .80-.89 are fresh
# inserts on an existing port (the patchable tier).
boot() {
  "$bin" -network backbone -quick -listen 127.0.0.1:7080 -debug-addr 127.0.0.1:7081 -state "$dir"/st.json &
  pid=$!
  for i in $(seq 1 120); do
    curl -fsS http://127.0.0.1:7080/healthz >/dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { echo "symnetd died during init"; exit 1; }
    sleep 0.5
  done
}
boot
# The pre-/v1 paths are gone, not redirected.
code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:7080/report)
[ "$code" = 404 ] || { echo "/report returned $code, want 404"; exit 1; }
# Coalescable burst: 10 inserts into zone1's table in one request.
for i in $(seq 80 89); do
  echo "{\"elem\":\"zone1\",\"op\":\"insert\",\"prefix\":\"10.1.$i.0/24\",\"port\":2}"
done | curl -fsS -X POST --data-binary @- http://127.0.0.1:7080/v1/delta > "$dir"/burst.json
grep -q '"applied":10' "$dir"/burst.json || { echo "burst not fully applied: $(cat "$dir"/burst.json)"; exit 1; }
# Reroute zone0's /16 into zone1's host port: a guaranteed flip
# (zone1's monitored traffic now delivers locally, not at zone0).
echo '{"elem":"zone1","op":"insert","prefix":"10.0.0.0/16","port":2}' \
  | curl -fsS -X POST --data-binary @- http://127.0.0.1:7080/v1/delta >/dev/null
curl -fsS 'http://127.0.0.1:7080/v1/report' | grep -q '"version":3' || { echo "report not at version 3"; exit 1; }
curl -fsS 'http://127.0.0.1:7080/v1/report?version=2' | grep -q '"reachable"'
# A watch client replaying from version 1 sees the flip.
curl -fsS 'http://127.0.0.1:7080/v1/watch?since=1&poll=1' > "$dir"/watch.json
grep -q '"from":"Delivered"' "$dir"/watch.json || { echo "watch saw no transition: $(cat "$dir"/watch.json)"; exit 1; }
# Snapshot export round-trips through restore.
curl -fsS http://127.0.0.1:7080/v1/snapshot > "$dir"/state.json
curl -fsS -X POST --data-binary @"$dir"/state.json http://127.0.0.1:7080/v1/snapshot | grep -q '"version":4'
vars=$(curl -fsS http://127.0.0.1:7081/debug/vars)
echo "$vars" | grep -qE '"churn\.deltas\.applied":11' || { echo "deltas.applied did not reach 11"; exit 1; }
echo "$vars" | grep -qE '"churn\.batch\.max_size":([2-9]|[1-9][0-9]+)' || { echo "burst did not coalesce (batch.max_size < 2)"; exit 1; }
echo "$vars" | grep -qE '"churn\.watch\.transitions":[1-9]' || { echo "no watch transitions broadcast"; exit 1; }
echo "$vars" | grep -qE '"churn\.cells\.reverified":[1-9]' || { echo "no cells reverified"; exit 1; }
# Restart on -state: SIGTERM writes the snapshot, the next boot
# restores it as a larger version with the reroute still in effect
# (same matrix; inserting the route again is a duplicate, 422).
curl -fsS http://127.0.0.1:7080/v1/report > "$dir"/before.json
kill "$pid"; wait "$pid" || true
test -s "$dir"/st.json || { echo "shutdown wrote no snapshot"; exit 1; }
boot
curl -fsS http://127.0.0.1:7080/v1/report > "$dir"/after.json
ver() { grep -o '"version":[0-9]*' "$1" | head -n 1 | cut -d: -f2; }
[ "$(ver "$dir"/after.json)" -gt "$(ver "$dir"/before.json)" ] || { echo "restart did not publish a larger version: $(ver "$dir"/before.json) -> $(ver "$dir"/after.json)"; exit 1; }
[ "$(grep -o '"reachable":[^"]*' "$dir"/before.json)" = "$(grep -o '"reachable":[^"]*' "$dir"/after.json)" ] || { echo "reachability changed across the restart"; exit 1; }
code=$(echo '{"elem":"zone1","op":"insert","prefix":"10.0.0.0/16","port":2}' \
  | curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- http://127.0.0.1:7080/v1/delta)
[ "$code" = 422 ] || { echo "re-inserting the reroute after restart returned $code, want 422 (already present)"; exit 1; }
kill "$pid"; wait "$pid" || true
echo "symnetd coalesced a 10-delta burst, streamed the flip to a watch client, restored a snapshot, and came back from -state"
