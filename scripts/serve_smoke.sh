#!/usr/bin/env bash
# Serve-daemon smoke test, two legs. First: build the CLI, produce
# statistics stores with instrumented runs, start the daemon, drive the
# observe → optimize round trip over HTTP with -drift and -cache-bytes at
# values whose effect /metrics shows, and check that SIGTERM drains and
# exits 0. Second: a daemon deliberately under-provisioned (one solve slot,
# no wait queue) under a dozen concurrent requests of distinct cache keys,
# each a miss, must shed with typed 429s, never a 5xx, count what it shed,
# and drain as cleanly. CI runs this as its own job; `make serve-smoke`
# runs it locally.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
addr="127.0.0.1:${SMOKE_PORT:-18099}"
trap 'rm -rf "$work"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

# await_daemon polls /healthz until the daemon just started answers.
await_daemon() {
    for i in $(seq 1 50); do
        if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -sf "http://$addr/healthz" | grep -q ok
}

# drain sends SIGTERM and requires a clean exit.
drain() {
    local rc=0
    kill -TERM "$pid"
    wait "$pid" || rc=$?
    pid=""
    if [ "$rc" -ne 0 ]; then
        echo "daemon exited $rc on SIGTERM, want 0" >&2
        exit 1
    fi
}

echo "== build"
go build -o "$work/etlopt" ./cmd/etlopt

echo "== observed statistics via run -save-stats"
"$work/etlopt" run -wf 3 -scale 0.002 -save-stats "$work/wf03.stats" >/dev/null
"$work/etlopt" run -wf 3 -scale 0.004 -save-stats "$work/wf03-2x.stats" >/dev/null

# -drift 1: the second store (twice the data, max relative drift 0.70) would
# invalidate under the default 0.25 and must not here. -cache-bytes 1200
# holds the optimize entry (479 bytes with overhead) or the estimate entry
# (1004), not both.
echo "== start daemon"
"$work/etlopt" serve -catalog "$work/catalog" -addr "$addr" -drift 1 -cache-bytes 1200 &
pid=$!
await_daemon

echo "== observe upload"
curl -sf --data-binary "@$work/wf03.stats" \
    "http://$addr/v1/observe?workflow=wf03" | grep -q '"generation": 1'

echo "== optimize (solve, then cache hit)"
curl -sf -X POST -d '{"workflow":"wf03"}' "http://$addr/v1/optimize" \
    > "$work/opt1.json"
grep -q '"totalCost"' "$work/opt1.json"
curl -sf -D "$work/headers" -X POST -d '{"workflow":"wf03"}' \
    "http://$addr/v1/optimize" > "$work/opt2.json"
grep -qi '^x-cache: hit' "$work/headers"
cmp "$work/opt1.json" "$work/opt2.json"

echo "== drifted upload below -drift keeps the standing solution"
curl -sf --data-binary "@$work/wf03-2x.stats" \
    "http://$addr/v1/observe?workflow=wf03" > "$work/observe2.json"
grep -q '"generation": 2' "$work/observe2.json"
grep -q '"reoptimize": false' "$work/observe2.json"
curl -sf -D "$work/headers" -X POST -d '{"workflow":"wf03"}' \
    "http://$addr/v1/optimize" > "$work/opt3.json"
grep -qi '^x-cache: hit' "$work/headers"
cmp "$work/opt1.json" "$work/opt3.json"

echo "== estimate (its entry evicts the optimize entry)"
curl -sf -X POST -d '{"workflow":"wf03"}' "http://$addr/v1/estimate" \
    | grep -q '"observe"'

echo "== metrics"
# One optimize solve + one estimate solve, two cache hits from the repeated
# optimizes, nothing invalidated although the upload drifted past 0.25, and
# one LRU eviction.
curl -sf "http://$addr/metrics" > "$work/metrics"
grep -q 'etlopt_serve_solves_total 2' "$work/metrics"
grep -q 'etlopt_serve_cache_hits_total 2' "$work/metrics"
grep -q 'etlopt_serve_catalog_generation{workflow="wf03"} 2' "$work/metrics"
grep -q 'etlopt_serve_invalidations_total 0' "$work/metrics"
awk '/^etlopt_serve_drift_max_rel\{workflow="wf03"\}/ { seen = ($2 > 0.25 && $2 < 1) } END { exit !seen }' "$work/metrics"
grep -q 'etlopt_serve_evictions_total 1' "$work/metrics"
grep -q 'etlopt_serve_cache_entries 1' "$work/metrics"

echo "== graceful SIGTERM drain"
drain

echo "== start daemon (1 solve slot, no queue)"
"$work/etlopt" serve -catalog "$work/catalog" -addr "$addr" \
    -max-solves 1 -solve-queue 0 &
pid=$!
await_daemon

# wf21 is the slowest solve of the suite (tens of milliseconds), and every
# request has its own budget, so no two share a solve. A round on a slow
# host may happen to run one request at a time; a few rounds will not.
echo "== a dozen concurrent estimates at wf21: 200 or 429, never anything else"
n=0
for round in $(seq 1 10); do
    curls=()
    for i in $(seq 1 12); do
        n=$((n + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -X POST \
            -d "{\"workflow\":\"wf21\",\"budget\":$((100000 + n))}" \
            "http://$addr/v1/estimate" > "$work/code.$n" &
        curls+=($!)
    done
    wait "${curls[@]}"
    cat "$work"/code.* > "$work/codes"
    if grep -q '^429$' "$work/codes"; then break; fi
done
served="$(grep -c '^200$' "$work/codes" || true)"
shed="$(grep -c '^429$' "$work/codes" || true)"
if [ "$served" -eq 0 ] || [ "$shed" -eq 0 ] || [ $((served + shed)) -ne "$n" ]; then
    echo "of $n requests $served were served and $shed shed; statuses seen:" >&2
    sort "$work/codes" | uniq -c >&2
    exit 1
fi

echo "== the daemon counted what it shed"
curl -sf "http://$addr/metrics" > "$work/metrics"
grep -q "etlopt_serve_sheds_total $shed\$" "$work/metrics"
grep -q 'etlopt_serve_solve_queue_depth 0' "$work/metrics"

echo "== graceful SIGTERM drain"
drain
echo "serve smoke OK"
