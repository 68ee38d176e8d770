#!/usr/bin/env bash
# Load smoke: start the daemon deliberately under-provisioned (one solve
# slot, no wait queue, cache off) and drive it with cmd/loadgen's smoke
# profile. Overload must be shed cleanly: zero 5xx, zero transport errors,
# at least one 429 (visible both in the loadgen report and the daemon's
# shed counter), and a clean SIGTERM drain afterwards. CI runs this as its
# own job; `make load-smoke` runs it locally.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
addr="127.0.0.1:${SMOKE_PORT:-18109}"
trap 'rm -rf "$work"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

echo "== build"
go build -o "$work/etlopt" ./cmd/etlopt
go build -o "$work/loadgen" ./cmd/loadgen

echo "== start daemon (1 solve slot, no queue, cache off)"
"$work/etlopt" serve -catalog "$work/catalog" -addr "$addr" \
    -cache=false -max-solves 1 -solve-queue 0 &
pid=$!
for i in $(seq 1 50); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q ok

echo "== drive the smoke profile"
"$work/loadgen" -spec loadspecs/smoke.yaml -addr "http://$addr" -out "$work/load.json"
cat "$work/load.json"

echo "== no 5xx, no transport errors"
grep -q '"5xx": 0' "$work/load.json"
if grep -q '"error"' "$work/load.json"; then
    echo "loadgen report contains transport errors" >&2
    exit 1
fi

echo "== the 429 path fired"
if grep -q '"429": 0,' "$work/load.json"; then
    echo "no request was shed despite 1 solve slot and no queue" >&2
    exit 1
fi
curl -sf "http://$addr/metrics" > "$work/metrics"
grep -Eq 'etlopt_serve_sheds_total [1-9]' "$work/metrics"
grep -q 'etlopt_serve_solve_queue_depth 0' "$work/metrics"

echo "== graceful SIGTERM drain"
kill -TERM "$pid"
wait "$pid"
rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc on SIGTERM, want 0" >&2
    exit 1
fi
echo "load smoke OK"
