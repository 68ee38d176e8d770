#!/usr/bin/env bash
# Distributed-execution smoke test: build the CLI, start two worker
# processes, and check the composed modes against the live fleet —
# -worker-addrs with -metrics json, a multi-run observation schedule and a
# cycle report must each print the single-process stdout byte for byte (the
# report's wall-clock phase timings aside) and their placement on stderr, as
# must a schedule and a report whose only worker cannot be reached. Then run a
# multi-block workflow distributed, SIGKILL one worker while the run is in
# flight, and require exit 0 with stdout byte-identical to the
# single-process reference; then repeat with the dead worker still
# configured (the reassign/degrade path from the very first dispatch). CI
# runs this as its own job; `make distributed-smoke` runs it locally.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
wf=8
scale=0.1
p1="${SMOKE_WORKER1_PORT:-18091}"
p2="${SMOKE_WORKER2_PORT:-18092}"
addrs="http://127.0.0.1:$p1,http://127.0.0.1:$p2"
trap 'rm -rf "$work"; kill "${w1:-}" "${w2:-}" 2>/dev/null || true' EXIT

echo "== build"
go build -o "$work/etlopt" ./cmd/etlopt

echo "== single-process references"
"$work/etlopt" run -wf "$wf" -scale "$scale" > "$work/ref.out"
"$work/etlopt" run -wf "$wf" -scale "$scale" -metrics json > "$work/ref-metrics.out" 2>/dev/null
"$work/etlopt" schedule -wf 3 -budget 64 > "$work/ref-schedule.out"
"$work/etlopt" report -wf 3 | grep -v '^- phase timings' > "$work/ref-report.out"

echo "== start 2 workers"
"$work/etlopt" worker -addr "127.0.0.1:$p1" 2> "$work/w1.log" &
w1=$!
"$work/etlopt" worker -addr "127.0.0.1:$p2" 2> "$work/w2.log" &
w2=$!
disown "$w1" "$w2" # suppress job-control noise when the SIGKILL lands
for p in "$p1" "$p2"; do
    for i in $(seq 1 50); do
        if curl -sf "http://127.0.0.1:$p/v1/worker/health" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -sf "http://127.0.0.1:$p/v1/worker/health" | grep -q ok
done

# composed runs one distributed leg on the live fleet: all blocks remote,
# stdout identical to its single-process reference.
composed() {
    local name="$1"; shift
    "$work/etlopt" run -wf "$wf" -scale "$scale" -worker-addrs "$addrs" "$@" \
        > "$work/dist-$name.out" 2> "$work/dist-$name.err" || {
        echo "distributed $* run failed" >&2
        cat "$work/dist-$name.err" >&2
        exit 1
    }
    # wf08 is a 3-block chain: one exchange runs all three blocks on one
    # worker, and the outputs of blocks 0 and 1 never leave it.
    grep -q '^distributed: 3 block(s) executed remotely in 1 exchange(s), 0 run in-process, ' "$work/dist-$name.err"
    cmp "$work/ref-$name.out" "$work/dist-$name.out"
}

echo "== distributed -metrics json matches the single-process stdout"
composed metrics -metrics json

echo "== distributed schedule -budget matches the single-process stdout, one placement line a run"
"$work/etlopt" schedule -wf 3 -budget 64 -worker-addrs "$addrs" > "$work/dist-schedule.out" 2> "$work/dist-schedule.err"
cmp "$work/ref-schedule.out" "$work/dist-schedule.out"
runs=$(grep -c '^run [0-9]*:$' "$work/ref-schedule.out")
[ "$(grep -c '^distributed: 1 block(s) executed remotely' "$work/dist-schedule.err")" -eq "$runs" ]

echo "== distributed report matches the single-process report"
"$work/etlopt" report -wf 3 -worker-addrs "$addrs" 2> "$work/dist-report.err" | grep -v '^- phase timings' > "$work/dist-report.out"
cmp "$work/ref-report.out" "$work/dist-report.out"
grep -q '^distributed: 1 block(s) executed remotely' "$work/dist-report.err"

echo "== schedule and report with no reachable worker fall back in-process, say so, and match"
dead=http://127.0.0.1:1
"$work/etlopt" schedule -wf 3 -budget 64 -worker-addrs "$dead" > "$work/dead-schedule.out" 2> "$work/dead-schedule.err"
cmp "$work/ref-schedule.out" "$work/dead-schedule.out"
fallback='^distributed: fell back in-process (.*): 0 block(s) completed remotely in 0 exchange(s), 1 run in-process; run completed whole, outputs identical$'
[ "$(grep -c "$fallback" "$work/dead-schedule.err")" -eq "$runs" ]
"$work/etlopt" report -wf 3 -worker-addrs "$dead" 2> "$work/dead-report.err" | grep -v '^- phase timings' > "$work/dead-report.out"
cmp "$work/ref-report.out" "$work/dead-report.out"
grep -q "$fallback" "$work/dead-report.err"

echo "== distributed run, one worker SIGKILLed mid-run"
"$work/etlopt" run -wf "$wf" -scale "$scale" -worker-addrs "$addrs" \
    > "$work/dist.out" 2> "$work/dist.err" &
run=$!
sleep 0.25
kill -9 "$w1" 2>/dev/null || true
rc=0
wait "$run" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "distributed run exited $rc, want 0" >&2
    cat "$work/dist.err" >&2
    exit 1
fi
grep -q '^distributed:' "$work/dist.err"

echo "== outputs byte-identical to the single-process run"
cmp "$work/ref.out" "$work/dist.out"

echo "== re-run with the dead worker still configured"
rc=0
"$work/etlopt" run -wf "$wf" -scale "$scale" -worker-addrs "$addrs" \
    > "$work/dist2.out" 2> "$work/dist2.err" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "second distributed run exited $rc, want 0" >&2
    cat "$work/dist2.err" >&2
    exit 1
fi
grep -q '^distributed:' "$work/dist2.err"
cmp "$work/ref.out" "$work/dist2.out"

echo "PASS: distributed runs compose with -metrics and schedule and survive a SIGKILLed worker, outputs identical"
