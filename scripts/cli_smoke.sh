#!/usr/bin/env bash
# CLI smoke test: every design-time subcommand and every flag that no other
# smoke script drives, one asserted line each — the assertion is something
# the flag changes, not just exit 0 — and cmd/experiments' three flags. The
# md5s pin planner output the paper's figures rest on (Figure 11 is the
# -union-division pair below); they move only when the planner does. cmd/etlopt's TestEveryFlagIsDriven reads this
# file: a flag stays only while a script passes it. CI runs this as its own
# job; `make cli-smoke` runs it locally (about a second after the build).
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
trap 'echo "cli smoke: assertion at line $LINENO failed" >&2' ERR
etlopt="$work/etlopt"

# exits <code> <command...> runs the command, stderr to $work/err, and
# requires that exit code.
exits() {
    local want="$1" rc=0; shift
    "$@" > "$work/out" 2> "$work/err" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "exit $rc, want $want: $*" >&2
        cat "$work/err" >&2
        exit 1
    fi
}

echo "== build"
go build -o "$etlopt" ./cmd/etlopt

echo "== suite, export, analyze -f"
"$etlopt" suite > "$work/out"
[ "$(grep -c '^[0-9]' "$work/out")" -eq 30 ]
"$etlopt" export -wf 3 > "$work/f.json"
"$etlopt" analyze -f "$work/f.json" > "$work/analyze-f.out"
"$etlopt" analyze -wf 3 > "$work/analyze-wf.out"
grep -q '1 optimizable block' "$work/analyze-f.out"
cmp "$work/analyze-f.out" "$work/analyze-wf.out"
grep -q '^statistic universe: 25 statistics, 43 candidate statistics sets$' "$work/analyze-wf.out"
# Figure 9's count without union–division.
"$etlopt" analyze -wf 3 -union-division=false > "$work/out"
grep -q ', 15 candidate statistics sets$' "$work/out"

echo "== stats: -method, -union-division, determinism over the suite"
"$etlopt" stats -f "$work/f.json" -method greedy > "$work/out"
grep -q '^method=greedy ' "$work/out"
# exact and greedy are the only solvers; anything else is a usage error.
exits 2 "$etlopt" stats -wf 3 -method lp
grep -q '"lp"' "$work/err"
"$etlopt" stats -wf 3 > "$work/out"
grep -q ' optimal=true cost=304 ' "$work/out"
"$etlopt" stats -wf 3 -union-division=false > "$work/out"
grep -q ' optimal=true cost=800003 ' "$work/out"
sum="$(for i in $(seq 1 30); do "$etlopt" stats -wf "$i"; done | md5sum | cut -d' ' -f1)"
[ "$sum" = 16445b84c6dd65c3d698ed96a4817012 ]

echo "== baseline, dot, report"
"$etlopt" baseline -wf 21 > "$work/out"
grep -q 'this framework: *1 execution' "$work/out"
"$etlopt" dot -wf 8 > "$work/out"
grep -q '^digraph "wf08' "$work/out"
"$etlopt" report -wf 3 > "$work/out"
grep -q '^# Optimization cycle — wf03' "$work/out"

echo "== explain -derive, schedule -budget"
"$etlopt" explain -wf 3 > "$work/out"
if grep -q '^derivations:' "$work/out"; then
    echo "explain printed derivations without -derive" >&2
    exit 1
fi
sum="$("$etlopt" explain -wf 3 -derive | md5sum | cut -d' ' -f1)"
[ "$sum" = 174ffcbd5231fd7277f4a7e398873ddb ]
sum="$("$etlopt" schedule -wf 3 -budget 64 | md5sum | cut -d' ' -f1)"
[ "$sum" = 276cc55292e55d136637ef4701a0f872 ]
exits 1 "$etlopt" schedule -wf 3
grep -q 'needs -budget' "$work/err"
# wf29's schedule re-orders two blocks in one run: they print in ascending
# block order, identically on every invocation (a map-ordered print
# reverses them about one run in eight).
"$etlopt" schedule -wf 29 -budget 8 > "$work/sched"
[ "$(awk '/ re-ordered:/ { printf "%s ", $2 }' "$work/sched")" = "0 1 " ]
for i in $(seq 1 31); do "$etlopt" schedule -wf 29 -budget 8 | cmp -s - "$work/sched"; done

echo "== gendata -out, run -f -data"
"$etlopt" gendata -wf 3 -out "$work/d" > "$work/out"
grep -q '^wrote 3 relations' "$work/out"
"$etlopt" run -f "$work/f.json" -data "$work/d" > "$work/out"
grep -q '^block 0 optimized:' "$work/out"
exits 1 "$etlopt" run -f "$work/f.json"
grep -q 'with -data' "$work/err"
# Workers regenerate a suite workflow's data; they cannot run a document.
exits 1 "$etlopt" run -f "$work/f.json" -data "$work/d" -worker-addrs http://127.0.0.1:1
grep -q 'needs a suite workflow' "$work/err"

echo "== run: -workers, -max-rows, -timeout, -faults"
"$etlopt" run -wf 13 -workers 1 > "$work/w1.out"
"$etlopt" run -wf 13 -workers 4 > "$work/w4.out"
cmp "$work/w1.out" "$work/w4.out"
exits 1 "$etlopt" run -wf 16 -max-rows 100000
grep -q 'intermediate-cardinality guard: run exceeded MaxRows=100000' "$work/err"
exits 3 "$etlopt" run -wf 3 -timeout 1ns
"$etlopt" run -wf 7 > "$work/plain.out"
"$etlopt" run -wf 7 -faults seed=7,rate=0.5,transient=1 > "$work/faults.out"
grep -q '^recovered from transient faults: ' "$work/faults.out"
grep -v '^recovered from transient faults: ' "$work/faults.out" | cmp - "$work/plain.out"
"$etlopt" run -wf 3 > "$work/out"
grep -q '^observed 6 statistics (memory 304 units)' "$work/out"
# There is no sketch statistics tier, so its old flag is a usage error.
exits 2 "$etlopt" run -wf 3 -stats-tier approx
grep -q 'flag provided but not defined' "$work/err"
# Suite data is generated at scale × nominal rows: a scale outside (0, 1]
# is a usage error, here and on every worker.
exits 2 "$etlopt" run -wf 3 -scale 0
grep -qF 'outside (0, 1]' "$work/err"
exits 2 "$etlopt" run -wf 3 -scale 2
grep -qF 'outside (0, 1]' "$work/err"
# There is no network fault kind: network failures are the transport's.
exits 2 "$etlopt" run -wf 3 -faults kinds=net
grep -q 'unknown kind "net"' "$work/err"

echo "== run, explain, report: -method and -union-division reach every subcommand"
"$etlopt" run -wf 3 -union-division=false > "$work/out"
grep -q '^observed 5 statistics (memory 800003 units)' "$work/out"
# explain shows the taps run will place: -union-division=false changes the
# plan it prints, and its tap count is the run's "observed N statistics".
n="$(sed -n 's/^observed \([0-9]*\) statistics.*/\1/p' "$work/out")"
"$etlopt" explain -wf 3 > "$work/explain-exact.out"
"$etlopt" explain -wf 3 -union-division=false > "$work/out"
if cmp -s "$work/out" "$work/explain-exact.out"; then
    echo "explain ignored -union-division=false" >&2
    exit 1
fi
grep -q "^workflow wf03.* $n tap(s))\$" "$work/out"
"$etlopt" run -wf 3 -method greedy > "$work/out"
grep -q '^observed 8 statistics (memory 306 units)' "$work/out"
"$etlopt" report -wf 3 -method greedy > "$work/out"
grep -q '^- selection: greedy ' "$work/out"
exits 2 "$etlopt" run -wf 3 -method bogus

echo "== experiments: -exp, -wf"
experiments="$work/experiments"
go build -o "$experiments" ./cmd/experiments
# EXPERIMENTS.md's tables are the command's output, byte for byte.
"$experiments" -exp=fig9 > "$work/out"
sed -n '/^<!-- experiments:fig9 -->$/,/^<!-- \/experiments:fig9 -->$/p' EXPERIMENTS.md | cmp - "$work/out"
"$experiments" -wf 3 > "$work/out"
[ "$(grep -c '^| [0-9]' "$work/out")" -eq 1 ]
grep -q '^| 3 | 6 | 6/6 | ' "$work/out"
exits 1 "$experiments" -exp=bogus
grep -q 'unknown experiment "bogus"' "$work/err"

echo "cli smoke OK"
