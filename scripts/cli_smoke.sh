#!/usr/bin/env bash
# CLI smoke test: every design-time subcommand and every (subcommand, flag)
# pair that no other smoke script drives, one asserted line each — the
# assertion is something the flag changes, not just exit 0 — flags a
# subcommand does not read refused as usage errors, and cmd/experiments'
# three flags. The md5s pin planner output the paper's figures rest on
# (Figure 11 is the -union-division pair below); they move only when the
# planner does. cmd/etlopt's TestEveryFlagIsDriven reads this file: a
# subcommand keeps a flag only while a script runs it with that flag. CI
# runs this as its own job; `make cli-smoke` runs it locally (a few seconds
# after the build).
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
# A document plans as the suite workflow it was exported from.
"$etlopt" baseline -f "$work/f.json" > "$work/out"
"$etlopt" baseline -wf 3 | cmp - "$work/out"
"$etlopt" dot -wf 8 > "$work/out"
grep -q '^digraph "wf08' "$work/out"
"$etlopt" dot -f "$work/f.json" > "$work/out"
grep -q '^digraph "wf03' "$work/out"
"$etlopt" report -wf 3 > "$work/out"
grep -q '^# Optimization cycle — wf03' "$work/out"

echo "== report: -union-division, -scale, -workers, -max-rows, -timeout, -faults"
"$etlopt" report -wf 3 -union-division=false > "$work/out"
grep -q '^- candidate statistics sets: 15$' "$work/out"
"$etlopt" report -wf 3 -scale 0.004 > "$work/out"
grep -qxF '|T1| = 720' "$work/out"
# The phase timings are wall-clock; everything else is deterministic.
"$etlopt" report -wf 13 -workers 1 | grep -v '^- phase timings' > "$work/w1.out"
"$etlopt" report -wf 13 -workers 4 | grep -v '^- phase timings' | cmp - "$work/w1.out"
exits 1 "$etlopt" report -wf 3 -max-rows 1000
grep -q 'run exceeded MaxRows=1000' "$work/err"
exits 3 "$etlopt" report -wf 3 -timeout 1ns
exits 1 "$etlopt" report -wf 3 -faults seed=7,rate=1,transient=0,kinds=op
grep -q 'injected permanent operator fault' "$work/err"

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
exits 2 "$etlopt" schedule -wf 3
grep -q 'needs -budget' "$work/err"
# wf29's schedule re-orders two blocks in one run: they print in ascending
# block order, identically on every invocation (a map-ordered print
# reverses them about one run in eight).
"$etlopt" schedule -wf 29 -budget 8 > "$work/sched"
[ "$(awk '/ re-ordered:/ { printf "%s ", $2 }' "$work/sched")" = "0 1 " ]
for i in $(seq 1 31); do "$etlopt" schedule -wf 29 -budget 8 | cmp -s - "$work/sched"; done

echo "== explain: -method, -metrics, -scale, -workers, -max-rows, -timeout, -faults"
"$etlopt" explain -wf 3 -method greedy > "$work/out"
grep -q '^workflow wf03.* 8 tap(s))$' "$work/out"
"$etlopt" explain -wf 3 -metrics table > "$work/out" 2>/dev/null
grep -q '^metrics (one instrumented run):$' "$work/out"
# -metrics with -derive prints both sections from one instrumented run.
sum="$("$etlopt" explain -wf 3 -metrics table -derive 2>/dev/null | md5sum | cut -d' ' -f1)"
[ "$sum" = 34fb7cc61e68d53facde67f44e3b6599 ]
"$etlopt" explain -wf 3 -scale 0.004 -derive > "$work/out"
grep -qF '|T1| = 720   (observed)' "$work/out"
"$etlopt" explain -wf 13 -derive -workers 1 > "$work/w1.out"
"$etlopt" explain -wf 13 -derive -workers 4 | cmp - "$work/w1.out"
exits 1 "$etlopt" explain -wf 3 -derive -max-rows 1000
grep -q 'run exceeded MaxRows=1000' "$work/err"
exits 3 "$etlopt" explain -wf 3 -derive -timeout 1ns
"$etlopt" explain -wf 7 -derive -faults seed=7,rate=0.5,transient=1 > "$work/out"
grep -q '^recovered from transient faults: ' "$work/out"

echo "== schedule: -union-division, -scale, -workers, -max-rows, -timeout, -faults"
# Without union–division wf03 observes the two j12 histograms instead.
"$etlopt" schedule -wf 3 -budget 1000000 -union-division=false > "$work/out"
grep -qxF '  observe H^{T1.j12}_{T2}' "$work/out"
"$etlopt" schedule -wf 3 -budget 64 -scale 0.004 > "$work/out"
grep -qxF '  |T1| = 720' "$work/out"
sum="$("$etlopt" schedule -wf 3 -budget 64 -workers 1 | md5sum | cut -d' ' -f1)"
[ "$sum" = 276cc55292e55d136637ef4701a0f872 ]
exits 1 "$etlopt" schedule -wf 3 -budget 64 -max-rows 1000
grep -q 'run exceeded MaxRows=1000' "$work/err"
exits 3 "$etlopt" schedule -wf 3 -budget 64 -timeout 1ns
exits 1 "$etlopt" schedule -wf 3 -budget 64 -faults seed=7,rate=1,transient=0,kinds=op
grep -q 'injected permanent operator fault' "$work/err"

echo "== gendata -out -scale, run and explain -f -data"
"$etlopt" gendata -wf 3 -out "$work/d" > "$work/out"
grep -q '^wrote 3 relations' "$work/out"
"$etlopt" gendata -wf 3 -scale 0.004 -out "$work/d2" > "$work/out"
[ "$(wc -l < "$work/d2/T1.csv")" -eq 721 ]
"$etlopt" run -f "$work/f.json" -data "$work/d" > "$work/out"
grep -q '^block 0 optimized:' "$work/out"
exits 2 "$etlopt" run -f "$work/f.json"
grep -q 'with -data' "$work/err"
# explain reads the flat files it is given: T1 has the rows of d2.
"$etlopt" explain -f "$work/f.json" -data "$work/d2" -derive > "$work/out"
grep -qF '|T1| = 720   (observed)' "$work/out"
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

echo "== a flag the subcommand does not read, or no subcommand, is a usage error"
exits 2 "$etlopt" run -wf 3 -catalog /nonexistent -cache-bytes 1 -drift 9 -budget 5 -out /x -addr :1 -derive
grep -q 'flag provided but not defined: -catalog' "$work/err"
exits 2 "$etlopt" analyze -wf 3 -worker-addrs http://x -save-stats "$work/unwritten.stats" -metrics json -max-rows 5
grep -q 'flag provided but not defined: -worker-addrs' "$work/err"
[ ! -e "$work/unwritten.stats" ]
# The daemons run until signalled: -timeout is a run's deadline, not theirs.
exits 2 "$etlopt" worker -addr 127.0.0.1:0 -timeout 1ms
grep -q 'flag provided but not defined: -timeout' "$work/err"
exits 2 "$etlopt" bogus -wf 3
grep -q '^usage: etlopt <suite|' "$work/err"

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
