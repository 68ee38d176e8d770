#!/usr/bin/env bash
# A/B comparison of the working tree (the change) against another commit
# (the reference), by the alternated-pairs protocol every performance claim
# in this repository quotes:
#
#   bash scripts/ab.sh [-n PAIRS] <ref> [workload...]     (make ab REF=<ref>)
#
# It exports <ref> into .bench_build/ab/ref (git archive: nothing is left in
# .git), and runs PAIRS (default 10) pairs per workload (default: every
# workload of BENCHMARK.json) of the two trees' own `bash bench/run.sh`, so
# each side is built from its own source with run.sh's environment. Pair i
# uses seed i on both sides and --seconds from BENCHMARK.json; odd pairs run
# the reference first, even pairs the change. Every run's standard output and
# error stay in .bench_build/ab/runs/.
#
# Per workload and end-to-end metric it prints both sides' medians and
# quartiles, the pairs the change won and lost, and a two-sided sign test;
# the phase times and the reference kernel printed on standard error get the
# same rows. The verdict on a metric is "better" or "worse" only when the
# change wins (loses) at least nine tenths of the untied pairs and the
# medians differ by more than the reference's inter-quartile range; anything
# else, two identical trees included, is "no difference". Fewer than 10 pairs
# conclude nothing, and neither does a time when the two sides' medians of
# `reference kernel p50` differ by more than 5 %: the host changed speed.
# Last, the heap each run ended with and its collections (the heap_sys and
# gc of its summary line) get medians and quartiles and no verdict: they
# explain a time, they are not one.
# The exit code is 1 when a run failed its output checks.
set -euo pipefail
cd "$(dirname "$0")/.."
pairs=10
if [ "${1:-}" = "-n" ]; then
  pairs=$2
  shift 2
fi
if [ $# -lt 1 ]; then
  sed -n '2,7p' "$0" >&2
  exit 2
fi
ref=$1
shift
sha=$(git rev-parse --verify "$ref^{commit}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=${*:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}

ab=$PWD/.bench_build/ab
rm -rf "$ab/ref" "$ab/runs"
mkdir -p "$ab/ref" "$ab/runs"
git archive "$sha" | tar -x -C "$ab/ref"
echo "ab: change = working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted'), reference = $ref ($(git rev-parse --short "$sha")), $pairs pairs, $seconds s" >&2

# run <side> <tree> <workload> <pair>
run() {
  echo "ab: $3 pair $4/$pairs $1" >&2
  bash "$2/bench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
    2>"$ab/runs/$3.$4.$1.err" | tail -n 1 >"$ab/runs/$3.$4.$1.json" ||
    echo "ab: $3 pair $4 $1 exited non-zero (see $ab/runs/$3.$4.$1.err)" >&2
}
for w in $workloads; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
      run ref "$ab/ref" "$w" "$i"
      run change "$PWD" "$w" "$i"
    else
      run change "$PWD" "$w" "$i"
      run ref "$ab/ref" "$w" "$i"
    fi
  done
done

python3 - "$ab/runs" "$pairs" $workloads <<'PY'
import json, math, re, statistics, sys
runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
failed = 0

def quartiles(v):
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
    return q[0], q[1], q[2]

def sign_test(wins, losses):
    n, k = wins + losses, max(wins, losses)
    return 1.0 if n == 0 else min(1.0, 2 * sum(math.comb(n, j) for j in range(k, n + 1)) / 2 ** n)

def row(name, unit, lower_better, is_time, ref, chg, drift):
    wins = sum((c < r) if lower_better else (c > r) for r, c in zip(ref, chg))
    losses = sum((c > r) if lower_better else (c < r) for r, c in zip(ref, chg))
    (r1, rm, r3), (c1, cm, c3) = quartiles(ref), quartiles(chg)
    n = wins + losses
    apart = abs(cm - rm) > r3 - r1
    if n == 0:
        verdict = "no difference (identical in every pair)"
    elif pairs < 10:
        verdict = "no conclusion (fewer than 10 pairs)"
    elif is_time and drift > 0.05:
        verdict = f"no conclusion (reference kernel p50 medians differ by {100 * drift:.1f} %)"
    elif wins >= 0.9 * n and apart:
        verdict = "change better"
    elif losses >= 0.9 * n and apart:
        verdict = "change worse"
    else:
        verdict = "no difference"
    print(f"  {name:24s} ref {rm:11.6g} [{r1:.6g}, {r3:.6g}]  change {cm:11.6g} [{c1:.6g}, {c3:.6g}] {unit:5s}"
          f"  ratio {cm / rm if rm else float('nan'):6.3f}  won {wins} lost {losses} tied {len(ref) - n}"
          f"  sign p={sign_test(wins, losses):.3f}  {verdict}")

for w in workloads:
    print(f"== {w}")
    out, err = {}, {}
    for side in ("ref", "change"):
        out[side] = [json.load(open(f"{runs}/{w}.{i}.{side}.json")) for i in range(1, pairs + 1)]
        err[side] = [open(f"{runs}/{w}.{i}.{side}.err").read() for i in range(1, pairs + 1)]
    bad = [f"pair {i} {s}" for s in out for i, r in enumerate(out[s], 1) if not r["correct"] or r["failed"]]
    if bad:
        print("  failed their output checks: " + ", ".join(bad))
        failed += len(bad)
        continue
    print("  checked ops per run: ref " + "/".join(sorted({str(r["attempted"]) for r in out["ref"]}))
          + ", change " + "/".join(sorted({str(r["attempted"]) for r in out["change"]})) + "; failed 0")
    kernel = {s: [float(re.search(r"reference kernel: min [\d.]+ ms, p50 ([\d.]+) ms", e).group(1)) for e in err[s]] for s in err}
    drift = abs(statistics.median(kernel["change"]) / statistics.median(kernel["ref"]) - 1)
    for m in bench["end_to_end"]:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in out[s]] for s in out}
        row(m["name"], m["unit"], m["better"] == "lower", m["unit"] in ("s", "us"), vals["ref"], vals["change"], drift)
    phases = {s: [dict((g, float(v)) for g, v in re.findall(r"^  (\w+) +steady +([\d.]+) s", e, re.M)) for e in err[s]] for s in err}
    for g in sorted(phases["ref"][0]):
        row(g + " (steady)", "s", True, True, [p[g] for p in phases["ref"]], [p[g] for p in phases["change"]], drift)
    row("reference kernel p50", "ms", True, False, kernel["ref"], kernel["change"], drift)
    heap = {s: [re.search(r"heap_sys (\d+) MB, gc (\d+)", e).groups() for e in err[s]] for s in err}
    for i, (name, unit) in enumerate((("heap_sys", "MB"), ("gc", "count"))):
        (r1, rm, r3), (c1, cm, c3) = (quartiles([float(h[i]) for h in heap[s]]) for s in ("ref", "change"))
        print(f"  {name:24s} ref {rm:11.6g} [{r1:.6g}, {r3:.6g}]  change {cm:11.6g} [{c1:.6g}, {c3:.6g}] {unit:5s}")
sys.exit(1 if failed else 0)
PY
