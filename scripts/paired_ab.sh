#!/usr/bin/env bash
# Interleaved paired A/B runs of one optobench workload on two checkouts:
#
#   scripts/paired_ab.sh --base DIR --change DIR --workload W
#                        [--pairs N] [--seed S] [--out DIR]
#
#   --base DIR     checkout of the parent commit (side A)
#   --change DIR   checkout of the change (side B)
#   --workload W   mesh_trials | stream_ring | dc_rwa
#   --pairs N      pairs to run (default 10)
#   --seed S       workload seed, the same on both sides (default 1)
#   --out DIR      where each run's result line is kept
#                  (default: paired-ab/<workload>)
#
# Each checkout runs its own optobench/run.py with --trace 0 for the
# run_seconds of the change's BENCHMARK.json (each builds its driver once,
# untimed, before the first pair). Pairs alternate which side runs first.
# The summary gives, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the change's win
# fraction (ties count for neither side) and a verdict: "gain" when the
# change wins at least 9/10 of the pairs and the medians differ by more
# than the base's interquartile range; "regression" when the change's
# median is worse than the base's by more than the metric's bound.
set -euo pipefail

BASE=""
CHANGE=""
WORKLOAD=""
PAIRS=10
SEED=1
OUT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base)     BASE="$2"; shift 2 ;;
    --change)   CHANGE="$2"; shift 2 ;;
    --workload) WORKLOAD="$2"; shift 2 ;;
    --pairs)    PAIRS="$2"; shift 2 ;;
    --seed)     SEED="$2"; shift 2 ;;
    --out)      OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
if [ -z "$BASE" ] || [ -z "$CHANGE" ] || [ -z "$WORKLOAD" ]; then
  echo "usage: $0 --base DIR --change DIR --workload W [--pairs N]" \
       "[--seed S] [--out DIR]" >&2
  exit 2
fi
BASE=$(cd "$BASE" && pwd)
CHANGE=$(cd "$CHANGE" && pwd)
SPEC="$CHANGE/BENCHMARK.json"
for side in "$BASE" "$CHANGE"; do
  if [ ! -f "$side/optobench/run.py" ]; then
    echo "$side has no optobench/run.py" >&2
    exit 1
  fi
done
SECONDS_PER_RUN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$SPEC")
OUT=${OUT:-paired-ab/$WORKLOAD}
mkdir -p "$OUT"

# run_side <label> <checkout> <pair>: one end-to-end run; keeps the result
# line as $OUT/<label>-<pair>.json.
run_side() {
  echo "pair $3: $1" >&2
  (cd "$2" && python3 optobench/run.py --workload "$WORKLOAD" --seed "$SEED" \
     --seconds "$SECONDS_PER_RUN" --trace 0) | tail -n 1 > "$OUT/$1-$3.json"
}

for side in "$BASE" "$CHANGE"; do
  (cd "$side" && python3 optobench/run.py --workload "$WORKLOAD" \
     --seed "$SEED" --seconds 1 --calls 1 --trace 0 > /dev/null)
done
for ((pair = 0; pair < PAIRS; ++pair)); do
  if ((pair % 2 == 0)); then
    run_side base "$BASE" "$pair"
    run_side change "$CHANGE" "$pair"
  else
    run_side change "$CHANGE" "$pair"
    run_side base "$BASE" "$pair"
  fi
done

python3 - "$SPEC" "$OUT" "$PAIRS" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

spec_path, out, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open(spec_path))


def load(side):
    return [json.load(open(f"{out}/{side}-{i}.json")) for i in range(pairs)]


base, change = load("base"), load("change")
for side, runs in (("base", base), ("change", change)):
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{side}: {pairs} runs, {failed}/{attempted} units failed, "
          f"{len(bad)} runs not correct")


def cell(median, q):
    return f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


print(f"\n{workload}, {pairs} interleaved pairs")
print(f"{'metric':<18} {'base median [q1, q3]':>34} "
      f"{'change median [q1, q3]':>34} {'change/base':>11} {'wins':>7}  verdict")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in change]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    worse = (mb - ma) if lower else (ma - mb)
    verdict = "-"
    if ma and worse > metric["bound"] * abs(ma):
        verdict = "regression"
    elif wins * 10 >= 9 * pairs and -worse > qa[1] - qa[0]:
        verdict = "gain"
    ratio = mb / ma if ma else float("nan")
    print(f"{name:<18} {cell(ma, qa):>34} {cell(mb, qb):>34} {ratio:>11.3f} "
          f"{wins:>3}/{pairs:<3}  {verdict}")
EOF
