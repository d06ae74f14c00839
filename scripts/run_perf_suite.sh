#!/usr/bin/env bash
# Runs the representative perf benches with the observability layer on
# and rolls their BenchRecords into one machine-readable suite file:
#
#   scripts/run_perf_suite.sh [--scale S] [--label L] [--out DIR]
#                             [--build-dir DIR]
#
#   --scale S      REPRO_SCALE for the experiment benches (default 1)
#   --label L      suite label; output is DIR/BENCH_<L>.json
#                  (default: perf)
#   --out DIR      output directory (default: perf-results)
#   --build-dir D  where the binaries live (default: build)
#
# Per-bench records land in DIR/records/benchrecord_<bench>.json; the
# roll-up DIR/BENCH_<label>.json is what CI uploads and what
# tools/bench_compare diffs against bench/baselines/.
set -euo pipefail

cd "$(dirname "$0")/.."

SCALE=1
LABEL=perf
OUT=perf-results
BUILD=build
while [ $# -gt 0 ]; do
  case "$1" in
    --scale)     SCALE="$2"; shift 2 ;;
    --label)     LABEL="$2"; shift 2 ;;
    --out)       OUT="$2"; shift 2 ;;
    --build-dir) BUILD="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [ ! -x "$BUILD/tools/bench_compare" ]; then
  echo "$BUILD/tools/bench_compare not found — build the project first" >&2
  exit 1
fi

RECORDS="$OUT/records"
mkdir -p "$RECORDS"

# Stamp records with the commit they measured. Harmless fallback when
# run outside a checkout.
OPTO_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export OPTO_GIT_SHA
export OPTO_RESULTS_DIR="$RECORDS"
export REPRO_SCALE="$SCALE"

# Representative slice of the suite: a mesh workload (e7), a butterfly
# workload (e8), the fault-injection path (e15), the streaming traffic
# engine (e17), the RWA strategy zoo head-to-head (e19), the schedule
# ablation (a1), and the engine micro-benchmarks. Broad enough to notice
# a regression in any subsystem, small enough for a CI smoke job.
BENCHES=(
  bench_e7_mesh
  bench_e8_butterfly_qfn
  bench_e15_fault_resilience
  bench_e17_streaming_engine
  bench_e19_strategy_zoo
  bench_a1_delta_schedule
)

shopt -s nullglob
count_records() {
  local files=("$RECORDS"/benchrecord_*.json)
  echo "${#files[@]}"
}

for bench in "${BENCHES[@]}"; do
  echo "== $bench (REPRO_SCALE=$SCALE) =="
  before="$(count_records)"
  "$BUILD/bench/$bench" > "$RECORDS/$bench.txt"
  after="$(count_records)"
  # A bench that exits 0 without writing its BenchRecord would roll up
  # as a silent success; every bench must leave exactly its record.
  if [ "$after" -le "$before" ]; then
    echo "$bench produced no benchrecord_*.json (had $before, still" \
         "$after) — the bench ran but recorded nothing" >&2
    exit 1
  fi
done

echo "== bench_perf_simulator =="
before="$(count_records)"
REPRO_SCALE= "$BUILD/bench/bench_perf_simulator" --benchmark_min_time=0.1 \
  > "$RECORDS/bench_perf_simulator.txt"
after="$(count_records)"
if [ "$after" -le "$before" ]; then
  echo "bench_perf_simulator produced no benchrecord_*.json — the bench" \
       "ran but recorded nothing" >&2
  exit 1
fi

record_files=("$RECORDS"/benchrecord_*.json)
if [ "${#record_files[@]}" -eq 0 ]; then
  echo "no benchrecord_*.json produced — was the build compiled with" \
       "OPTO_OBS_ENABLED=0, or OPTO_OBS=0 set?" >&2
  exit 1
fi

"$BUILD/tools/bench_compare" --rollup "$OUT/BENCH_${LABEL}.json" \
  --label "$LABEL" --scale "$SCALE" "${record_files[@]}"

# Surface which RNG backend produced the draws, as recorded by the
# benches themselves (env.rng) — this is what makes two BENCH files
# comparable.
active_rng="$(grep -o '"rng": *"[a-z0-9-]*"' "${record_files[0]}" \
  | head -n1 | sed 's/.*"rng": *"\([a-z0-9-]*\)".*/\1/')"
echo "rng: ${active_rng:-unknown}"
echo "suite roll-up: $OUT/BENCH_${LABEL}.json"
