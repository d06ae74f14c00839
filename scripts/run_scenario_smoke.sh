#!/usr/bin/env bash
# Scenario smoke: the CI gate for the .opto DSL front-end.
#
#  1. Parses + canonically dumps every committed examples/**/*.opto and
#     byte-compares the dump against examples/golden/<stem>.json — any
#     grammar, validator, or canonical-writer drift fails here with a
#     named diff. Then dumps every golden itself, which must reproduce
#     its own bytes: the JSON loader's gate, as the .opto dump is the
#     grammar's.
#  2. Runs the four equivalence scenarios (E1 leveled-upper, E15 fault
#     plan, E17 streaming engine, E19 strategy zoo) at REPRO_SCALE=0.1
#     through BOTH the
#     DSL front-end (opto_run --run) and the hand-coded C++ path
#     (opto_run --builtin), byte-compares the model-result JSON, and
#     diffs the captured BenchRecords with bench_compare --warn-only
#     (counters must agree; wall-clock gauges may differ).
#
#   scripts/run_scenario_smoke.sh [--build-dir DIR] [--out DIR]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build
OUT=scenario-smoke-out
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD="$2"; shift 2 ;;
    --out)       OUT="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

RUN="$BUILD/tools/opto_run"
COMPARE="$BUILD/tools/bench_compare"
for tool in "$RUN" "$COMPARE"; do
  if [ ! -x "$tool" ]; then
    echo "$tool not built (cmake --build $BUILD --target opto_run bench_compare)" >&2
    exit 2
  fi
done
mkdir -p "$OUT"

echo "== canonical dumps vs committed goldens =="
count=0
for f in examples/*.opto examples/repros/*.opto; do
  stem="$(basename "$f" .opto)"
  golden="examples/golden/$stem.json"
  if [ ! -f "$golden" ]; then
    echo "$f has no golden dump; regenerate with:" >&2
    echo "  $RUN --dump $f --out $golden" >&2
    exit 1
  fi
  "$RUN" --dump "$f" --out "$OUT/dump_$stem.json"
  cmp "$golden" "$OUT/dump_$stem.json"
  count=$((count + 1))
done
echo "$count scenarios match their goldens"
count=0
for golden in examples/golden/*.json; do
  stem="$(basename "$golden" .json)"
  "$RUN" --dump "$golden" --out "$OUT/redump_$stem.json"
  cmp "$golden" "$OUT/redump_$stem.json"
  count=$((count + 1))
done
echo "$count goldens reload to their own bytes"

echo "== DSL vs hand-coded equivalence (REPRO_SCALE=0.1) =="
export REPRO_SCALE=0.1
for stem in e1_leveled_upper e15_fault_resilience e17_streaming_engine \
            e19_strategy_zoo; do
  name="${stem//_/-}"
  mkdir -p "$OUT/$name/dsl" "$OUT/$name/native"
  OPTO_RESULTS_DIR="$OUT/$name/dsl" \
    "$RUN" --run "examples/$stem.opto" --out "$OUT/$name/dsl.json"
  OPTO_RESULTS_DIR="$OUT/$name/native" \
    "$RUN" --builtin "$name" --out "$OUT/$name/native.json"
  cmp "$OUT/$name/dsl.json" "$OUT/$name/native.json"
  echo "MATCH $name (model-result JSON byte-identical)"
  "$COMPARE" "$OUT/$name/native/benchrecord_$name.json" \
    "$OUT/$name/dsl/benchrecord_$name.json" --warn-only
done
echo "scenario smoke: all gates green"
