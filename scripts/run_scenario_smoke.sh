#!/usr/bin/env bash
# Scenario smoke: the CI gate for the .opto DSL front-end.
#
#  1. Parses + canonically dumps every committed examples/**/*.opto and
#     byte-compares the dump against examples/golden/<stem>.json — any
#     grammar, validator, or canonical-writer drift fails here with a
#     named diff. Then dumps every golden itself, which must reproduce
#     its own bytes: the JSON loader's gate, as the .opto dump is the
#     grammar's.
#  2. Runs the four anchor scenarios (E1 leveled-upper, E15 fault plan,
#     E17 streaming engine, E19 strategy zoo) through opto_run --run, and
#     the four benches that sweep around them (bench_<stem>, which load
#     examples/<stem>.opto), at REPRO_SCALE=0.1. Each must exit 0, so a
#     broken anchor fails here.
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

ANCHORS="e1_leveled_upper e15_fault_resilience e17_streaming_engine
         e19_strategy_zoo"
RUN="$BUILD/tools/opto_run"
for tool in "$RUN" $(printf "$BUILD/bench/bench_%s " $ANCHORS); do
  if [ ! -x "$tool" ]; then
    echo "$tool not built (cmake --build $BUILD --target opto_run$(printf ' bench_%s' $ANCHORS))" >&2
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

echo "== anchors: opto_run --run and their benches (REPRO_SCALE=0.1) =="
export REPRO_SCALE=0.1
for stem in $ANCHORS; do
  "$RUN" --run "examples/$stem.opto" --out "$OUT/run_$stem.json"
  "$BUILD/bench/bench_$stem" > "$OUT/bench_$stem.txt"
  echo "ok $stem (opto_run --run and bench_$stem)"
done
echo "scenario smoke: all gates green"
