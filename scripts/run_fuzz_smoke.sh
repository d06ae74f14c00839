#!/usr/bin/env bash
# Differential-fuzz smoke: replays the committed pass anchors
# (examples/repros/*.opto, then their canonical dumps in examples/golden/
# byte-strictly), then runs a fixed-seed generated sweep. This is the
# tier-1-sized version of the nightly long fuzz; any divergence is shrunk
# to a minimal pass-scenario reproducer in OUT and the script exits
# non-zero.
#
#   scripts/run_fuzz_smoke.sh [--seed S] [--cases N] [--out DIR]
#                             [--build-dir DIR]
#
#   --seed S       generator stream seed (default 1 — fixed so PR CI is
#                  reproducible; the nightly job randomizes it)
#   --cases N      generated cases (default 500)
#   --out DIR      where minimized repro files land (default fuzz-out)
#   --build-dir D  where opto_fuzz lives (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

SEED=1
CASES=500
OUT=fuzz-out
BUILD=build
while [ $# -gt 0 ]; do
  case "$1" in
    --seed)      SEED="$2"; shift 2 ;;
    --cases)     CASES="$2"; shift 2 ;;
    --out)       OUT="$2"; shift 2 ;;
    --build-dir) BUILD="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

FUZZ="$BUILD/tools/opto_fuzz"
if [ ! -x "$FUZZ" ]; then
  echo "opto_fuzz not built at $FUZZ (cmake --build $BUILD --target opto_fuzz)" >&2
  exit 2
fi

echo "== pass anchors: examples/repros/ =="
"$FUZZ" --replay-dir examples/repros
echo "== their canonical dumps (strict bytes) =="
for f in examples/repros/*.opto; do
  "$FUZZ" --replay "examples/golden/$(basename "$f" .opto).json" \
    --strict-bytes --quiet
done

echo "== generated sweep: seed $SEED, $CASES cases =="
"$FUZZ" --seed "$SEED" --cases "$CASES" --out "$OUT"
