#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 optobench/selftest.py            # run every check
    python3 optobench/selftest.py --record   # rewrite digests.txt

Per workload, on a fixed number of calls (whole input cycles, in both
trace blocks):
  * the output digest is the same at OPTO_THREADS=1 and at nproc;
  * it is the same with tracing on and off;
  * a second seed changes both the inputs and the digest;
  * the default seed matches the recorded digests with zero failed units;
  * the metric names printed with --trace 0 and --trace 1 are exactly the
    end_to_end and per_layer names of BENCHMARK.json.
--record runs each workload on the default seed for the first DIGEST_CALLS
calls and writes their per-call digests to digests.txt; do that only when
a change is meant to alter model outputs.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mesh_trials", "stream_ring", "dc_rwa")
DEFAULT_SEED = 1
OTHER_SEED = 2
CALLS = 20           # two trace blocks; a multiple of every workload's cycle
DIGEST_CALLS = 100   # calls the driver prints digests for


def run(workload, seed, trace=0, threads=None, calls=CALLS):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--calls", str(calls)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=600, cwd=ROOT)
    lines = proc.stdout.splitlines()
    info = {}
    for line in lines:
        if line.startswith("optobench: workload="):
            info.update(field.split("=", 1) for field in line.split()[1:])
        elif line.startswith("optobench-digests:"):
            info["digests"] = line.split()[1:]
    return info, json.loads(lines[-1])


def record():
    rows = []
    for workload in WORKLOADS:
        info, result = run(workload, DEFAULT_SEED, calls=DIGEST_CALLS)
        if result["failed"]:
            sys.exit(f"{workload}: {result['failed']} failed units; not recording")
        rows.append(" ".join([workload, str(DEFAULT_SEED)] + info["digests"]))
    (HERE / "digests.txt").write_text("\n".join(rows) + "\n")
    print(f"recorded {DIGEST_CALLS} call digests per workload in digests.txt")


def main():
    parser = argparse.ArgumentParser(description="Test the benchmark itself.")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.txt for the default seed")
    if parser.parse_args().record:
        record()
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        one, one_result = run(workload, DEFAULT_SEED, threads=1)
        wide, wide_result = run(workload, DEFAULT_SEED)
        traced, traced_result = run(workload, DEFAULT_SEED, trace=1)
        other, other_result = run(workload, OTHER_SEED)
        check(one["digest"] == wide["digest"],
              f"{workload}: digest at 1 thread == at {wide['threads']} threads")
        check(traced["digest"] == wide["digest"],
              f"{workload}: digest with tracing == without")
        check(other["inputs"] != wide["inputs"],
              f"{workload}: seed {OTHER_SEED} changes the inputs")
        check(other["digest"] != wide["digest"],
              f"{workload}: seed {OTHER_SEED} changes the digest")
        check(wide["checked"] == str(CALLS) and wide["mismatches"] == "0",
              f"{workload}: default seed matches the {CALLS} recorded digests")
        for name, result in (("1 thread", one_result), ("nproc", wide_result),
                             ("traced", traced_result),
                             (f"seed {OTHER_SEED}", other_result)):
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: zero failed units ({name})")
        check(set(wide_result["metrics"]) == end_to_end,
              f"{workload}: --trace 0 prints exactly the end_to_end metrics")
        check(set(traced_result["metrics"]) == per_layer,
              f"{workload}: --trace 1 prints exactly the per_layer metrics")

    if failures:
        sys.exit(f"{len(failures)} check(s) failed")
    print("all checks passed")


if __name__ == "__main__":
    main()
