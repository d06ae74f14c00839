#!/usr/bin/env python3
"""Build the optobench driver from this checkout's sources and run one
workload of the optoroute benchmark.

    python3 optobench/run.py --workload mesh_trials --seed 1 --seconds 12 --trace 0

The build goes to .bench_build/optobench (configured once, brought up to
date on every run). The pool width is OPTO_THREADS = nproc unless
--threads says otherwise; --trace 1 sets OPTO_OBS=1 and writes the spans to
.bench_build/optobench/trace/<workload>-seed<n>.json. --calls N runs
exactly N timed calls instead of --seconds (the benchmark's own tests use
it). The last line of standard output is the driver's JSON result; the
exit code is 0 only when a result was printed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "optobench"
BINARY = BUILD / "optobench"
WORKLOADS = ("mesh_trials", "stream_ring", "dc_rwa")
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then let cmake bring the driver up to date. Build
    output goes to stderr so that stdout ends with the result line."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("optobench: the optoroute sources (src/) are missing")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "optobench",
                  "-j", str(min(nproc(), 4))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("optobench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description="Run one optobench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=nproc())
    parser.add_argument("--calls", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.threads < 1 or args.calls < 0:
        parser.error("--seed, --threads and --calls must not be negative")

    build()
    env = dict(os.environ, OPTO_THREADS=str(args.threads),
               OPTO_OBS=str(args.trace))
    trace_out = BUILD / "trace" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", str(HERE / "digests.txt"),
           "--trace-out", str(trace_out)]
    if args.calls:
        cmd += ["--calls", str(args.calls)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("optobench: the driver did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"optobench: the driver exited with {proc.returncode}")
    json.loads(lines[-1])
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
