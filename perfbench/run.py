#!/usr/bin/env python3
"""Builds the EXION benchmark from source and runs one workload, or all.

    python3 perfbench/run.py --workload mld-exion --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the root of a source tree. The build goes to .bench_build/ and
the Chrome trace of a --trace 1 run to .bench_build/traces/. Build output
goes to standard error; standard output carries the benchmark's metric
table and, as its last line, the JSON result, whose metric names are
checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "exion_perfbench")
RUN_TIMEOUT_S = 170
# Workloads the binary runs besides those BENCHMARK.json gates: mld-dense,
# the dense comparator of mld-exion (see README.md for why it is not gated).
ON_DEMAND_WORKLOADS = ["mld-dense"]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "exion")):
        fail("no src/exion next to perfbench/: run from an EXION source tree")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "exion_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_workload(workload, args, declared):
    """Runs one workload; prints its table and JSON result; True on success."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return False
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        print(f"error: {workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return False
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        print("error: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return False
    print(lines[-1], flush=True)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + ON_DEMAND_WORKLOADS
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads} or all")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    ok = True
    for workload in workloads if args.workload == "all" else [args.workload]:
        ok = run_workload(workload, args, declared) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
