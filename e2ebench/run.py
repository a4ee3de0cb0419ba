#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload <fine_mt|coarse_keyed|sim_shards> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`) under the current directory; build output goes to stderr so
the last stdout line stays the benchmark's JSON result. Exits non-zero, with
no result line, when the sources are missing or the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fine_mt", "coarse_keyed", "sim_shards")
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "e2ebench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "e2e_bench_traced" if args.trace else "e2e_bench")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("e2ebench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args.trace:
        path = os.path.join(trace_dir, "trace_%s_seed%d.json" % (args.workload, args.seed))
        with open(path) as f:
            json.load(f)  # the exported trace must parse
    # Human-readable table first; the JSON verdict stays the last line.
    sys.stdout.write(proc.stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
