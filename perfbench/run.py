#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the durable eos::Database.

Run from the repository root:

    python3 perfbench/run.py --workload edit_mix --seed 1 --seconds 5 --trace 0

The engine is compiled from ../src by perfbench/CMakeLists.txt into
.bench_build/perfbench (Release). Volume and WAL files are memfd files that
end with the process; traced runs write trace.json (Chrome trace) and
self_times.json to --out (default .bench_build/out/<workload>-<seed>). The
last line of standard output is the result JSON. `--selftest` builds and
runs the benchmark's own tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("edit_mix", "object_churn")
# The benchmark itself must finish well inside 180 s.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "eos", "database.h")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for trace files")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    out = args.out or os.path.join(ROOT, ".bench_build", "out",
                                   "%s-%d" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
