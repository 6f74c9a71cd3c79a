#!/usr/bin/env python3
"""End-to-end benchmark of the task graph scheduling library.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Builds the library, the tgs_serve daemon and the tgs_e2e program from the
checkout's sources with CMake (Release, into .bench_build/e2ebench), then
runs one workload. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Build output and the human-readable report go to
stderr. Exits non-zero, without a result, when the build or the run fails.

Extra flags: --small (reduced-size mode, seconds per workload),
--digest PATH (check against another makespan digest; the benchmark's
tests use it to corrupt one) and --bounded-dsc (serve_mix also asks for
DSC on 4 processors, which fails while DSC ignores the bound).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_sweep", "giant_list", "serve_mix")
WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(WORK_DIR, "e2ebench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--digest")
    ap.add_argument("--bounded-dsc", action="store_true")
    args = ap.parse_args()

    build()
    digest = args.digest or os.path.join(HERE, "digests", args.workload + ".txt")
    cmd = [
        os.path.join(BUILD_DIR, "tgs_e2e"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--digest=" + digest,
        "--serve-bin=" + os.path.join(BUILD_DIR, "tgs_serve"),
        "--work-dir=" + WORK_DIR,
    ]
    if args.small:
        cmd.append("--small")
    if args.bounded_dsc:
        cmd.append("--bounded-dsc")
    # Relative paths throughout: the daemon's socket lives in a per-run
    # directory under .bench_build, and AF_UNIX paths are short.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
