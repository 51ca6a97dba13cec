#!/usr/bin/env python3
"""Builds and runs the catalog benchmark.

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark (perfbench/src/main.cpp) is compiled from the catalog's sources
into the build directory ($CARGO_TARGET_DIR, else .bench_build at the
checkout root); the first run builds (then idles a minute, see
SETTLE_AFTER_BUILD_S), later runs only re-check. Build output
goes to stderr; stdout carries the benchmark's report, whose last line is the
result object. Temporary data and span files stay under the build directory.
"""
import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["read_cold", "read_hot"]
# Idle time after a build that compiled something. A build keeps every core
# busy; on the 4-vCPU VM the benchmark was tuned on, read latencies at low
# load then stay ~1.7x higher for 30-40 s (set-up speed does not change; a
# longer warm-up inside the run does not help, 60 s of idle does), so the
# run that builds would otherwise measure the host's recovery.
SETTLE_AFTER_BUILD_S = 60


def run(cmd, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def mtime(path):
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def build(build_dir, target, settle):
    binary = os.path.join(build_dir, target)
    before = mtime(binary)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    ok = run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
             stdout=sys.stderr) == 0
    # Write back the build's output now rather than during the measurement.
    os.sync()
    if ok and settle and mtime(binary) != before:
        print("perfbench: built; idling %d s before measuring" % SETTLE_AFTER_BUILD_S,
              file=sys.stderr)
        time.sleep(SETTLE_AFTER_BUILD_S)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    target = "perfbench_test" if args.self_test else "catalog_bench"
    if not build(build_dir, target, settle=not args.self_test):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return run([os.path.join(build_dir, target)])
    return run([os.path.join(build_dir, target), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", os.path.join(out_dir, "perfbench-run")])


if __name__ == "__main__":
    sys.exit(main())
