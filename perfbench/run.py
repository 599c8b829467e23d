#!/usr/bin/env python3
"""Builds and runs the TASFAR end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload adapt-pdr --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) as a Release build under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs reuse the build. Each run first executes the
benchmark's self-test, then the workload, and forwards the workload's
output: its last line is the result JSON. The exit code is non-zero when
the build, the self-test or any correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("adapt-pdr", "serve-noisy")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tasfar_perfbench",
         "perfbench_selftest", "-j", str(min(nproc(), 4))],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"{needed} not found: run from the root of a TASFAR source tree")
            return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        log("self-test failed")
        return 1

    env = dict(os.environ)
    # Half the CPUs for the library's pool: the rest run the benchmark's own
    # threads (load generators, server network and job threads), so that
    # runs do not depend on how an oversubscribed scheduler interleaves them.
    env["TASFAR_NUM_THREADS"] = str(max(1, nproc() // 2))
    env.pop("TASFAR_TRACE", None)
    env.pop("TASFAR_METRICS", None)
    if args.trace:
        # Spans and registry counters on for this run only; the spans are
        # written at exit.
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        env["TASFAR_TRACE"] = os.path.join(trace_dir, f"{args.workload}.json")
        env["TASFAR_METRICS"] = "1"
    cmd = [os.path.join(build_dir, "tasfar_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        log(f"workload exited with code {run.returncode}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
