#!/usr/bin/env python3
"""Builds the cnet benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rt-closed --seed 1 --seconds 10 --trace 0

Workloads: rt-closed, svc-window, deploy-pipeline, psim-figs (perfbench/README.md
says what each measures and why). The build lands in .bench_build/perfbench
under the checkout root and later runs reuse it. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result. A traced run
(--trace 1) also writes its spans as chrome://tracing JSON into that build
directory.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("rt-closed", "svc-window", "deploy-pipeline", "psim-figs")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "cnet_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description="Build and run the cnet benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not in this checkout", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "cnet_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
