#!/usr/bin/env python3
"""Builds and runs the cimloop end-to-end / per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the cimloop libraries from src/ plus the benchmark) as a
Release build under .bench_build/perfbench; later calls only rebuild what
changed. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures once, then builds; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Written by the generate step, so only a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "cmake_install.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not build():
        return 1
    if a.self_test:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
               "--seed", a.seed, "--seconds", a.seconds, "--trace", a.trace]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
