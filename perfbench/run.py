#!/usr/bin/env python3
"""Build and run the enclave-service benchmark.

    python3 perfbench/run.py --workload run_small|run_compute|crypto_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and the libraries it links from src/) into .bench_build/; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "enclave_bench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build enclave_bench; True on success."""
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "enclave_bench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
