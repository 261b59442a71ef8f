#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given arguments.

    python3 bench_e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench_e2e/run.py --compare A.jsonl B.jsonl
    python3 bench_e2e/run.py --self-test

The first call configures and builds a Release tree in .bench_build/ at the
repository root; later calls only bring it up to date. Build output goes to
stderr, so the benchmark's JSON result stays the last line of stdout. The
benchmark itself runs with the repository root as its working directory.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("bench_e2e: the library sources are missing; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"bench_e2e: build failed: {e}")
    binary = os.path.join(BUILD, "bench_e2e")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
