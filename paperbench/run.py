#!/usr/bin/env python3
"""Builds the paper-scenario benchmark from the surrounding source tree and
runs one workload.

    python3 paperbench/run.py --workload read_only_cpu --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds paperbench/ (a CMake package that pulls
in the repository's libraries) in Release mode under .bench_build/paperbench;
later calls rebuild incrementally. Build output goes to stderr. The last line
of stdout is the benchmark's JSON result (see README.md). The exit code is
the benchmark's, or 1 when the build fails or the run overruns.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
RUN_TIMEOUT_S = 170


def source_stamp():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted here describes these sources.
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "paperbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    return step(["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "paperbench", "paperbench_traced"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not build():
        print("paperbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "paperbench_traced" if args.trace == "1" else "paperbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_stamp()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("paperbench: run overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
