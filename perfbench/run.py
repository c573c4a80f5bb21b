#!/usr/bin/env python3
"""Build the MCC benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload wh2d_k32_t1 --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release binary under
`.bench_build/perfbench` (only the program libraries the benchmark links);
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is always the benchmark's JSON result. Every argument
after the script name is passed to the benchmark binary unchanged; run
`python3 perfbench/run.py --help` for the list.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mcc_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind: the next call retries.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", BUILD, "--target", "mcc_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
