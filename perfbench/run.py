#!/usr/bin/env python3
"""Builds the repo benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark program are compiled (Release, CMake) into
.bench_build/perfbench at the root of the checkout; later runs rebuild only
what changed. Build output goes to standard error, so the last line of
standard output is the program's JSON result. Traced runs also write their
spans to .bench_build/perfbench/spans/. The exit code is the program's: 0
when every output check passed, nonzero otherwise.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no library sources next to the benchmark "
              "(expected CMakeLists.txt and src/ at the checkout root)",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 3
    sys.stdout.flush()
    spans = ["--spans-dir", os.path.join(BUILD, "spans")]
    return subprocess.run([BINARY] + sys.argv[1:] + spans, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
