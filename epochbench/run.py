#!/usr/bin/env python3
"""Builds the epoch benchmark from source and runs one workload.

Usage (from the repository root):

    python3 epochbench/run.py --workload <trickle_durable|bulk_paper|serve_hot> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark and the library are compiled with CMake into
.bench_build/epochbench (an incremental no-op after the first run). Build
output goes to standard error; standard output is the benchmark's own, whose
last line is the JSON result. The exit code is the benchmark's, or 2 when the
library sources are missing or a GPIVOT_* variable is set.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "epochbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "epochbench")
BINARY = os.path.join(BUILD_DIR, "epochbench")


def fail(message):
    print("epochbench: " + message, file=sys.stderr)
    return 2


def run(cmd, stdout=sys.stderr):
    """Runs `cmd` from the root; kills and waits for it if interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("library sources (src/CMakeLists.txt) not found next to epochbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return fail("cmake configure failed")
    code = run(["cmake", "--build", BUILD_DIR, "--target", "epochbench",
                "-j", "4"])
    if code != 0:
        return fail("build failed")
    return 0


def main():
    for name in os.environ:
        if name.startswith("GPIVOT_"):
            return fail("refusing to run with %s set: every library setting "
                        "stays at its default" % name)
    code = build()
    if code != 0:
        return code
    return run([BINARY] + sys.argv[1:], stdout=None)


if __name__ == "__main__":
    sys.exit(main())
