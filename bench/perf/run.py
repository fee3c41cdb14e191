#!/usr/bin/env python3
"""Build digruber-perf from this checkout's sources, then run it.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to build/perf (CMake,
RelWithDebInfo) and is incremental, so only the first run of a checkout
compiles; its output goes to standard error. Every argument is handed to
digruber-perf unchanged, and its exit code is returned. digruber-perf prints
one JSON result as the last line of standard output.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "perf")
BUILD = os.path.join(ROOT, "build", "perf")
BINARY = os.path.join(BUILD, "digruber-perf")


def build():
    """Configure once, then bring digruber-perf up to date; True on success."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, **quiet).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "digruber-perf", "-j", jobs]
    return subprocess.run(compile_, **quiet).returncode == 0


def main():
    if not build():
        print("digruber-perf: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
