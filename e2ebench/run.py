#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> \
        [--seconds <n>] [--trace <0|1>]

Run from the repository root. Builds the benchmark package
(e2ebench/CMakeLists.txt, which compiles the OverGen libraries from
src/) into .bench_build/e2ebench, runs the helper self-test, then
replaces itself with the benchmark binary, which checks the arguments.
The last line of standard output is the result JSON; build output goes
to standard error. Exits nonzero without a result when there are no
sources to build, the build or the self-test fails, or the arguments
are bad.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
CACHE = os.path.join(BUILD, "CMakeCache.txt")


def configured_here():
    """Whether BUILD holds a configuration of this source tree (a build
    directory copied from another checkout points at that checkout)."""
    try:
        with open(CACHE) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def run(step):
    return subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode == 0


def build_once():
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        if not run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run(["cmake", "--build", BUILD, "-j",
                str(min(4, os.cpu_count() or 1))])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no OverGen sources under %s/src; run from a "
                 "repository checkout" % ROOT)
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    if not build_once():
        # A half-written build directory (an interrupted earlier build)
        # is rebuilt from scratch once.
        print("run.py: build failed; rebuilding from scratch",
              file=sys.stderr)
        shutil.rmtree(BUILD, ignore_errors=True)
        if not build_once():
            sys.exit("run.py: build of %s failed" % HERE)
    if not run([os.path.join(BUILD, "e2ebench_selftest")]):
        sys.exit("run.py: e2ebench_selftest failed")


def main():
    build()
    binary = os.path.join(BUILD, "e2ebench")
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
