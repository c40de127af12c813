#!/usr/bin/env python3
"""Build cmcp_bench from source and run it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and cmcp_bench under .bench_build/suite at the root of
the checkout (Release, SimCheck off), then runs `cmcp_bench run` with the
given arguments. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "suite")


def build():
    # Written only by a configure step that succeeded; `cmake --build`
    # re-configures by itself when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeFiles", "Makefile.cmake")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "cmcp_bench")
    return subprocess.run([binary, "run", *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
