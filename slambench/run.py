#!/usr/bin/env python3
"""Build and run the end-to-end SLAM benchmark.

Usage (from the repository root):

    python3 slambench/run.py --workload single --seed 1 --seconds 10 --trace 0

Configures and builds slambench/ (which builds the library from the
repository's own CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset, then runs the driver with the same
arguments. The driver's last stdout line is the JSON result. Exits
non-zero without a result when the repository sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "slambench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "slambench")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("slambench: repository sources not found next to "
              "slambench/", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or
        os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"slambench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
