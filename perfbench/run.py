#!/usr/bin/env python3
"""Builds and runs the McSD benchmark.

    python3 perfbench/run.py --workload serve_zipf|scan_warm|scan_ooc \
        --seed N --seconds S --trace 0|1 [--quick]

Configures and builds perfbench/ (a standalone CMake project that compiles
the repository's src/) into .bench_build/perfbench at the repository root,
then replaces itself with the mcsd_perfbench binary, run from the repository
root.  Build output goes to stderr, so the last line of stdout is the
binary's JSON result.  See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: McSD sources not found at %s/src\n" % root)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "mcsd_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return 2
    binary = os.path.join(build, "mcsd_perfbench")
    os.chdir(root)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
