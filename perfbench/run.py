#!/usr/bin/env python3
"""Serving benchmark for qols_server.

    python3 perfbench/run.py --workload wire-classical --seed 1 --seconds 30 --trace 0

Builds the qols library, qols_server and the perfbench program from the
sources of this checkout (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset, then runs that program for one workload of
perfbench/workloads.json. It prints its findings line by line and
one JSON object as the last line of standard output. Build output goes to
standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; returns the binaries."""
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no qols sources next to perfbench/ (missing %s)" % needed)
    cmake_dir = os.path.join(build_dir, "perfbench-cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "perfbench",
         "qols_server", "perfbench_nofsync"],
        stdout=sys.stderr, check=True)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "qols", "src", "qols_server"),
            os.path.join(cmake_dir, "libperfbench_nofsync.so"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = {w["name"]: w for w in json.load(f)["workloads"]}
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(sorted(workloads))))
    params = workloads[args.workload]["params"]

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        program, server, nofsync = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    argv = [program, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--server", server, "--preload", nofsync,
            "--work-dir", os.path.join(build_dir, "perfbench-work")]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "1" if value else "0"
        argv += ["--set", "%s=%s" % (key, value)]
    sys.stdout.flush()
    os.execv(program, argv)


if __name__ == "__main__":
    main()
