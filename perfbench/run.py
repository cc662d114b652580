#!/usr/bin/env python3
"""Build and run the wdmlat end-to-end benchmark.

Run from the root of a wdmlat checkout:

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the checkout's src/) into
.bench_build/perfbench, runs one workload of the benchmark in a scratch
directory under .bench_build, and passes its output through: the last line
of stdout is the benchmark's JSON result. Build output goes to stderr. With
--trace 1 the traced pass's spans are kept in .bench_build/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("paper_cells", "fleet_screen", "observed_cell", "trace_export")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no wdmlat sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(BUILD_DIR, "wdmlat_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    work = os.path.join(BUILD_ROOT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", work]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        fail(f"benchmark exited with code {result.returncode}")
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
