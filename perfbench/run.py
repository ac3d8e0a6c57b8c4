#!/usr/bin/env python3
"""Build and run the recwild end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload campaign|scan --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
its arithmetic tests are run, and then the workload. Everything the
benchmark binary prints is passed through; its last line is the JSON
result. The exit code is non-zero when the build, the tests, the run or
any output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout, env):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "experiment",
                                       "campaign.hpp")):
        fail(f"program sources not found under {ROOT}/src")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], log,
                      BUILD_TIMEOUT_S, env) != 0:
            fail(f"cmake configure failed, see {log}")
    if run_logged(["cmake", "--build", build_dir, "-j", "4"], log,
                  BUILD_TIMEOUT_S, env) != 0:
        fail(f"build failed, see {log}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    tests = subprocess.run([os.path.join(build_dir, "perfbench_arith_test")],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=60)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout)
        fail("arithmetic tests failed")

    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{args.workload}: output checks failed")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
