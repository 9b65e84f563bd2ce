#!/usr/bin/env python3
"""Build and run the dplearn service benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gibbs-large --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) in .bench_build/perfbench, as a Release build; later calls rebuild only
what changed. Build output goes to stderr. The load generator's output is
passed through, and its last line is the result object. With --trace 1 the
run's Chrome trace is validated by scripts/check_trace_json.py; a trace that
fails turns the result to "correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170
WORKLOADS = ("gibbs-large", "stream-churn")
# Spans every traced run's Chrome trace must hold: the client's Gibbs call
# and the server's run inside it.
REQUIRED_SPANS = ("loadgen.gibbs_call", "service.gibbs_run")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources under src/; run from the root of a dplearn checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the output checks")
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_checks_test")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench_loadgen")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"load generator did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"load generator printed nothing (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    if not isinstance(result, dict) or "correct" not in result:
        print(lines[-1], file=sys.stderr)
        fail(f"load generator printed no result (exit {run.returncode})")

    code = run.returncode
    if args.trace == 1:
        trace = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        command = [sys.executable, os.path.join("scripts", "check_trace_json.py"), trace,
                   "--min-threads", "2"]
        for name in REQUIRED_SPANS:
            command += ["--require-name", name]
        check = subprocess.run(command, stdout=sys.stderr)
        if check.returncode != 0:
            result["correct"] = False
            code = code or 1
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
