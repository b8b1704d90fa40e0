#!/usr/bin/env python3
"""Builds leapme and the perfbench runner from source, then runs one
workload and relays its report; the last stdout line is the result JSON.

    python3 perfbench/run.py --workload serve-score --seed 1 --seconds 10 \
        --trace 0

`--workload all` runs both workloads one after another and prints a
last line mapping each workload to its result; it exits non-zero when any
of them does.

Run from the repository root. Build output goes to .bench_build/ (or
$CARGO_TARGET_DIR when set); fixtures go to .bench_build/work/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-score", "offline-match")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_all(args):
    results = {}
    code = 0
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", args.trace], stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("%s: %s" % (workload, line))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = None
        code = code or run.returncode or (results[workload] is None)
    print(json.dumps(results))
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: the leapme sources (src/) are "
             "missing here")
    if args.workload == "all":
        run_all(args)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "leapme",
         "perfbench"],
    ]
    os.makedirs(build_root, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail("build step failed: " + " ".join(step) + " (see " +
                     log_path + ")")

    work = os.path.join(build_root, "work",
                        "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(build, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--leapme", os.path.join(build, "leapme", "cli", "leapme"),
               "--work-dir", work]
    code = subprocess.call(command)
    # Keep the span dump of a traced run; drop the bulky fixtures.
    for name in os.listdir(work):
        if not name.startswith("spans-"):
            os.remove(os.path.join(work, name))
    sys.exit(code)


if __name__ == "__main__":
    main()
