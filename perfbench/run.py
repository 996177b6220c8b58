#!/usr/bin/env python3
"""ClassMiner end-to-end benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints as the
last line of stdout one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Build output and the run's notes go to stderr.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(out_dir, target):
    """Configures (once) and builds `target`; returns the build directory."""
    build_dir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def metric_names(kind):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.abspath(out_dir)

    if args.self_test:
        build_dir = build(out_dir, "perfbench_test")
        test = subprocess.run([os.path.join(build_dir, "perfbench_test")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        sys.exit(test.returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    wanted = metric_names("per_layer" if args.trace else "end_to_end")
    build_dir = build(out_dir, "perfbench")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result (exit %d)" % run.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparseable result line: " + lines[-1])

    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail("run did not measure: " + ", ".join(missing))
    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
