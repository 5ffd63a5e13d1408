#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds perfbench_driver (the
simulator library from src/ plus perfbench/driver) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it,
checks its outputs (check.py) and prints, as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics; --trace 1 reports
its per_layer metrics, prints summarize.py's per-layer summary above the
result line, and leaves the span file and record under the build dir.
Exits non-zero without a result when the build or the driver fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import check  # noqa: E402
import summarize  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(build_dir, "perfbench_driver")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    exe = build(os.path.abspath(build_dir))
    if exe is None:
        return 1

    out_dir = os.path.abspath(os.path.join(build_dir, "out"))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}-t{args.trace}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + ".spans"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    record = json.loads(lines[-1])
    with open(stem + ".json", "w") as f:
        json.dump(record, f)

    errors = check.check_record(record, bench, trace=bool(args.trace))
    if args.trace:
        values, bases, stats = summarize.per_layer(record)
        summarize.print_summary(record, values, bases, stats)
        check.check_metrics(errors, values, bench, trace=True)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = record["metrics"]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for e in errors:
        log(f"check failed: {e}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": not errors,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
