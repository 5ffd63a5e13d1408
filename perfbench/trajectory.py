#!/usr/bin/env python3
"""Runs the benchmark over a set of seeds, twice, and records a
trajectory point: every result line plus, per workload and end-to-end
metric, each set's median and quartile spread and the second set's median
relative to the first, stamped with CPU model, nproc and commit.

    python3 perfbench/trajectory.py --seeds 1-10 --sets 2 \\
        --commit <hash> --out perfbench/trajectory/<name>.json

Run from the repository root; it calls perfbench/run.py once per
workload, seed and set.  --workloads limits the workloads; --sets 1 and
a few seeds make a quick spread probe while tuning.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """(median, IQR / median) with statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}"}
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(args.seeds)
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in seeds:
                res = run_one(w, seed, bench["run_seconds"], 0)
                res["seed"] = seed
                runs[w].append(res)
                ok = res.get("correct")
                print(f"set {s + 1} {w} seed {seed}: correct={ok} " +
                      " ".join(f"{k}={v['value']:.6g}" for k, v in
                               res.get("metrics", {}).items()),
                      file=sys.stderr, flush=True)
        sets.append(runs)

    summary = {}
    for w in workloads:
        summary[w] = {}
        for name, m in e2e.items():
            row = {"bound": m["bound"], "better": m["better"]}
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs[w]
                        if r.get("correct") and name in r.get("metrics", {})]
                if not vals:
                    continue
                med, sp = spread(vals)
                meds.append(med)
                row[f"set{s + 1}_median"] = med
                row[f"set{s + 1}_iqr_over_median"] = sp
            if len(meds) == 2 and meds[0]:
                row["set2_over_set1"] = meds[1] / meds[0]
            summary[w][name] = row

    point = {
        "stamp": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "commit": args.commit,
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
        },
        "summary": summary,
        "sets": sets,
    }
    text = json.dumps(point, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            f.write(text + "\n")
    for w, rows in summary.items():
        for name, row in rows.items():
            cells = " ".join(f"{k}={v:.4g}" for k, v in row.items()
                             if k.startswith("set"))
            print(f"{w:<22} {name:<13} bound={row['bound']} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
