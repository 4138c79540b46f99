#!/usr/bin/env python3
"""Steadiness report: run one workload k times and summarize every metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1] [--trace 0|1]

Runs perfbench/run.py k times with seeds seed0 .. seed0+k-1 (from the
repository root, for BENCHMARK.json's run_seconds each), then prints, per
metric, the median, the quartiles
(statistics.quantiles(values, n=4)), min and max, and the spread: the
interquartile distance as a share of the median. For end-to-end metrics the
spread is compared with the metric's bound in BENCHMARK.json ("ok" below a
third of the bound). Every report is stamped with a hardware fingerprint
(nproc, CPU model, kernel) so two sets of numbers, e.g. an A/B comparison,
can be checked for coming from the same class of machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "kernel": platform.release()}


def main():
    ap = argparse.ArgumentParser(description="steadiness report for one workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("steady: --runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units = {}, {}
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            sys.exit("steady: run with seed %d failed (exit %d)" % (seed, p.returncode))
        res = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"],
              res["attempted"], res["failed"]), file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    fp = fingerprint()
    print("workload %s, %d runs of %d s, seeds %d..%d, trace=%d" % (
        args.workload, args.runs, seconds, args.seed0, args.seed0 + args.runs - 1, args.trace))
    print("hardware: nproc=%s cpu=%s kernel=%s" % (fp["nproc"], fp["cpu_model"], fp["kernel"]))
    print("%-32s %-8s %12s %12s %12s %12s %12s %8s %s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        if name in bounds:
            b = bounds[name]
            verdict = "%.3f %s" % (b, "ok" if spread < b / 3 else
                                   ("within" if spread <= b else "OVER"))
        print("%-32s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s" % (
            name, units[name], med, q1, q3, min(v), max(v), spread, verdict))


if __name__ == "__main__":
    main()
