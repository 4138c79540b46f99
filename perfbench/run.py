#!/usr/bin/env python3
"""Build and run the PaRiS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
pulls in the repository's own paris_core library) into the build directory
named by $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
measurement. The last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names and units are checked against BENCHMARK.json: the
end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
Build output and progress go to stderr. The exit code is non-zero, and no
result is printed, when the build fails, the run times out or the output is
malformed; an incorrect run prints its result and exits with 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-paper-rw95", "threads-rw95", "sockets-rw50-wan")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no PaRiS source tree around perfbench/ (needs ../CMakeLists.txt and ../src)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run(binary, args, workdir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    # Own process group, so a timeout takes the socket children down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative path means the repo root
    binary = build(os.path.join(target, "perfbench"))
    rc, out = run(binary, args, os.path.join(target, "work"))

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        fail("the benchmark printed no result (exit %d)" % rc)
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, wrong unit %s"
             % (missing, extra, wrong))
    print(json.dumps(result))
    sys.exit(rc if rc != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
