#!/usr/bin/env python3
"""Builds and runs the DISCS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sim-sustained, chaos-audit, rt-closed, rt-oracle, or "all"
(each workload in turn, each in its own process).  Run from the repository
root.  The first run configures and builds perfbench/ (and the library
sources it compiles) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally.  The traced run's
artifacts go to .bench_build/perfbench-out/.

The last line of standard output is the benchmark's JSON result.  Its
metric names are checked against BENCHMARK.json: the end-to-end list for
--trace 0, the per-layer list for --trace 1.  Exit code 0 when a result was
printed; nonzero, with no result, when the build, the run or that check
failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-sustained", "chaos-audit", "rt-closed", "rt-oracle"]
# A run measures for --seconds, then checks and post-passes; the binary is
# stopped well before the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (first time) and builds the benchmark; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "discs_perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "discs_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"] for m in spec[key]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    out_dir = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload, "did not finish within", RUN_TIMEOUT_S, "s")
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(workload, "exited with", proc.returncode)
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(workload, "printed no JSON result")
        return 1, None
    want = declared_metrics(trace)
    got = set(result.get("metrics", {}))
    if got != want:
        log(workload, "metrics differ from BENCHMARK.json; missing:",
            sorted(want - got), "extra:", sorted(got - want))
        return 1, None
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, result = run_one(binary, name, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    # "all": one object over every workload, metrics named workload/metric.
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}/{m}": v for w, r in results.items()
                          for m, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
