#!/usr/bin/env python3
"""Bench regression guard: compare a bench JSON against its committed baseline.

Usage: check_bench_regression.py BASELINE CURRENT [--threshold=0.25]
       check_bench_regression.py --validate-metrics FILE
       check_bench_regression.py --max-ratio FILE SLOW FAST LIMIT

Two artifact flavors are understood:

* Reports with a "pinned" map (discs.bench.latency.v1): every pinned family
  in the baseline must exist in the current run and must not exceed the
  baseline by more than the threshold (plus an absolute slack of 1, so a
  baseline of 0 tolerates noise-free growth to 1 without tripping).  Pinned
  values are deterministic simulation metrics, not wall times: they move
  only when protocol or harness behavior changes, which is exactly what the
  guard is for.  Decreases are improvements and always pass.  The two
  reports must also agree on their "smoke" flag: --smoke runs fewer
  transactions per cell, so its percentiles are not comparable with a full
  run's, and a mismatched pair fails.

* google-benchmark reports (BENCH_sim.json / BENCH_faults.json /
  BENCH_rt.json): wall times
  are machine-dependent, so only coverage is enforced — every benchmark
  family named in the baseline must still be registered and measured in the
  current run.  A silently vanished benchmark is a regression in what CI
  measures even when everything that still runs got faster.

The bench job additionally emits a discs.metrics.v1 timeline
(bench_rt --metrics-out); --validate-metrics structurally checks that
artifact (header line with the right schema, parseable sample lines,
monotone at_us) so a malformed upload fails the job instead of landing
silently.

--max-ratio gates how a cost grows rather than what it is, which holds on
any machine: in one google-benchmark report, the median real time of the
benchmark named SLOW over that of FAST (e.g. BM_CausalCheck/16384 over
BM_CausalCheck/1024) must not exceed LIMIT.

Exit status: 0 all guards hold, 1 regression, 2 usage/parse error.
"""

import json
import sys


def fail(msg):
    print(f"check_bench_regression: {msg}")
    return 1


def check_pinned(base, cur, threshold):
    mismatched = 0
    if base.get("smoke") != cur.get("smoke"):
        mismatched = fail(
            f"smoke flag differs: baseline {base.get('smoke')!r}, current "
            f"{cur.get('smoke')!r} (record both in the same mode)"
        )
    bad = 0
    base_pinned = base["pinned"]
    cur_pinned = cur.get("pinned", {})
    for family, base_value in sorted(base_pinned.items()):
        if family not in cur_pinned:
            bad += fail(f"pinned family '{family}' missing from current run")
            continue
        cur_value = cur_pinned[family]
        limit = base_value * (1.0 + threshold) + 1
        if cur_value > limit:
            bad += fail(
                f"'{family}' regressed: {cur_value} vs baseline "
                f"{base_value} (limit {limit:g})"
            )
    print(
        f"check_bench_regression: {len(base_pinned)} pinned families checked, "
        f"{bad} regressed"
    )
    return mismatched + bad


def check_coverage(base, cur):
    base_names = {b["name"] for b in base["benchmarks"]}
    cur_names = {b["name"] for b in cur.get("benchmarks", [])}
    missing = sorted(base_names - cur_names)
    for name in missing:
        fail(f"benchmark '{name}' vanished from current run")
    print(
        f"check_bench_regression: {len(base_names)} benchmark families "
        f"checked for coverage, {len(missing)} missing"
    )
    return len(missing)


def validate_metrics(path):
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        fail(f"cannot read '{path}': {e}")
        return 2
    if not lines:
        fail(f"'{path}' is empty (no header line)")
        return 1
    try:
        records = [json.loads(ln) for ln in lines]
    except ValueError as e:
        fail(f"'{path}' has a malformed JSONL line: {e}")
        return 1
    header = records[0]
    if header.get("record") != "header":
        fail(f"'{path}' does not start with a header record")
        return 1
    if header.get("schema") != "discs.metrics.v1":
        fail(f"'{path}' has schema '{header.get('schema')}', "
             "expected discs.metrics.v1")
        return 1
    prev_at = -1
    for i, rec in enumerate(records[1:], start=2):
        if rec.get("record") != "sample":
            fail(f"'{path}' line {i}: unexpected record "
                 f"'{rec.get('record')}'")
            return 1
        at = rec.get("at_us")
        if not isinstance(at, int) or at < prev_at:
            fail(f"'{path}' line {i}: at_us {at!r} not monotone")
            return 1
        prev_at = at
    print(
        f"check_bench_regression: '{path}' is a valid discs.metrics.v1 "
        f"timeline ({len(records) - 1} samples, source "
        f"'{header.get('source', '')}')"
    )
    return 0


NS_PER_UNIT = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def check_ratio(path, slow, fast, limit):
    try:
        with open(path) as f:
            runs = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read '{path}': {e}")
        return 2

    def median_ns(name):
        times = sorted(
            b["real_time"] * NS_PER_UNIT[b["time_unit"]]
            for b in runs
            if b.get("run_name", b["name"]) == name
            and b.get("run_type", "iteration") == "iteration"
        )
        return times[len(times) // 2] if times else None

    slow_ns, fast_ns = median_ns(slow), median_ns(fast)
    for name, t in ((slow, slow_ns), (fast, fast_ns)):
        if not t:
            fail(f"'{path}' has no timed run of '{name}'")
            return 1
    ratio = slow_ns / fast_ns
    print(
        f"check_bench_regression: {slow} over {fast} = {ratio:.1f} "
        f"(limit {limit:g})"
    )
    return 0 if ratio <= limit else fail(f"ratio {ratio:.1f} exceeds {limit:g}")


def main(argv):
    threshold = 0.25
    paths = []
    args = argv[1:]
    if args and args[0] == "--validate-metrics":
        if len(args) != 2:
            print(__doc__.strip())
            return 2
        return validate_metrics(args[1])
    if args and args[0] == "--max-ratio":
        if len(args) != 5:
            print(__doc__.strip())
            return 2
        try:
            limit = float(args[4])
        except ValueError:
            print(__doc__.strip())
            return 2
        return check_ratio(args[1], args[2], args[3], limit)
    for arg in args:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip())
        return 2

    docs = []
    for path in paths:
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            fail(f"cannot read '{path}': {e}")
            return 2
    base, cur = docs

    if "pinned" in base:
        bad = check_pinned(base, cur, threshold)
    elif "benchmarks" in base:
        bad = check_coverage(base, cur)
    else:
        fail(f"'{paths[0]}' has neither 'pinned' nor 'benchmarks'")
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
