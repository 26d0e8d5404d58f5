#!/usr/bin/env python3
"""Compare two Google-Benchmark JSON files and print per-benchmark deltas.

The perf workflow (see README "Performance") is: run
scripts/run_bench.sh before a change and after it *on the same
machine*, then diff the two JSON files:

    scripts/bench_diff.py /tmp/before.json BENCH_simulator.json

Improvements beyond the threshold print green, regressions red.
Benchmarks present in only one file are listed separately.  With
--fail-on-regression the exit status is 1 when any benchmark regressed
beyond the threshold (for use as a soft CI tripwire; wall-clock
numbers are machine-specific, so this repo's CI only smoke-runs the
benches and leaves regression gating to same-machine comparisons).

Two files from different hosts are refused (exit 2): their host stamps
(HOST_KEYS) or run-environment stamps (CONTEXT_KEYS) differ, so the
delta would measure the machine, not the code.  --allow-cross-host
compares them anyway and only warns.
"""

import argparse
import json
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Context keys (stamped by scripts/run_bench.sh) that make two runs
# comparable; a mismatch means the delta measures the machine or its
# configuration, not the code.
CONTEXT_KEYS = ("vtrain_cpu_features", "vtrain_pinning")

# Host stamps Google Benchmark writes into every context block.
HOST_KEYS = ("host_name", "num_cpus")


def context_mismatches(before_path, after_path):
    """Returns [(key, baseline, candidate)] for every differing stamp."""
    def context_of(path):
        try:
            with open(path) as f:
                return json.load(f).get("context", {})
        except (OSError, json.JSONDecodeError):
            return {}

    before_ctx = context_of(before_path)
    after_ctx = context_of(after_path)
    return [(key, before_ctx.get(key), after_ctx.get(key))
            for key in HOST_KEYS + CONTEXT_KEYS
            if before_ctx.get(key) != after_ctx.get(key)]


def load(path, metric):
    """Returns {name: time_in_ns} for the plain (non-aggregate) runs.

    Files produced with --benchmark_repetitions emit one row per
    repetition under the same name; those are averaged so the
    comparison reflects the run's central tendency, not whichever
    repetition happened to come last.
    """
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Skip _mean/_median/_stddev aggregate rows from --repetitions.
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        if "error_occurred" in bench:
            continue
        unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None or metric not in bench:
            continue
        times.setdefault(bench["name"], []).append(bench[metric] * unit)
    return {name: sum(reps) / len(reps) for name, reps in times.items()}


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before", help="baseline benchmark JSON")
    parser.add_argument("after", help="candidate benchmark JSON")
    parser.add_argument("--metric", default="real_time",
                        choices=["real_time", "cpu_time"],
                        help="which time series to compare")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="red/green threshold, percent (default 5)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any benchmark regressed beyond "
                             "the threshold")
    parser.add_argument("--allow-cross-host", action="store_true",
                        help="compare files whose host or context "
                             "stamps differ (warn instead of exit 2)")
    args = parser.parse_args()

    mismatches = context_mismatches(args.before, args.after)
    for key, b, a in mismatches:
        print(f"{'warning' if args.allow_cross_host else 'error'}: "
              f"context mismatch on '{key}': baseline {b!r} vs "
              f"candidate {a!r}", file=sys.stderr)
    if mismatches and not args.allow_cross_host:
        print("error: the files come from different hosts or run "
              "environments, so the delta would measure the machine; "
              "pass --allow-cross-host to compare anyway",
              file=sys.stderr)
        return 2
    before = load(args.before, args.metric)
    after = load(args.after, args.metric)
    if not after:
        print("error: no comparable benchmarks in the candidate file",
              file=sys.stderr)
        return 2

    shared = [name for name in before if name in after]
    if not shared:
        # First run of a new bench suite: the baseline predates every
        # candidate series.  Listing them as new and exiting 0 lets a
        # fresh BENCH_<name>.json be adopted without hand-editing a
        # bootstrap baseline.
        width = max(len(name) for name in after)
        for name in sorted(after):
            print(f"{name.ljust(width)}  {'(new)':>10}  "
                  f"{fmt_time(after[name]):>10}")
        print("\n0 compared: the baseline has none of the candidate's "
              "benchmark names (first run of a new suite?)")
        return 0

    use_color = sys.stdout.isatty()

    def paint(text, code):
        return f"\033[{code}m{text}\033[0m" if use_color else text

    width = max(len(name) for name in shared)
    print(f"{'benchmark'.ljust(width)}  {'before':>10}  {'after':>10}"
          f"  {'delta':>8}")
    regressions = improvements = 0
    for name in shared:
        b, a = before[name], after[name]
        delta = (a - b) / b * 100.0 if b > 0 else float("inf")
        cell = f"{delta:+7.1f}%"
        if delta <= -args.threshold:
            cell = paint(cell, "32")  # green: faster
            improvements += 1
        elif delta >= args.threshold:
            cell = paint(cell, "31")  # red: slower
            regressions += 1
        print(f"{name.ljust(width)}  {fmt_time(b):>10}  {fmt_time(a):>10}"
              f"  {cell}")

    for name in sorted(set(before) - set(after)):
        print(f"{name.ljust(width)}  {fmt_time(before[name]):>10}  "
              f"{'(removed)':>10}")
    for name in sorted(set(after) - set(before)):
        print(f"{name.ljust(width)}  {'(new)':>10}  "
              f"{fmt_time(after[name]):>10}")

    print(f"\n{len(shared)} compared: {improvements} improved, "
          f"{regressions} regressed (threshold {args.threshold:.1f}%, "
          f"metric {args.metric})")
    if args.fail_on_regression and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
