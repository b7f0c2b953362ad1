#!/usr/bin/env python3
"""Compares bench_e2e result files of two commits.

    python3 bench_e2e/compare_e2e.py --base P1.json P2.json ... \
        --change C1.json C2.json ... [--benchmark BENCHMARK.json]

Each file is what `bench_e2e --out R.json` writes for one untraced run. Runs
are paired by their order on the command line within each workload, so pass
them in the order they ran (alternate which side runs first; at least ten
pairs). Inputs whose host contexts differ (everything but the commit) are
refused.

For every workload and end-to-end metric the script prints both sides'
medians and quartiles, the share of pairs the change wins, and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread
  unresolved  the parent's own spread is wider than the metric's bound and
              not every change run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json
  no worse    otherwise

Exit status: 0, or 1 when any verdict is "worse", or 2 for unusable input.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        if r.get("trace"):
            sys.exit("compare_e2e: %s is a traced run; end-to-end numbers come "
                     "from untraced runs only" % p)
        if not r.get("correct") or r.get("failed"):
            sys.exit("compare_e2e: %s failed its checks" % p)
        runs.append((p, r))
    return runs


def context(run):
    host = dict(run["host"])
    host.pop("git_commit", None)
    host["seconds"] = run["seconds"]
    return host


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Applies the rules in the module docstring to one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    spread = (b3 - b1) / bmed if bmed else 0.0
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (bmed - cmed) > 0
            and abs(bmed - cmed) > b3 - b1):
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no worse"
    return result, wins, len(pairs), worse_by, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]

    base, change = load(args.base), load(args.change)
    contexts = {json.dumps(context(r), sort_keys=True)
                for _, r in base + change}
    if len(contexts) != 1:
        sys.stderr.write("compare_e2e: host contexts differ; refusing:\n")
        for c in sorted(contexts):
            sys.stderr.write("  %s\n" % c)
        return 2

    workloads = sorted({r["workload"] for _, r in base + change})
    any_worse = False
    header = "%-22s %-15s %29s %29s %8s %6s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "spread", "verdict")
    print(header)
    print("-" * len(header))
    for w in workloads:
        bw = [r for _, r in base if r["workload"] == w]
        cw = [r for _, r in change if r["workload"] == w]
        if not bw or not cw:
            print("%-22s (runs on one side only; skipped)" % w)
            continue
        for m in metrics:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in bw]
            cv = [r["metrics"][name]["value"] for r in cw]
            result, wins, pairs, worse_by, spread = verdict(
                bv, cv, m["better"], m["bound"])
            any_worse |= result == "worse"
            b1, bmed, b3 = quartiles(bv)
            c1, cmed, c3 = quartiles(cv)
            print("%-22s %-15s %11.5g [%7.4g, %7.4g] %11.5g [%7.4g, %7.4g] "
                  "%+7.1f%% %2d/%-3d %6.1f%%  %s" % (
                      w, name, bmed, b1, b3, cmed, c1, c3, 100.0 * worse_by,
                      wins, pairs, 100.0 * spread, result))
    print("\ndelta: how much worse the change's median is (negative = better); "
          "spread: the parent's quartile spread over its median.")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
