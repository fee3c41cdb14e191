#!/usr/bin/env python3
"""Compare two sets of digruber-perf results.

    python3 bench/perf/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files written by `digruber-perf --out` (or
directories searched for *.json, e.g. one `--all --out-dir` per pass). For
every (workload, metric) the script prints each side's median and quartiles
and the change of the medians. End-to-end metrics are then labelled with
the direction and bound from BENCHMARK.json:

  better      the new median is better by more than the bound, or the
              spread is wider than the bound but every new run beats every
              base run
  worse       the new median is worse by more than the bound
  unchanged   within the bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, so the runs cannot tell
  exact       every run on both sides reads the same value

A zero baseline must stay zero. The exit code is 1 if any end-to-end metric
is worse, or if the share of failed queries (failed / attempted) rose on
any workload; otherwise 0.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load(path):
    """Result records under `path`, a file or a directory."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if "workload" in record and "metrics" in record:
            records.append(record)
    return records


def group(records):
    """{workload: {metric: [values]}} plus {workload: [fail shares]}."""
    values, fails = {}, {}
    for r in records:
        w = r["workload"]
        for name, m in r["metrics"].items():
            values.setdefault(w, {}).setdefault(name, []).append(float(m["value"]))
        if r.get("attempted"):
            fails.setdefault(w, []).append(r["failed"] / r["attempted"])
    return values, fails


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def label(base, new, better, bound):
    if len(set(base + new)) == 1:
        return "exact"
    lower = better == "lower"
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        if mn == 0:
            return "unchanged"
        return "worse" if (mn > 0) == lower else "better"
    gain = (mb - mn) / abs(mb) if lower else (mn - mb) / abs(mb)
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    base, base_fails = group(load(args.base))
    new, new_fails = group(load(args.new))
    if not base or not new:
        print("no result records found", file=sys.stderr)
        return 2

    regressions = []
    row = "{:<12} {:<32} {:>34} {:>34} {:>9}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "change", "label"))
    for w in sorted(set(base) & set(new)):
        for name in sorted(set(base[w]) & set(new[w]),
                           key=lambda n: (n not in end_to_end, n)):
            b, n = base[w][name], new[w][name]
            bq, nq = quartiles(b), quartiles(n)
            mb, mn = bq[1], nq[1]
            change = "{:+.2%}".format((mn - mb) / abs(mb)) if mb else "-"
            verdict = "-"
            if name in end_to_end:
                m = end_to_end[name]
                verdict = label(b, n, m["better"], m["bound"])
                if verdict == "worse":
                    regressions.append("{} {}".format(w, name))
            print(row.format(w, name,
                             "{:.6g} [{:.6g}, {:.6g}]".format(mb, bq[0], bq[2]),
                             "{:.6g} [{:.6g}, {:.6g}]".format(mn, nq[0], nq[2]),
                             change, verdict))
        if w in base_fails and w in new_fails:
            if statistics.median(new_fails[w]) > statistics.median(base_fails[w]):
                regressions.append("{} failed-query share rose".format(w))

    for r in regressions:
        print("REGRESSION: " + r)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
