#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are files of results: the last line run.py prints (one JSON
object per line; several lines are several runs) or the result records it
writes under .bench_build/results/. Results are grouped by workload when
they name one. For every end-to-end metric the medians of BASE and NEW are
compared; NEW regresses when it is worse than BASE by more than the
metric's bound (a share of BASE's median). The exit code is 1 when any
metric regresses or any result is not correct.
"""

import argparse
import json
import os
import statistics
import sys


def load_results(path):
    """Every result object in `path`: a JSON object, a JSON list, or one
    JSON object per line."""
    with open(path) as f:
        text = f.read().strip()
    try:
        data = json.loads(text)
        return data if isinstance(data, list) else [data]
    except ValueError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def medians(results):
    """{workload: {metric: median value}} over the given results."""
    grouped = {}
    for r in results:
        per = grouped.setdefault(r.get("workload", ""), {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return {w: {n: statistics.median(v) for n, v in ms.items()}
            for w, ms in grouped.items()}


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) if better == "lower" else (base - new)
    return delta / abs(base)


def compare(base_results, new_results, bench):
    """Rows (workload, metric, base, new, worse, bound, ok) and overall ok."""
    base, new = medians(base_results), medians(new_results)
    rows, ok = [], all(r.get("correct", False) for r in base_results + new_results)
    for workload in sorted(set(base) | set(new)):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b = base.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if b is None or n is None:
                rows.append((workload, name, b, n, None, spec["bound"], False))
                ok = False
                continue
            worse = worse_share(b, n, spec["better"])
            passed = worse <= spec["bound"]
            ok = ok and passed
            rows.append((workload, name, b, n, worse, spec["bound"], passed))
    return rows, ok


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    rows, ok = compare(load_results(args.base), load_results(args.new), bench)
    print("%-14s %-14s %14s %14s %9s %7s" %
          ("workload", "metric", "base", "new", "worse", "bound"))
    for workload, name, b, n, worse, bound, passed in rows:
        fmt = lambda v: "missing" if v is None else "%.6g" % v
        print("%-14s %-14s %14s %14s %9s %7.3f %s" % (
            workload or "-", name, fmt(b), fmt(n),
            "-" if worse is None else "%+.3f" % worse, bound,
            "ok" if passed else "REGRESSED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
