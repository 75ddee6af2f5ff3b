#!/usr/bin/env python3
"""Compare two result sets written by suite.py, parent first.

    python3 perfbench/compare.py perfbench/results/BENCH_seed.json new.json

Prints one row per (workload, end-to-end metric): each side's median and
quartiles, the pairs the change won (runs paired by seed) and a verdict:

- better: the change wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than the parent's own spread
  (the distance between its quartiles);
- worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
- unresolved: the parent's spread, as a share of its median, is wider than
  the bound, and not every run of the change beats every run of the parent;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool = True) -> tuple[str, int]:
    """The verdict, and the number of pairs the change won."""
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    cm = statistics.median(change)
    gain = sign * (pm - cm)  # positive when the change is better
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if (p3 - p1) / abs(pm) > bound:
        return ("better" if all_better else "unresolved"), wins
    if wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "unchanged", wins


def load(path: Path) -> dict:
    """{(workload, metric): {seed: value}} over the untraced runs."""
    out: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a, b = load(args.parent), load(args.change)
    print(f"{'workload':<11} {'metric':<13} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':<6} verdict")
    for workload in dict.fromkeys(w for w, _ in a):
        for metric in spec:
            key = (workload, metric["name"])
            if key not in a or key not in b or min(len(a[key]), len(b[key])) < 2:
                continue
            parent, change = list(a[key].values()), list(b[key].values())
            pairs = [(a[key][s], b[key][s]) for s in a[key] if s in b[key]]
            v, wins = verdict(parent, change, pairs, metric["bound"],
                              metric["better"] == "lower")
            sides = []
            for values in (parent, change):
                q1, median, q3 = statistics.quantiles(values, n=4)
                sides.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}] {metric['unit']}")
            print(f"{workload:<11} {metric['name']:<13} {sides[0]:<30} "
                  f"{sides[1]:<30} {wins}/{len(pairs):<4} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
