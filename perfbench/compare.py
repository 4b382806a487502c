#!/usr/bin/env python3
"""Compare two sets of benchmark results against the benchmark's bounds.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (by
default under ``.perfbench/results/``), e.g. ten seeds per workload of the
parent commit and of the change.  For every workload and end-to-end metric
the table gives both medians, the ratio of new to base (with the base), the
run-to-run spread of each side (interquartile range over median) and a
verdict:

* ``regressed`` -- the new median is worse than the base by more than the
  metric's bound;
* ``improved`` -- better by more than the base's own spread;
* ``unchanged`` -- neither of the above;
* ``unresolved`` -- either side's spread is wider than the bound, so a
  change of that size cannot be told from noise (``improved`` instead when
  every new run is better than every base run).

A gain claimed from these labels still needs paired runs of parent and
change, alternating which runs first, won in at least nine pairs of ten;
this table only compares the medians.

Per-layer metrics of traced runs are listed with their medians and ratio,
without a verdict.  The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import common


def load(directory: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``{(workload, trace): {metric: [value per run]}}``."""
    grouped: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if "workload" not in result or "metrics" not in result:
            continue
        slot = grouped.setdefault((result["workload"], int(result["trace"])), {})
        for name, metric in result["metrics"].items():
            slot.setdefault(name, []).append(float(metric["value"]))
    return grouped


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if max(spread(base), spread(new)) > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > spread(base):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    regressed = False
    header = (f"{'metric':38s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
              f"{'spread b/n':>13s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, entries in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            old_runs, new_runs = base.get((workload, trace)), new.get((workload, trace))
            if not old_runs or not new_runs:
                continue
            print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
                  f"{len(next(iter(old_runs.values())))} base runs, "
                  f"{len(next(iter(new_runs.values())))} new runs)")
            print(header)
            for entry in entries:
                name = entry["name"]
                if name not in old_runs or name not in new_runs:
                    continue
                b, n = old_runs[name], new_runs[name]
                b_median, n_median = statistics.median(b), statistics.median(n)
                ratio = f"{n_median / b_median:.3f}" if b_median else "n/a"
                label = verdict(b, n, entry["better"], entry["bound"]) if trace == 0 else "-"
                regressed |= label == "regressed"
                print(f"{name:38s} {b_median:12.5g} {n_median:12.5g} {ratio:>9s} "
                      f"{spread(b):6.3f}/{spread(n):6.3f}  {label}"
                      f"  (base {b_median:.5g} {entry['unit']})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
