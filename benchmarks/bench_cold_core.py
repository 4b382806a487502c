"""Cold-path core benchmark: batch kernels against the pre-vectorization baseline.

A fresh engine with every split-table plan cleared certifies 32 iris points
(depth 2, ``domain="either"``, removal budget 4) from scratch.  The speedup
over the 0.5 pts/s baseline (recorded before the batch interval kernels and
the split-table plane landed) is the headline number for the batch kernels;
per-phase ``learner_phase_seconds`` deltas attribute where the cold time
goes.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_cold_core.py``);
exits non-zero — the CI smoke gate — if the cold speedup falls below 5×.
Writes ``results/BENCH_cold_core.json``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.api import CertificationEngine, CertificationRequest
from repro.core import split_plan
from repro.experiments.reporting import results_directory, save_artifact
from repro.poisoning.models import RemovalPoisoningModel
from repro.telemetry import metrics
from repro.utils.tables import TextTable

from conftest import bench_config

#: Measured on the growth seed (pre-vectorization, pure per-candidate loops)
#: for this exact workload: 32 iris points, depth 2, either-domain ladder,
#: removal budget 4, 30 s timeout.
BASELINE_POINTS_PER_SECOND = 0.5
MIN_COLD_SPEEDUP = 5.0
TARGET_COLD_SPEEDUP = 10.0


def _workload():
    config = bench_config(timeout_seconds=30.0)
    split = load_split(config)
    reps = -(-32 // len(split.test))
    points = np.tile(split.test.X, (reps, 1))[:32]
    points = points + np.random.default_rng(0).normal(0.0, 1e-9, size=points.shape)
    return split.train, points, config


def load_split(config):
    from repro.experiments.runner import load_experiment_split

    return load_experiment_split("iris", config)


def _engine(config) -> CertificationEngine:
    return CertificationEngine(
        max_depth=2, domain="either", timeout_seconds=config.timeout_seconds
    )


def _phase_seconds(before: dict, after: dict) -> dict:
    """Per-(stage, phase) wall-second deltas of ``learner_phase_seconds``."""

    def table(snapshot: dict) -> dict:
        out = {}
        for series in snapshot.get("learner_phase_seconds", {}).get("series", []):
            labels = series["labels"]
            out[(labels["stage"], labels["phase"])] = float(series["sum"])
        return out

    first, second = table(before), table(after)
    return {
        f"{stage}/{phase}": second[(stage, phase)] - first.get((stage, phase), 0.0)
        for (stage, phase) in second
        if second[(stage, phase)] - first.get((stage, phase), 0.0) > 0.0
    }


def main() -> int:
    dataset, points, config = _workload()
    request = CertificationRequest(dataset, points, RemovalPoisoningModel(4))
    registry = metrics.get_registry()

    # --- cold arm: no plans, fresh engine ----------------------------------
    split_plan.clear_plans()
    engine = _engine(config)
    before = registry.snapshot()
    cold_start = time.perf_counter()
    cold_report = engine.verify(request)
    cold_seconds = time.perf_counter() - cold_start
    phases = _phase_seconds(before, registry.snapshot())
    cold_pps = cold_report.total / cold_seconds
    speedup = cold_pps / BASELINE_POINTS_PER_SECOND
    # split_table time nests inside best_split (node tables are built on
    # demand while scoring), so the attribution sum skips it to avoid double
    # counting.
    attributed = sum(
        seconds for key, seconds in phases.items() if not key.endswith("/split_table")
    )

    status_counts: dict = {}
    for result in cold_report.results:
        status_counts[result.status.value] = (
            status_counts.get(result.status.value, 0) + 1
        )

    table = TextTable(["arm", "points", "wall-clock (s)", "points/s"])
    table.add_row(["cold (plans cleared)", cold_report.total, f"{cold_seconds:.3f}",
                   f"{cold_pps:.2f}"])
    phase_table = TextTable(["stage/phase", "seconds", "share of cold wall"])
    for key, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        phase_table.add_row([key, f"{seconds:.4f}", f"{seconds / cold_seconds:.1%}"])
    text = (
        f"Cold-path core (iris, depth 2, either ladder, n=4): "
        f"{cold_pps:.2f} pts/s cold = {speedup:.1f}x the "
        f"{BASELINE_POINTS_PER_SECOND} pts/s pre-vectorization baseline "
        f"(target {TARGET_COLD_SPEEDUP:.0f}x, floor {MIN_COLD_SPEEDUP:.0f}x)\n"
        + table.render()
        + f"\nstatuses: {status_counts}\n\n"
        f"learner_phase_seconds attribution "
        f"({attributed / cold_seconds:.1%} of cold wall):\n"
        + phase_table.render()
    )
    print(text)
    save_artifact("cold_core", text)

    payload = {
        "dataset": "iris",
        "points": cold_report.total,
        "max_depth": 2,
        "domain": "either",
        "removal_budget": 4,
        "baseline_points_per_second": BASELINE_POINTS_PER_SECOND,
        "min_cold_speedup": MIN_COLD_SPEEDUP,
        "target_cold_speedup": TARGET_COLD_SPEEDUP,
        "cold": {
            "wall_clock_seconds": cold_seconds,
            "points_per_second": cold_pps,
            "speedup_vs_baseline": speedup,
        },
        "status_counts": status_counts,
        "learner_phase_seconds": phases,
        "attributed_fraction_of_cold_wall": attributed / cold_seconds,
    }
    (results_directory() / "BENCH_cold_core.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    failures = []
    if speedup < MIN_COLD_SPEEDUP:
        failures.append(
            f"cold throughput {cold_pps:.2f} pts/s is only {speedup:.1f}x the "
            f"{BASELINE_POINTS_PER_SECOND} pts/s baseline (floor "
            f"{MIN_COLD_SPEEDUP:.0f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
