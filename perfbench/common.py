"""Shared pieces of the certification benchmark.

Workload inputs (datasets, threat models, committed reference verdicts),
order statistics, host metadata and deltas of the production telemetry
series.  Nothing here imports :mod:`repro` at module level, so the parent
process of an in-process workload stays light.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs" / "verdicts.json"
#: Results, span dumps and server cache dirs (listed in the root .gitignore).
WORK_DIR = ROOT / ".perfbench"

#: Every dataset is a generated look-alike from ``repro.datasets`` at
#: generation seed 0; the workload seed only picks points and orders work.
DATASETS: Dict[str, Tuple[str, Optional[float]]] = {
    "iris": ("iris", None),
    "mammography": ("mammography", None),
    "mnist17": ("mnist17-binary", 1.0),
    "mnist17-small": ("mnist17-binary", 0.05),
}

#: Threat models by short name: (family, budget).
MODELS: Dict[str, Tuple[str, int]] = {
    "removal-1": ("removal", 1),
    "removal-2": ("removal", 2),
    "flip-1": ("flip", 1),
    "removal-192": ("removal", 192),
}

#: The engine every workload certifies with.
ENGINE_CONFIG = {"max_depth": 2, "domain": "either"}

#: Verdicts that count as decided; timeouts and disjunct-cap hits do not.
DECIDED = ("robust", "unknown")

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def set_program_env() -> None:
    """Fix the environment every process of the program under test inherits:
    the production telemetry series on, in-program spans and the JSONL event
    log off, and ``src`` on the import path, whatever the caller set."""
    import os

    for key in ("REPRO_TELEMETRY_SPANS", "REPRO_LOG_JSON"):
        os.environ.pop(key, None)
    os.environ["REPRO_TELEMETRY"] = "1"
    os.environ["PYTHONPATH"] = str(SRC)


def ensure_src_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    import sys

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_split(key: str):
    """The train/test split of one benchmark dataset."""
    from repro.datasets import load_dataset

    name, scale = DATASETS[key]
    return load_dataset(name, scale=scale, seed=0)


def make_model(key: str):
    from repro.poisoning.models import LabelFlipModel, RemovalPoisoningModel

    family, budget = MODELS[key]
    return LabelFlipModel(budget) if family == "flip" else RemovalPoisoningModel(budget)


def load_refs() -> Dict[str, List[str]]:
    """Committed reference verdicts, ``{"<dataset>/<model>": [status, ...]}``."""
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))["verdicts"]


def stratified_choice(
    rng: random.Random, labels: Sequence[str], k: int
) -> List[int]:
    """``k`` indices drawn so every label keeps its share of ``labels``.

    Quotas per label are fixed (largest remainder of ``k * share``), so the
    reference verdict mix of the chosen points is the same for every seed
    and only which points, and their order, vary.
    """
    strata: Dict[str, List[int]] = {}
    for index, label in enumerate(labels):
        strata.setdefault(label, []).append(index)
    total = len(labels)
    exact = {label: k * len(members) / total for label, members in strata.items()}
    quotas = {label: int(math.floor(value)) for label, value in exact.items()}
    by_remainder = sorted(exact, key=lambda label: (quotas[label] - exact[label], label))
    for label in by_remainder[: k - sum(quotas.values())]:
        quotas[label] += 1
    chosen: List[int] = []
    for label in sorted(strata):
        chosen.extend(rng.sample(strata[label], quotas[label]))
    rng.shuffle(chosen)
    return chosen


# ------------------------------------------------------------ order statistics
def percentile(values: Sequence[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile of ``values``.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  Op latencies are multimodal (MNIST points that take the short
    or the long branch at the root differ by 100 ms), and a plain sample
    percentile that falls between two modes jumps from one to the other
    between runs; this estimator moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    p = pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule inside each order statistic's interval
    total = weights = 0.0
    for index, value in enumerate(ordered):
        for step in range(steps):
            x = (index + (step + 0.5) / steps) / n
            weight = math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
            total += weight * value
            weights += weight
    return total / weights


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at least
    ten samples beyond it, and the mean of the samples beyond it.

    The mean of the slowest tenth (say) is steadier from run to run than
    the percentile at its edge: the slow ops are a few heavy points whose
    latencies are spread thinly, and an estimate at one rank among them
    moved twice as much as the median did.
    """
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10), 50.0)
    beyond = sorted(values)[-max(1, round(n * (1.0 - pct / 100.0))):]
    return pct, sum(beyond) / len(beyond)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median and tail of a latency sample, in ms, with the sample count."""
    ms = [1000.0 * value for value in seconds]
    pct, tail_ms = tail(ms)
    return {"p50_ms": median(ms), "tail_pct": pct, "tail_ms": tail_ms, "samples": len(ms)}


# ------------------------------------------------------------ host metadata
def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


# ------------------------------------------------ production series deltas
def series_sum(
    snapshot: Mapping, name: str, field: str = "value", **labels: str
) -> float:
    """Sum of ``field`` over the series of family ``name`` matching ``labels``.

    A label value may be a ``|``-separated alternation.
    """
    total = 0.0
    for series in snapshot.get(name, {}).get("series", ()):
        have = series.get("labels", {})
        if all(have.get(key) in str(want).split("|") for key, want in labels.items()):
            total += float(series.get(field, 0.0))
    return total


def snapshot_delta(after: Mapping, before: Mapping) -> dict:
    """Counter and histogram deltas of two registry snapshots (same process)."""
    delta: dict = {}
    for name, family in after.items():
        old = {
            json.dumps(series.get("labels", {}), sort_keys=True): series
            for series in before.get(name, {}).get("series", ())
        }
        rows = []
        for series in family.get("series", ()):
            prior = old.get(json.dumps(series.get("labels", {}), sort_keys=True), {})
            row = {"labels": series.get("labels", {})}
            if family.get("type") == "histogram":
                row["count"] = series["count"] - prior.get("count", 0)
                row["sum"] = series["sum"] - prior.get("sum", 0.0)
                prior_buckets = prior.get("buckets", {})
                row["buckets"] = {
                    bound: count - prior_buckets.get(bound, 0)
                    for bound, count in series["buckets"].items()
                }
            else:
                row["value"] = series.get("value", 0.0) - prior.get("value", 0.0)
            rows.append(row)
        delta[name] = {"type": family.get("type"), "series": rows}
    return delta


def merge_deltas(deltas: Iterable[Mapping]) -> dict:
    """Concatenate the series of several processes' deltas, family by family."""
    merged: dict = {}
    for delta in deltas:
        for name, family in delta.items():
            slot = merged.setdefault(name, {"type": family.get("type"), "series": []})
            slot["series"].extend(family.get("series", ()))
    return merged


def histogram_percentile(snapshot: Mapping, name: str, pct: float, **labels: str) -> float:
    """Percentile of a (delta) histogram, interpolated inside its bucket."""
    buckets: Dict[str, float] = {}
    count = 0.0
    for series in snapshot.get(name, {}).get("series", ()):
        have = series.get("labels", {})
        if all(have.get(key) == want for key, want in labels.items()):
            count += series.get("count", 0)
            for bound, cumulative in series.get("buckets", {}).items():
                buckets[bound] = buckets.get(bound, 0) + cumulative
    if count <= 0:
        return 0.0
    bounds = sorted((float(b), c) for b, c in buckets.items() if b != "+Inf")
    target = count * pct / 100.0
    lower, below = 0.0, 0.0
    for bound, cumulative in bounds:
        if cumulative >= target:
            inside = cumulative - below
            share = (target - below) / inside if inside else 0.0
            return lower + (bound - lower) * share
        lower, below = bound, cumulative
    return lower


def phase_seconds(snapshot: Mapping, phase: str, stage: str = "") -> float:
    """Summed ``learner_phase_seconds`` of one phase (optionally one stage)."""
    labels = {"phase": phase}
    if stage:
        labels["stage"] = stage
    return series_sum(snapshot, "learner_phase_seconds", "sum", **labels)


def learner_layers(snapshot: Mapping) -> dict:
    """Per-layer figures read from ``learner_phase_seconds`` and
    ``split_table_cache_total`` deltas."""
    hits = series_sum(snapshot, "split_table_cache_total", result="hit")
    misses = series_sum(snapshot, "split_table_cache_total", result="miss")
    return {
        "core.concrete_predict_s": phase_seconds(snapshot, "concrete_predict", "none"),
        "core.split_table_s": phase_seconds(snapshot, "split_table"),
        "core.split_table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "verify.box_filter_s": phase_seconds(snapshot, "filter", "box|flip-box"),
        "verify.disjunct_split_s": phase_seconds(
            snapshot, "disjunct_split", "disjuncts|flip-disjuncts"
        ),
        "api.plan_s": phase_seconds(snapshot, "plan"),
    }
