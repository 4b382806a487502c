#!/usr/bin/env python3
"""Regenerate ``refs/verdicts.json``: the reference verdict of every test
point the workloads can draw, from the cold in-process engine.

Usage: ``python3 perfbench/make_refs.py`` from the repository root.  Each
(dataset, model) pair runs on a fresh engine with split plans cleared, and
points are certified in index order.  Regenerate only when a change is meant
to alter verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import common

#: (dataset, model) pairs any workload certifies.
CONFIGS = (
    ("iris", "removal-1"),
    ("iris", "removal-2"),
    ("iris", "flip-1"),
    ("mammography", "removal-1"),
    ("mammography", "removal-2"),
    ("mammography", "flip-1"),
    ("mnist17", "removal-192"),
    ("mnist17-small", "removal-1"),
)


def main() -> int:
    common.ensure_src_path()
    from repro.api import CertificationEngine
    from repro.core import split_plan

    verdicts = {}
    for dataset, model_key in CONFIGS:
        split = common.load_split(dataset)
        model = common.make_model(model_key)
        split_plan.clear_plans()
        engine = CertificationEngine(**common.ENGINE_CONFIG)
        started = time.perf_counter()
        verdicts[f"{dataset}/{model_key}"] = [
            engine.certify_point(split.train, x, model).status.value for x in split.test.X
        ]
        print(
            f"{dataset}/{model_key}: {len(split.test)} points in "
            f"{time.perf_counter() - started:.1f}s",
            file=sys.stderr,
        )
    common.REFS_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {"engine": common.ENGINE_CONFIG, "verdicts": verdicts}
    common.REFS_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
