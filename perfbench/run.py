#!/usr/bin/env python3
"""The certification benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper-small`` -- the paper's certified-fraction grid on iris and
  mammography, cold (``perfbench/inproc.py``);
* ``mnist-scale`` -- MNIST-1-7 binary at full size, cold (same module);
  run by hand, not listed in ``BENCHMARK.json``;
* ``serve-routed`` -- a closed loop through ``repro route`` and two
  ``repro serve`` backends (``perfbench/served.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result (host metadata, verdict mix, percentiles
with their sample counts, failures) goes to ``.perfbench/results/`` and the
spans of a traced run to ``.perfbench/spans/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("paper-small", "mnist-scale", "serve-routed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed wall per run (whole passes for in-process workloads)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    common.set_program_env()
    common.ensure_src_path()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "serve-routed":
        import served as module
    else:
        import inproc as module
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": float(outcome["metrics"][entry["name"]]), "unit": entry["unit"]}
        for entry in wanted
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.host_metadata(args.seed),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "details": outcome["details"],
        "wall_s": time.perf_counter() - STARTED,
    }
    results_dir = common.WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stamp}.json").write_text(json.dumps(result, indent=1) + "\n")
    if outcome["spans"]:
        spans_dir = common.WORK_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{stamp}.json").write_text(json.dumps(outcome["spans"]) + "\n")
    _report(result)
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _report(result: dict) -> None:
    """Human-readable summary printed ahead of the JSON line."""
    details = result["details"]
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"nproc {host['nproc']}  python {host['python']}  numpy {host['numpy']}  "
          f"git {host['git_sha'][:12]}")
    print(f"ops attempted {result['attempted']}  failed {result['failed']}  "
          f"verdicts {json.dumps(details.get('verdict_mix', {}), sort_keys=True)}")
    latency = details.get("latency", {})
    if latency:
        print(f"latency: p50 {latency['p50_ms']:.2f} ms, mean beyond p{latency['tail_pct']:g} "
              f"{latency['tail_ms']:.2f} ms over {latency['samples']} samples")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for failure in details.get("verdicts", {}).get("failures", [])[:20]:
        print(f"FAILED {failure}")
    for gain in details.get("verdicts", {}).get("precision_gains", [])[:20]:
        print(f"precision change {gain}")


if __name__ == "__main__":
    raise SystemExit(main())
