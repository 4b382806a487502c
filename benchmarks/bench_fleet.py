"""Benchmark for `repro.fleet`: routed TCP serving and single-point storms.

1. **Routing overhead is bounded** (gated): a warm batch certified through
   the router (client → router TCP → shard-owner TCP) must stay within 2×
   the wall-clock of the same warm batch over a direct Unix socket.  The
   router adds exactly one relay hop plus shard hashing; both are
   per-batch, not per-point.  Both servers run at once and the two arms
   are sampled alternately, so host drift hits both; the gate compares the
   medians of ``SAMPLES`` warm batches per arm.
2. **Single-point storm** (reported, not gated): ``CONCURRENT_CLIENTS``
   clients each certify one *distinct* point of the same (dataset, model)
   against one TCP server at once.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_fleet.py``);
artifacts: ``results/fleet.txt`` and ``results/BENCH_fleet.json``.
"""

import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.dataset import Dataset
from repro.experiments.reporting import results_directory, save_artifact
from repro.fleet import CertificationRouter
from repro.poisoning.models import RemovalPoisoningModel
from repro.service import CertificationClient, CertificationServer, wait_for_server
from repro.utils.tables import TextTable

ROWS = 512
BATCH_POINTS = 32
CONCURRENT_CLIENTS = 8
SAMPLES = 25


def _dataset() -> Dataset:
    rng = np.random.default_rng(11)
    per_class = ROWS // 2
    X = np.concatenate(
        [rng.normal(0.0, 1.0, per_class), rng.normal(10.0, 1.0, per_class)]
    ).reshape(-1, 1)
    y = np.concatenate([np.zeros(per_class), np.ones(per_class)]).astype(np.int64)
    return Dataset(X=X, y=y, n_classes=2, name="fleet-bench")


def _points() -> np.ndarray:
    return np.linspace(-1.0, 12.0, BATCH_POINTS).reshape(-1, 1)


def _client(address) -> CertificationClient:
    return CertificationClient(address, max_depth=1, domain="box", timeout_seconds=30.0)


def _timed_batch(client, dataset, points, model) -> float:
    """Wall-clock of one warm batch, which must be served from cache."""
    start = time.perf_counter()
    report = client.certify_batch(dataset, points, model)
    elapsed = time.perf_counter() - start
    assert report.runtime_stats["learner_invocations"] == 0, (
        "warm rerun was not served from cache"
    )
    return elapsed


def _alternating_medians(direct, routed, dataset, points, model) -> tuple:
    """Median warm-batch seconds of each arm over ``SAMPLES`` alternating pairs.

    The arm that goes first swaps every pair, so neither arm always runs
    right after the other's socket work.
    """
    for client in (direct, routed):
        client.certify_batch(dataset, points, model)  # warm the runtime
    samples = {"direct": [], "routed": []}
    arms = [("direct", direct), ("routed", routed)]
    for pair in range(SAMPLES):
        for name, client in arms if pair % 2 == 0 else arms[::-1]:
            samples[name].append(_timed_batch(client, dataset, points, model))
    return statistics.median(samples["direct"]), statistics.median(samples["routed"])


def _storm(address, dataset, points, model) -> float:
    """Wall-clock of CONCURRENT_CLIENTS one-point certifies, distinct points."""
    barrier = threading.Barrier(CONCURRENT_CLIENTS)
    errors = []

    def one(i):
        try:
            with _client(address) as client:
                barrier.wait(timeout=30)
                client.certify_batch(dataset, points[i : i + 1], model)
        except BaseException as error:  # noqa: BLE001 - collected for the gate
            errors.append(error)

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(CONCURRENT_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return elapsed


def main() -> int:
    dataset = _dataset()
    points = _points()
    model = RemovalPoisoningModel(2)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # -- warm batch: direct Unix socket vs routed TCP -------------------
        direct_server = CertificationServer(
            tmp_path / "s", cache_dir=tmp_path / "direct-cache"
        )
        backend = CertificationServer(
            tcp="127.0.0.1:0", cache_dir=tmp_path / "routed-cache"
        )
        with direct_server:
            backend.start()
            router = CertificationRouter(
                [backend.address], tcp="127.0.0.1:0", request_timeout=60.0
            )
            router.start()
            try:
                wait_for_server(direct_server.socket_path, timeout=30)
                wait_for_server(router.address, timeout=30)
                with _client(direct_server.socket_path) as direct, _client(
                    router.address
                ) as routed:
                    direct_seconds, routed_seconds = _alternating_medians(
                        direct, routed, dataset, points, model
                    )
            finally:
                router.close()
                backend.close()

        # -- single-point storm ---------------------------------------------
        plain = CertificationServer(
            tcp="127.0.0.1:0", cache_dir=tmp_path / "plain-cache"
        )
        plain.start()
        try:
            unbatched_seconds = _storm(plain.address, dataset, points, model)
        finally:
            plain.close()

    per_second = {
        "direct_warm": BATCH_POINTS / direct_seconds,
        "routed_warm": BATCH_POINTS / routed_seconds,
        "storm_unbatched": CONCURRENT_CLIENTS / unbatched_seconds,
    }
    routed_ratio = routed_seconds / direct_seconds

    table = TextTable(["measurement", "points/s", "seconds"])
    table.add_row(
        ["direct Unix-socket warm", f"{per_second['direct_warm']:.1f}",
         f"{direct_seconds:.4f}"]
    )
    table.add_row(
        ["routed TCP warm", f"{per_second['routed_warm']:.1f}",
         f"{routed_seconds:.4f}"]
    )
    table.add_row(
        [f"{CONCURRENT_CLIENTS}-client single-point storm",
         f"{per_second['storm_unbatched']:.1f}", f"{unbatched_seconds:.4f}"]
    )
    save_artifact(
        "fleet",
        f"Fleet serving: {BATCH_POINTS}-point warm batches "
        f"(median of {SAMPLES} alternating samples per arm) and "
        f"an {CONCURRENT_CLIENTS}-client single-point storm on "
        f"{ROWS}-row {dataset.name} "
        f"(routed/direct warm ratio {routed_ratio:.2f}x)\n"
        + table.render(),
    )
    payload = {
        "dataset_rows": ROWS,
        "batch_points": BATCH_POINTS,
        "concurrent_clients": CONCURRENT_CLIENTS,
        "samples_per_arm": SAMPLES,
        "direct_warm_seconds": direct_seconds,
        "routed_warm_seconds": routed_seconds,
        "routed_over_direct_ratio": routed_ratio,
        "storm_unbatched_seconds": unbatched_seconds,
        "points_per_second": per_second,
    }
    (results_directory() / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(table.render())
    print(f"routed/direct warm ratio: {routed_ratio:.2f}x")

    # Acceptance gate: the router hop must not double warm latency.
    if routed_ratio > 2.0:
        print(f"FAIL: routed warm is {routed_ratio:.2f}x direct (> 2.0x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
