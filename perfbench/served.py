"""The ``serve-routed`` workload: a closed loop through the multi-host stack.

Topology: ``repro route --tcp`` in front of two ``repro serve --tcp``
backends, each a separate process with a fresh cache directory.  One client
process (this one) keeps two connections busy with single-point ``certify``
calls (depth 2, ``either``, removal n=1) whose datasets travel inline at
three payload sizes: iris, mammography and MNIST-1-7 binary at scale 0.05.
About nine requests in ten repeat a working set that set-up made warm
(verdict-cache reads); the rest are novel points jittered by the workload
seed (a learner run, a cache insert and a replication probe).

Set-up, the span of one fleet's life before its first timed request, is
repeated: the timed phase is cut into segments and each segment gets a
fresh fleet.  After the timed phase every served verdict is compared with
the cold in-process verdict of the same (dataset, point, model).
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common
import spans as span_lib

DATASETS = ("iris", "mammography", "mnist17-small")
MODEL = "removal-1"
BACKENDS = 2
CONNECTIONS = 2
WORKING_SET_PER_DATASET = 9
#: Slots per dataset in one round of the request stream: the working set
#: plus one novel point, so one request in ten is a write.
ROUND_PER_DATASET = WORKING_SET_PER_DATASET + 1
#: Rounds per dataset in one cycle of the stream: the two small payloads
#: make 80% of the requests and the 0.5 MB MNIST payload 20%.
WEIGHT = {"iris": 2, "mammography": 2, "mnist17-small": 1}
#: Fresh fleets per untraced run; the timed phase is split evenly over them.
SEGMENTS = 3
#: Client-side wall limit of one request (the outside watchdog).
REQUEST_TIMEOUT_S = 30.0
#: Wall limit for one process of the fleet to answer a ping.
START_LIMIT_S = 60.0
#: Calls of ``shard_key`` timed per payload in the traced run.
SHARD_KEY_REPEATS = 7

#: Client-side public calls wrapped in the traced run.
TRACED_CALLS = (
    ("repro.service.client:CertificationClient", "certify_point", "client.certify_point"),
    ("repro.service.client", "dataset_to_wire", "service.dataset_to_wire"),
    ("repro.service.client", "encode_frame", "service.encode_frame"),
)


# ------------------------------------------------------------------ inputs
@dataclass
class Payloads:
    """The generated datasets, their working sets and the request stream."""

    splits: Dict[str, object]
    working_set: Dict[str, List[Tuple[float, ...]]]
    rng: random.Random
    seen: set = field(default_factory=set)
    pending: List[Tuple[str, int]] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def build(cls, seed: int, refs: Dict[str, List[str]]) -> "Payloads":
        rng = random.Random(seed)
        splits = {key: common.load_split(key) for key in DATASETS}
        working_set = {}
        for key in DATASETS:
            chosen = common.stratified_choice(
                rng, refs[f"{key}/{MODEL}"], WORKING_SET_PER_DATASET
            )
            working_set[key] = [tuple(map(float, splits[key].test.X[i])) for i in chosen]
        payloads = cls(splits, working_set, rng)
        payloads.seen = {(key, point) for key in DATASETS for point in working_set[key]}
        return payloads

    def _jitter(self, key: str) -> Tuple[float, ...]:
        split = self.splits[key]
        base = list(map(float, split.test.X[self.rng.randrange(len(split.test))]))
        if key.startswith("mnist"):  # boolean pixels: flip two of them
            for pixel in self.rng.sample(range(len(base)), 2):
                base[pixel] = 1.0 - base[pixel]
        else:
            for feature in range(len(base)):
                spread = float(split.train.X[:, feature].std()) or 1.0
                base[feature] += self.rng.gauss(0.0, 0.02 * spread)
        return tuple(base)

    def next_request(self) -> Tuple[str, Tuple[float, ...], bool]:
        """``(dataset, point, novel)``: the seeded request stream.

        Requests come in shuffled rounds: per dataset, every working-set
        point once and one novel point.  The mix of datasets, reads and
        writes is then the same in every run; the seed picks the points and
        the order.
        """
        with self.lock:
            if not self.pending:
                self.pending = [
                    (key, slot)
                    for key in DATASETS
                    for _ in range(WEIGHT[key])
                    for slot in range(ROUND_PER_DATASET)
                ]
                self.rng.shuffle(self.pending)
            key, slot = self.pending.pop()
            if slot < WORKING_SET_PER_DATASET:
                return key, self.working_set[key][slot], False
            while True:
                point = self._jitter(key)
                if (key, point) not in self.seen:
                    self.seen.add((key, point))
                    return key, point, True


# ------------------------------------------------------------------- fleet
def _free_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def _backend_addresses(shard_keys: Dict[str, str]) -> List[str]:
    """Free ports on which the hash ring gives the MNIST payload a backend
    of its own and the two small payloads the other one.

    Ring placement hashes the addresses, so without this the split of
    datasets over backends, and with it the load balance, would change
    from run to run.
    """
    from repro.fleet.ring import HashRing

    for _ in range(500):
        addresses = [_free_address() for _ in range(BACKENDS)]
        if len(set(addresses)) < BACKENDS:
            continue
        ring = HashRing(addresses)
        owners = {key: ring.primary(shard) for key, shard in shard_keys.items()}
        if owners["mnist17-small"] != owners["iris"] == owners["mammography"]:
            return addresses
    raise RuntimeError("no port pair gives the MNIST payload its own backend")


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Fleet:
    """Two ``repro serve --tcp`` backends behind one ``repro route --tcp``."""

    def __init__(self, work_dir: Path, shard_keys: Dict[str, str]) -> None:
        self.work_dir = work_dir
        self.procs: List[subprocess.Popen] = []
        self.backends = _backend_addresses(shard_keys)
        self.router = _free_address()
        try:
            for index, address in enumerate(self.backends):
                cache = work_dir / f"cache-{index}"
                self._spawn(
                    "serve", "--tcp", address, "--cache-dir", str(cache), "--no-shared-memory"
                )
            for address in self.backends:
                self._wait(address)
            backend_args = [arg for address in self.backends for arg in ("--backend", address)]
            self._spawn(
                "route", "--tcp", self.router, *backend_args,
                "--request-timeout", str(REQUEST_TIMEOUT_S),
            )
            self._wait(self.router)
        except BaseException:
            self.close()
            raise

    def _spawn(self, *args: str) -> None:
        self.procs.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                cwd=str(common.ROOT),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )

    def _wait(self, address: str) -> None:
        from repro.service import wait_for_server

        for proc in self.procs:
            if proc.poll() is not None:
                raise RuntimeError(f"fleet process exited with {proc.returncode}")
        wait_for_server(address, timeout=START_LIMIT_S)

    def snapshot(self) -> Tuple[List[dict], dict]:
        """Registry snapshots of the backends and of the router."""
        from repro.service import CertificationClient

        backends = []
        for address in self.backends:
            with CertificationClient(address, request_timeout=REQUEST_TIMEOUT_S) as client:
                backends.append(client.metrics()["metrics"])
        with CertificationClient(self.router, request_timeout=REQUEST_TIMEOUT_S) as client:
            router = client.metrics()["metrics"]
        return backends, router

    def peak_rss_kb(self) -> int:
        return sum(_peak_rss_kb(proc.pid) for proc in self.procs)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(self.work_dir, ignore_errors=True)


# --------------------------------------------------------------- the loop
@dataclass
class Request:
    dataset: str
    point: Tuple[float, ...]
    novel: bool
    seconds: float
    status: str  # a verdict, or "error"
    certified_class: Optional[int] = None
    max_disjuncts: int = 0
    detail: str = ""
    op_id: int = -1


def _client(address: str):
    from repro.service import CertificationClient

    return CertificationClient(
        address, request_timeout=REQUEST_TIMEOUT_S, **common.ENGINE_CONFIG
    )


def _certify(client, payloads: Payloads, key: str, point, novel: bool, model) -> Request:
    started = time.perf_counter()
    try:
        result = client.certify_point(payloads.splits[key].train, point, model)
    except Exception as error:  # a failed request: counted, never retried
        return Request(key, point, novel, time.perf_counter() - started, "error",
                       detail=f"{type(error).__name__}: {error}")
    return Request(
        key, point, novel, time.perf_counter() - started, result.status.value,
        result.certified_class, int(result.max_disjuncts),
    )


def closed_loop(
    address_of, payloads: Payloads, model, seconds: float,
    schedule: Optional[Sequence[Tuple[str, tuple, bool]]] = None,
    recorder: Optional[span_lib.SpanRecorder] = None,
) -> Tuple[List[Request], float]:
    """``CONNECTIONS`` clients, each sending its next request when the last
    one returns, until ``seconds`` pass (or ``schedule`` runs out).

    ``address_of(dataset)`` picks the endpoint; a connection that breaks is
    replaced before the next request.
    """
    done: List[Request] = []
    lock = threading.Lock()
    op_ids = itertools.count()
    cursor = iter(schedule) if schedule is not None else None
    started = time.perf_counter()
    deadline = started + seconds

    def next_request():
        if cursor is not None:
            with lock:
                return next(cursor, None)
        if time.perf_counter() >= deadline:
            return None
        return payloads.next_request()

    def worker(connection: int) -> None:
        clients: Dict[str, object] = {}
        try:
            while True:
                request = next_request()
                if request is None:
                    return
                key, point, novel = request
                with lock:
                    op_id = next(op_ids)
                if recorder is not None:
                    recorder.set_op(op_id)
                address = address_of(key)
                client = clients.get(address)
                if client is not None and client.broken:
                    client.close()
                    client = None
                if client is None:
                    tick = time.perf_counter()
                    try:
                        client = clients[address] = _client(address)
                    except Exception as error:  # counted as a failed request
                        record = Request(key, point, novel, time.perf_counter() - tick,
                                         "error", detail=f"connect: {error!r}")
                        clients.pop(address, None)
                if client is not None:
                    record = _certify(client, payloads, key, point, novel, model)
                record.op_id = op_id
                with lock:
                    done.append(record)
        finally:
            for client in clients.values():
                client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, time.perf_counter() - started


# ------------------------------------------------------------------ phases
@dataclass
class Segment:
    setup_s: float
    requests: List[Request]
    wall_s: float
    rss_kb: int
    backend_delta: dict
    router_delta: dict


def _start_fleet(payloads: Payloads, shard_keys, model, work_dir: Path) -> Tuple[Fleet, float]:
    """Bring up a fleet and warm its working set; returns it with the set-up time."""
    started = time.perf_counter()
    fleet = Fleet(work_dir, shard_keys)
    try:
        client = _client(fleet.router)
        try:
            for key in DATASETS:
                for point in payloads.working_set[key]:
                    client.certify_point(payloads.splits[key].train, point, model)
        finally:
            client.close()
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - started


def _timed_segment(
    fleet: Fleet, setup_s: float, payloads, model, seconds, recorder=None
) -> Segment:
    """The closed loop through the router, with the fleet's series deltas."""
    backends_before, router_before = fleet.snapshot()
    requests, wall = closed_loop(
        lambda key: fleet.router, payloads, model, seconds, recorder=recorder
    )
    backends_after, router_after = fleet.snapshot()
    backend_delta = common.merge_deltas(
        common.snapshot_delta(after, before)
        for after, before in zip(backends_after, backends_before)
    )
    return Segment(
        setup_s, requests, wall, fleet.peak_rss_kb(), backend_delta,
        common.snapshot_delta(router_after, router_before),
    )


def check_served(requests: Sequence[Request], payloads: Payloads, model) -> dict:
    """Compare every served verdict with the cold in-process verdict."""
    from repro.api import CertificationEngine

    engines = {key: CertificationEngine(**common.ENGINE_CONFIG) for key in DATASETS}
    expected: Dict[Tuple[str, tuple], Tuple[str, Optional[int]]] = {}
    failures = []
    for request in requests:
        if request.status == "error":
            failures.append(f"{request.dataset}: {request.detail}")
            continue
        key = (request.dataset, request.point)
        if key not in expected:
            result = engines[request.dataset].certify_point(
                payloads.splits[request.dataset].train, request.point, model
            )
            expected[key] = (result.status.value, result.certified_class)
        if expected[key] != (request.status, request.certified_class):
            failures.append(
                f"{request.dataset}: served {request.status}/{request.certified_class}, "
                f"in-process {expected[key][0]}/{expected[key][1]}"
            )
    return {"failures": failures, "points_checked": len(expected)}


def _e2e(segments: Sequence[Segment]) -> Tuple[dict, dict]:
    requests = [r for segment in segments for r in segment.requests]
    wall = sum(segment.wall_s for segment in segments)
    decided = sum(r.status in common.DECIDED for r in requests)
    robust = sum(r.status == "robust" for r in requests)
    latency = common.latency_summary([r.seconds for r in requests])
    hits = common.latency_summary([r.seconds for r in requests if not r.novel])
    misses = common.latency_summary([r.seconds for r in requests if r.novel])
    metrics = {
        "setup_s": common.median([segment.setup_s for segment in segments]),
        "decided_pts_per_s": decided / wall,
        "point_p50_ms": latency["p50_ms"],
        "point_tail_ms": latency["tail_ms"],
        "certified_frac": robust / len(requests),
        "peak_rss_mb": max(segment.rss_kb for segment in segments) / 1024.0,
    }
    details = {
        "req_per_s": len(requests) / wall,
        "latency": latency,
        "hit_latency": hits,
        "miss_latency": misses,
        "hit_p50_ms_by_dataset": {
            key: 1000.0 * common.median(
                [r.seconds for r in requests if r.dataset == key and not r.novel]
            )
            for key in DATASETS
        },
        "requests": len(requests),
        "novel_requests": sum(r.novel for r in requests),
        "setup_samples_s": [segment.setup_s for segment in segments],
        "timed_s": wall,
    }
    return metrics, details


def _per_layer(
    segment: Segment, untraced: Segment, replay: List[Request], spans,
    shard_key_ms: Dict[str, float],
) -> dict:
    delta = segment.backend_delta
    requests = segment.requests
    n = len(requests)
    layers = common.learner_layers(delta)
    box_s = sum(
        common.phase_seconds(delta, phase, "box|flip-box")
        for phase in ("pure_exit", "best_split", "filter", "cprob_exit")
    )
    disjuncts_s = sum(
        common.phase_seconds(delta, phase, "disjuncts|flip-disjuncts")
        for phase in ("pure_exit", "best_split", "disjunct_split", "cprob_exit")
    )
    certify_s = common.series_sum(delta, "certify_seconds", "sum")
    lookups = common.series_sum(delta, "cache_lookups_total")
    server_op_s = common.series_sum(delta, "server_op_seconds", "sum", op="certify")
    sqlite_s = common.series_sum(delta, "cache_sqlite_seconds", "sum")
    times = span_lib.self_times(spans)
    encode_s = times.get("service.dataset_to_wire", 0.0) + times.get("service.encode_frame", 0.0)
    # Router hop: the same working-set requests, routed versus sent straight
    # to the owning backend.
    routed_hits = [r.seconds for r in requests if not r.novel and r.status != "error"]
    direct_hits = [r.seconds for r in replay if not r.novel and r.status != "error"]
    hop_s = common.median(routed_hits) - common.median(direct_hits)
    mean_hop_s = sum(routed_hits) / len(routed_hits) - sum(direct_hits) / len(direct_hits)
    routed = common.series_sum(segment.router_delta, "router_requests_total")
    busiest = max(
        (series.get("value", 0.0)
         for series in segment.router_delta.get("router_requests_total", {}).get("series", ())),
        default=0.0,
    )
    layers.update(
        {
            "verify.box_s": box_s,
            "verify.box_decided": common.series_sum(
                delta, "certify_seconds", "count", domain="box|flip-box", outcome="robust"
            ),
            "verify.disjuncts_s": disjuncts_s,
            "verify.disjuncts_peak": float(
                max((r.max_disjuncts for r in requests if r.novel), default=0)
            ),
            "verify.resource_exhausted": common.series_sum(
                delta, "certify_seconds", "count", outcome="resource_exhausted"
            ),
            "poisoning.flip_s": 0.0,
            # certify_seconds starts after the concrete prediction.
            "api.engine_self_s": certify_s - box_s - disjuncts_s,
            "runtime.cache_hit_ratio": (
                common.series_sum(delta, "cache_lookups_total", result="hit") / lookups
                if lookups else 0.0
            ),
            "runtime.cache_sqlite_s": sqlite_s,
            "runtime.learner_invocations_per_req": (
                common.series_sum(delta, "learner_invocations_total") / n
            ),
            "service.server_op_p50_ms": 1000.0 * common.histogram_percentile(
                delta, "server_op_seconds", 50.0, op="certify"
            ),
            "fleet.router_hop_ms": 1000.0 * hop_s,
            "fleet.replication_replicated": common.series_sum(
                segment.router_delta, "router_replication_total", outcome="replicated"
            ),
            "fleet.replication_unfilled": common.series_sum(
                segment.router_delta, "router_replication_total", outcome="unfilled"
            ),
            "fleet.backend_share_max": busiest / routed if routed else 0.0,
            "telemetry.trace_overhead_frac": (segment.wall_s / len(requests))
            / (untraced.wall_s / len(untraced.requests)) - 1.0,
        }
    )
    encode_by_op: Dict[int, float] = {}
    for name, start, end, _parent, op_id in spans:
        if name in ("service.dataset_to_wire", "service.encode_frame"):
            encode_by_op[op_id] = encode_by_op.get(op_id, 0.0) + end - start
    for key in DATASETS:
        per_request = [encode_by_op.get(r.op_id, 0.0) for r in requests if r.dataset == key]
        layers[f"service.wire_encode_ms.{key}"] = 1000.0 * common.median(per_request)
        layers[f"fleet.shard_key_ms.{key}"] = shard_key_ms[key]
    # Attribution of the summed request latency to layers.
    total = sum(r.seconds for r in requests)
    core = layers["core.concrete_predict_s"]
    shares = {
        "core": core,
        "verify": box_s + disjuncts_s,
        "api": max(certify_s - box_s - disjuncts_s, 0.0),
        "runtime": sqlite_s,
        "service": encode_s + max(server_op_s - core - certify_s - sqlite_s, 0.0),
        "fleet": max(mean_hop_s, 0.0) * n,
    }
    for layer, seconds in shares.items():
        layers[f"attr.{layer}_frac"] = seconds / total
    layers["attr.unattributed_frac"] = 1.0 - sum(shares.values()) / total
    return layers


def _shard_key_ms(wires: Dict[str, dict]) -> Dict[str, float]:
    """Median wall of the router's ``shard_key`` on each payload."""
    from repro.fleet.ring import shard_key

    timings = {}
    for key, wire in wires.items():
        samples = []
        for _ in range(SHARD_KEY_REPEATS):
            tick = time.perf_counter()
            shard_key(wire)
            samples.append(time.perf_counter() - tick)
        timings[key] = 1000.0 * common.median(samples)
    return timings


def run(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    from repro.fleet.ring import HashRing, shard_key
    from repro.service.protocol import dataset_to_wire

    refs = common.load_refs()
    payloads = Payloads.build(seed, refs)
    model = common.make_model(MODEL)
    wires = {key: dataset_to_wire(payloads.splits[key].train) for key in DATASETS}
    shard_keys = {key: shard_key(wire) for key, wire in wires.items()}
    work_root = common.WORK_DIR / "fleets" / f"{os.getpid()}"
    segments: List[Segment] = []
    metrics: dict
    spans: list = []
    try:
        if not trace:
            for index in range(SEGMENTS):
                fleet, setup_s = _start_fleet(payloads, shard_keys, model, work_root / str(index))
                try:
                    segments.append(
                        _timed_segment(fleet, setup_s, payloads, model, seconds / SEGMENTS)
                    )
                finally:
                    fleet.close()
            metrics, details = _e2e(segments)
        else:
            fleet, setup_s = _start_fleet(payloads, shard_keys, model, work_root / "traced")
            try:
                requests, wall = closed_loop(lambda key: fleet.router, payloads, model, seconds)
                untraced = Segment(setup_s, requests, wall, fleet.peak_rss_kb(), {}, {})
                recorder = span_lib.SpanRecorder()
                for target, attribute, name in TRACED_CALLS:
                    recorder.wrap(target, attribute, name)
                try:
                    traced = _timed_segment(
                        fleet, setup_s, payloads, model, seconds, recorder=recorder
                    )
                finally:
                    recorder.unwrap_all()
                ring = HashRing(fleet.backends)
                owner = {key: ring.primary(shard_keys[key]) for key in DATASETS}
                replay, _ = closed_loop(
                    owner.__getitem__, payloads, model, 0.0,
                    schedule=[(r.dataset, r.point, r.novel) for r in traced.requests],
                )
            finally:
                fleet.close()
            spans = recorder.spans
            metrics = _per_layer(traced, untraced, replay, spans, _shard_key_ms(wires))
            segments = [untraced, traced]
            _, details = _e2e(segments)
            details["replay_requests"] = len(replay)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    served = [r for segment in segments for r in segment.requests]
    check = check_served(served, payloads, model)
    details["verdicts"] = check
    details["verdict_mix"] = {
        status: sum(r.status == status for r in served) for status in {r.status for r in served}
    }
    return {
        "attempted": len(served),
        "failed": len(check["failures"]),
        "metrics": metrics,
        "details": details,
        "spans": spans,
    }
