"""In-process workloads: ``paper-small`` and ``mnist-scale``.

Each block of work, one (dataset, threat model) pair with its test points,
runs in a fresh worker process: a new engine, no split plans, nothing
cached, so every block is cold and no drift carries over from the previous
one.  The parent sends one op (one test point) at a time and waits for it
with a deadline; a worker that overruns is killed, the op counts as failed
and a new worker takes over the rest of the block.  That watchdog sits
outside the program because the engine's own ``timeout_seconds`` does not
bound every phase.
"""

from __future__ import annotations

import multiprocessing
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import common
import spans as span_lib

#: Workers are forked, not spawned: spawning starts multiprocessing's
#: resource tracker, a helper process that outlives the run.  The parent
#: never imports :mod:`repro`, so a forked worker starts as cold as a new
#: interpreter.
FORK = multiprocessing.get_context("fork")

#: Wall limit of one op (one certified point), enforced from outside.
OP_LIMIT_S = 30.0
#: Wall limit for a worker to import, generate its dataset and build its engine.
SETUP_LIMIT_S = 60.0
#: After this much wall since the run started, remaining ops are not sent
#: (they count as failed), so a run always ends well inside three minutes.
RUN_LIMIT_S = 140.0

#: The public calls wrapped in the traced run: (target, attribute, span name
#: prefixed by its layer).
TRACED_CALLS = (
    ("repro.api.engine:CertificationEngine", "certify_point", "api.certify_point"),
    ("repro.api.engine:CertificationEngine", "verify", "api.verify"),
    ("repro.core.trace_learner:TraceLearner", "predict", "core.predict"),
    ("repro.verify.abstract_learner:BoxAbstractLearner", "run", "verify.box"),
    (
        "repro.verify.disjunctive_learner:DisjunctiveAbstractLearner",
        "run",
        "verify.disjuncts",
    ),
)


#: Per-layer metrics of the serving stack, which in-process runs never reach.
NOT_REACHED = (
    "runtime.cache_hit_ratio",
    "runtime.cache_sqlite_s",
    "runtime.learner_invocations_per_req",
    "service.server_op_p50_ms",
    "service.wire_encode_ms.iris",
    "service.wire_encode_ms.mammography",
    "service.wire_encode_ms.mnist17-small",
    "fleet.router_hop_ms",
    "fleet.shard_key_ms.iris",
    "fleet.shard_key_ms.mammography",
    "fleet.shard_key_ms.mnist17-small",
    "fleet.replication_replicated",
    "fleet.replication_unfilled",
    "fleet.backend_share_max",
)


#: Nominal wall of one cold pass on a 2-core host (a `paper-small` pass took
#: 13-30 s there as the host's speed changed).  A run makes
#: ``round(seconds / PASS_SECONDS)`` passes (at least one): a count that
#: does not depend on how fast the host happens to be, so every run of a
#: workload has the same number of samples and the same tail percentile.
PASS_SECONDS = {"paper-small": 15.0, "mnist-scale": 10.0}

#: Fewest set-up samples behind ``setup_s``.  A pass of ``mnist-scale`` has
#: one block, so its runs start extra workers that only set up and end.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Block:
    dataset: str
    model: str
    indices: Tuple[int, ...]


def paper_small_blocks(rng: random.Random) -> List[Block]:
    """All 30 iris test points and the first 30 mammography test points,
    each at removal n=1, removal n=2 and label-flip n=1."""
    blocks = [
        Block(dataset, model, tuple(rng.sample(range(30), 30)))
        for dataset in ("iris", "mammography")
        for model in ("removal-1", "removal-2", "flip-1")
    ]
    rng.shuffle(blocks)
    return blocks


def mnist_scale_blocks(rng: random.Random) -> List[Block]:
    """The first 60 MNIST-1-7 test points at removal n=192."""
    return [Block("mnist17", "removal-192", tuple(rng.sample(range(60), 60)))]


BLOCKS = {"paper-small": paper_small_blocks, "mnist-scale": mnist_scale_blocks}


# ------------------------------------------------------------------ worker
def worker_main(conn, dataset: str, model_key: str, traced: bool) -> None:
    """Child process: certify the points the parent sends, one at a time."""
    import resource

    common.ensure_src_path()
    from repro.api import CertificationEngine
    from repro.core import split_plan
    from repro.telemetry import metrics

    recorder: Optional[span_lib.SpanRecorder] = None
    if traced:
        recorder = span_lib.SpanRecorder()
        for target, attribute, name in TRACED_CALLS:
            recorder.wrap(target, attribute, name)
    split = common.load_split(dataset)
    model = common.make_model(model_key)
    split_plan.clear_plans()
    engine = CertificationEngine(**common.ENGINE_CONFIG)
    registry = metrics.get_registry()
    before = registry.snapshot()
    conn.send(("ready",))
    while True:
        message = conn.recv()
        if message[0] == "end":
            break
        _, index, op_id = message
        if recorder is not None:
            recorder.set_op(op_id)
        try:
            result = engine.certify_point(split.train, split.test.X[index], model)
        except Exception:  # reported to the parent, which counts the op failed
            conn.send(("error", traceback.format_exc(limit=5)))
            continue
        conn.send(
            (
                "done",
                result.status.value,
                result.domain,
                result.certified_class,
                int(result.max_disjuncts),
            )
        )
    delta = common.snapshot_delta(registry.snapshot(), before)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send(("end", recorder.spans if recorder else [], delta, rss_kb))
    conn.close()


# ------------------------------------------------------------------ parent
@dataclass
class OpRecord:
    dataset: str
    model: str
    index: int
    seconds: float
    status: str  # a verdict, or "error" / "overrun" / "crashed" / "skipped"
    domain: str = ""
    certified_class: Optional[int] = None
    max_disjuncts: int = 0
    detail: str = ""


@dataclass
class PassResult:
    ops: List[OpRecord] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    peak_rss_kb: int = 0
    spans: List[list] = field(default_factory=list)
    deltas: List[dict] = field(default_factory=list)


class _Worker:
    def __init__(self, block: Block, traced: bool) -> None:
        self.conn, child = FORK.Pipe()
        started = time.perf_counter()
        self.proc = FORK.Process(
            target=worker_main, args=(child, block.dataset, block.model, traced), daemon=True
        )
        self.proc.start()
        child.close()
        if not self.conn.poll(SETUP_LIMIT_S):
            self.kill()
            raise RuntimeError(f"worker for {block} not ready within {SETUP_LIMIT_S}s")
        self.conn.recv()
        self.setup_s = time.perf_counter() - started

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()

    def finish(self, result: PassResult) -> None:
        self.conn.send(("end",))
        if self.conn.poll(SETUP_LIMIT_S):
            _, spans, delta, rss_kb = self.conn.recv()
            result.spans.extend(spans)
            result.deltas.append(delta)
            result.peak_rss_kb = max(result.peak_rss_kb, rss_kb)
        self.proc.join(SETUP_LIMIT_S)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def run_pass(
    blocks: Sequence[Block], traced: bool, run_started: float, next_op_id: int = 0
) -> PassResult:
    """Certify every block once, each in a fresh worker."""
    result = PassResult()
    op_id = next_op_id
    for block in blocks:
        worker: Optional[_Worker] = _Worker(block, traced)
        result.setups.append(worker.setup_s)
        block_started = time.perf_counter()
        for index in block.indices:
            op_id += 1
            if time.perf_counter() - run_started > RUN_LIMIT_S:
                result.ops.append(OpRecord(block.dataset, block.model, index, 0.0, "skipped"))
                continue
            if worker is None:
                worker = _Worker(block, traced)
            sent = time.perf_counter()
            worker.conn.send(("op", index, op_id))
            try:
                reply = worker.conn.recv() if worker.conn.poll(OP_LIMIT_S) else ("overrun",)
            except EOFError:  # the worker died mid-op
                reply = ("crashed",)
            seconds = time.perf_counter() - sent
            if reply[0] in ("overrun", "crashed"):
                worker.kill()
                worker = None
                result.ops.append(OpRecord(block.dataset, block.model, index, seconds, reply[0]))
                continue
            if reply[0] == "error":
                result.ops.append(
                    OpRecord(block.dataset, block.model, index, seconds, "error", detail=reply[1])
                )
                continue
            _, status, domain, certified, disjuncts = reply
            result.ops.append(
                OpRecord(block.dataset, block.model, index, seconds, status, domain,
                         certified, disjuncts)
            )
        result.timed_s += time.perf_counter() - block_started
        if worker is not None:
            worker.finish(result)
    return result


def extra_setups(block: Block, count: int) -> List[float]:
    """Set-up walls of ``count`` workers for ``block`` that certify nothing."""
    samples = []
    for _ in range(count):
        worker = _Worker(block, False)
        samples.append(worker.setup_s)
        worker.finish(PassResult())
    return samples


def check_verdicts(ops: Sequence[OpRecord], refs: Dict[str, List[str]]) -> dict:
    """Failures and precision changes against the committed references."""
    failures, precision_gains, other_changes = [], [], []
    for op in ops:
        reference = refs[f"{op.dataset}/{op.model}"][op.index]
        where = f"{op.dataset}/{op.model}#{op.index}"
        if op.status in ("error", "overrun", "crashed", "skipped"):
            failures.append(f"{where}: {op.status} {op.detail}".strip())
        elif reference == "robust" and op.status != "robust":
            failures.append(f"{where}: robust reference now {op.status}")
        elif reference != "robust" and op.status == "robust":
            precision_gains.append(f"{where}: {reference} -> robust")
        elif op.status != reference:
            other_changes.append(f"{where}: {reference} -> {op.status}")
    return {
        "failures": failures,
        "precision_gains": precision_gains,
        "other_changes": other_changes,
    }


def _verdict_mix(ops: Sequence[OpRecord]) -> Dict[str, int]:
    mix: Dict[str, int] = {}
    for op in ops:
        mix[op.status] = mix.get(op.status, 0) + 1
    return mix


def end_to_end(result: PassResult) -> Tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and the latency summary."""
    ops = result.ops
    decided = sum(op.status in common.DECIDED for op in ops)
    robust = sum(op.status == "robust" for op in ops)
    latency = common.latency_summary([op.seconds for op in ops if op.status != "skipped"])
    return {
        "setup_s": common.median(result.setups),
        "decided_pts_per_s": decided / result.timed_s if result.timed_s else 0.0,
        "point_p50_ms": latency["p50_ms"],
        "point_tail_ms": latency["tail_ms"],
        "certified_frac": robust / len(ops) if ops else 0.0,
        "peak_rss_mb": result.peak_rss_kb / 1024.0,
    }, latency


def per_layer(traced: PassResult, untraced: PassResult) -> dict:
    """Layer figures of the traced pass: spans plus production-series deltas."""
    delta = common.merge_deltas(traced.deltas)
    times = span_lib.self_times(traced.spans)
    layers = common.learner_layers(delta)
    ops = traced.ops
    layers.update(
        {
            "verify.box_s": times.get("verify.box", 0.0),
            "verify.box_decided": float(
                sum(op.status == "robust" and op.domain in ("box", "flip-box") for op in ops)
            ),
            "verify.disjuncts_s": times.get("verify.disjuncts", 0.0),
            "verify.disjuncts_peak": float(max((op.max_disjuncts for op in ops), default=0)),
            "verify.resource_exhausted": float(
                sum(op.status == "resource_exhausted" for op in ops)
            ),
            "poisoning.flip_s": sum(op.seconds for op in ops if op.model.startswith("flip")),
            "api.engine_self_s": times.get("api.certify_point#self", 0.0)
            + times.get("api.verify#self", 0.0),
            "telemetry.trace_overhead_frac": traced.timed_s / untraced.timed_s - 1.0,
        }
    )
    # No runtime, service or fleet layer sits on this path: nothing to read.
    for name in NOT_REACHED:
        layers[name] = 0.0
    wall = traced.timed_s
    attributed = {"api": 0.0, "core": 0.0, "verify": 0.0, "runtime": 0.0, "service": 0.0,
                  "fleet": 0.0}
    for _, _, name in TRACED_CALLS:  # a span's layer is its name's prefix
        attributed[name.split(".")[0]] += times.get(f"{name}#self", 0.0)
    for layer, seconds in attributed.items():
        layers[f"attr.{layer}_frac"] = seconds / wall
    layers["attr.unattributed_frac"] = 1.0 - sum(attributed.values()) / wall
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Run ``workload``; return its metrics, op counts and details."""
    refs = common.load_refs()
    blocks = BLOCKS[workload](random.Random(seed))
    try:
        if trace:
            untraced = run_pass(blocks, False, started)
            traced = run_pass(blocks, True, started, next_op_id=len(untraced.ops))
            passes = [untraced, traced]
            measured = traced
        else:
            passes = [
                run_pass(blocks, False, started)
                for _ in range(max(1, round(seconds / PASS_SECONDS[workload])))
            ]
            measured = PassResult(
                ops=[op for p in passes for op in p.ops],
                setups=[s for p in passes for s in p.setups],
                timed_s=sum(p.timed_s for p in passes),
                peak_rss_kb=max(p.peak_rss_kb for p in passes),
            )
            measured.setups += extra_setups(blocks[0], SETUP_SAMPLES - len(measured.setups))
    finally:
        # Every worker has ended by now unless an exception cut a pass
        # short; then the live one is killed and reaped before it goes on.
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
    all_ops = [op for p in passes for op in p.ops]
    check = check_verdicts(all_ops, refs)
    e2e, latency = end_to_end(measured)
    details = {
        "passes": len(passes),
        "verdict_mix": _verdict_mix(measured.ops),
        "latency": latency,
        "setup_samples_s": measured.setups,
        "timed_s": measured.timed_s,
        "verdicts": check,
        "ops": [
            [op.dataset, op.model, op.index, round(op.seconds, 6), op.status, op.domain]
            for op in all_ops
        ],
    }
    metrics = per_layer(traced, untraced) if trace else e2e
    return {
        "attempted": len(all_ops),
        "failed": len(check["failures"]),
        "metrics": metrics,
        "details": details,
        "spans": traced.spans if trace else [],
    }
