"""The certification daemon: one warm runtime serving many clients.

:class:`CertificationServer` binds a Unix-domain socket (or, with
``tcp="HOST:PORT"``, a TCP socket — the fleet transport) and serves the
JSON-lines protocol of :mod:`repro.service.protocol` from one long-lived
:class:`~repro.runtime.CertificationRuntime`:

* datasets are decoded **once** (by content) and stay published in the
  shared-memory plane, so repeat requests skip array decoding and workers
  attach zero-copy;
* engines are held in a small LRU keyed by their wire configuration, so
  request plans (the per-(dataset, model) initial abstractions) stay warm
  across requests;
* the persistent verdict cache is open for the server's lifetime — a second
  identical batch from any client answers with **zero** learner invocations;
* concurrent requests flow through each engine's
  :class:`~repro.api.scheduler.CertificationScheduler`, so N clients asking
  the same in-flight question cost one learner invocation per distinct point.

Each client connection is served by its own thread
(:class:`socketserver.ThreadingMixIn`); ``SIGTERM``/``SIGINT`` shut the
server down cleanly (socket file removed, cache committed and closed).

In a fleet (see :mod:`repro.fleet`) each server owns the datasets that
the router's hash ring places on it; servers never talk to each other, and
each one's verdict cache answers only its own shard's repeat traffic.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import socketserver
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple, Union

import repro
from repro.api.engine import CertificationEngine
from repro.api.report import SCHEMA_VERSION
from repro.api.request import CertificationRequest
from repro.core.dataset import Dataset
from repro.runtime.fingerprint import fingerprint_dataset
from repro.runtime.runtime import CertificationRuntime
from repro.service.protocol import (
    METRICS_VERSION,
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    ProtocolError,
    dataset_from_wire,
    encode_frame,
    engine_config_from_wire,
    format_address,
    model_from_wire,
    parse_address,
    points_from_wire,
    read_frame,
)
from repro.telemetry import events, metrics, tracing
from repro.utils.validation import ValidationError

_OP_REQUESTS = metrics.counter(
    "server_requests_total", "Protocol operations served.", labelnames=("op",)
)
_OP_SECONDS = metrics.histogram(
    "server_op_seconds",
    "Wall seconds per protocol operation (request frame to response frame).",
    labelnames=("op",),
)


class _ThreadingUnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    #: Set by :class:`CertificationServer` so handlers can reach it.
    certification_server: "CertificationServer"


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """The fleet transport: the same handler over TCP.

    ``allow_reuse_address`` lets a restarted backend rebind its port while
    old connections linger in TIME_WAIT — the normal state right after a
    failover.
    """

    daemon_threads = True
    allow_reuse_address = True
    certification_server: "CertificationServer"


class _ClientHandler(socketserver.StreamRequestHandler):
    """One connection: read request frames, dispatch, write response frames."""

    def setup(self) -> None:
        # TCP connections get keepalive (detect silently-dead routers/clients
        # under long certifications) and no Nagle delay (frames are small and
        # latency-sensitive); both are meaningless on AF_UNIX.
        if self.request.family in (socket.AF_INET, socket.AF_INET6):
            self.request.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised via socket tests
        server: CertificationServer = self.server.certification_server
        while True:
            try:
                frame = read_frame(self.rfile)
            except ProtocolError as error:
                self._write({"ok": False, "error": _error_payload(error)})
                return
            if frame is None:
                return
            request_id = frame.get("id")
            op = frame.get("op")
            params = frame.get("params") or {}
            # The optional correlation id (protocol minor 1).  Binding it to
            # this handler thread lets every event, metric merge, and root
            # span under this operation carry the id the client minted.
            rid = frame.get("rid")
            try:
                with events.bind_request(rid if isinstance(rid, str) else None):
                    if op == "certify_stream":
                        self._handle_stream(server, request_id, params)
                    elif op == "shutdown":
                        self._write({"id": request_id, "ok": True, "result": {"stopping": True}})
                        server.request_shutdown()
                        return
                    else:
                        result = server.dispatch(op, params)
                        self._write({"id": request_id, "ok": True, "result": result})
            except BrokenPipeError:
                return
            except Exception as error:  # noqa: BLE001 - protocol boundary
                try:
                    self._write(
                        {"id": request_id, "ok": False, "error": _error_payload(error)}
                    )
                except BrokenPipeError:
                    return

    def _handle_stream(self, server: "CertificationServer", request_id, params) -> None:
        for index, result in server.stream(params):
            self._write(
                {
                    "id": request_id,
                    "event": "result",
                    "index": index,
                    "result": result.to_dict(),
                }
            )
        self._write(
            {
                "id": request_id,
                "event": "end",
                "report": server.last_stream_report(params),
            }
        )

    def _write(self, payload: dict) -> None:
        self.wfile.write(encode_frame(payload))
        self.wfile.flush()


def _error_payload(error: BaseException) -> dict:
    return {"type": type(error).__name__, "message": str(error)}


class CertificationServer:
    """Serve certification requests over a Unix or TCP socket from a warm runtime.

    Parameters
    ----------
    socket_path:
        Filesystem path of the Unix-domain socket to bind.  A stale socket
        file (left by a killed server) is replaced; a *live* one raises.
        ``None`` requires ``tcp``.
    tcp:
        ``"HOST:PORT"`` TCP address to bind instead of a Unix socket (the
        fleet transport; port 0 picks a free port, readable from
        :attr:`tcp_address` after :meth:`start`).  Mutually exclusive with
        ``socket_path``.
    cache_dir:
        Directory of the persistent verdict cache.  ``None`` creates an
        ephemeral cache for the server's lifetime — warm-cache semantics
        still hold across requests, but verdicts die with the server.
    shared_memory:
        Whether pool workers attach datasets from shared memory.
    max_engines / max_datasets:
        Bounds of the engine-configuration and decoded-dataset LRUs.
    """

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        *,
        tcp: Optional[Union[str, Tuple[str, int]]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        shared_memory: bool = True,
        max_engines: int = 8,
        max_datasets: int = 16,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValidationError(
                "exactly one of socket_path (Unix transport) and tcp "
                "(fleet transport) must be given"
            )
        self.socket_path = None if socket_path is None else Path(socket_path)
        self._tcp_target: Optional[Tuple[str, int]] = None
        if tcp is not None:
            if isinstance(tcp, tuple):
                self._tcp_target = (str(tcp[0]), int(tcp[1]))
            else:
                family, parsed = parse_address(f"tcp://{tcp}" if "://" not in str(tcp) else str(tcp))
                if family != "tcp":
                    raise ValidationError(f"malformed tcp address {tcp!r}")
                self._tcp_target = parsed  # type: ignore[assignment]
        #: The bound TCP (host, port) — set at bind time (port 0 resolves).
        self.tcp_address: Optional[Tuple[str, int]] = None
        #: Stable identity this server reports in ``hello`` (protocol minor
        #: 2): its bound address — what a router uses as the ring node name.
        self.backend_id: Optional[str] = (
            None if self.socket_path is None else str(self.socket_path)
        )
        self._ephemeral_cache: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._ephemeral_cache = tempfile.TemporaryDirectory(prefix="repro-serve-")
            cache_dir = self._ephemeral_cache.name
        self.runtime = CertificationRuntime(cache_dir, shared_memory=shared_memory)
        self.max_engines = max_engines
        self.max_datasets = max_datasets
        self._engines: "OrderedDict[tuple, CertificationEngine]" = OrderedDict()
        self._datasets: "OrderedDict[str, Dataset]" = OrderedDict()
        self._lock = threading.Lock()
        self._server: Optional[
            Union[_ThreadingUnixServer, _ThreadingTCPServer]
        ] = None
        self._serve_thread: Optional[threading.Thread] = None
        # Monotonic, not wall clock: uptime must never go negative or jump
        # when NTP steps the system clock.
        self._started_at = time.monotonic()
        self.requests_served = 0
        # Operations currently executing on handler threads.  close() drains
        # this before closing the cache: handler threads are daemonic (an
        # idle client parked in readline must not block shutdown), so the
        # socketserver machinery alone cannot tell us when in-flight *work*
        # — which may be mid-cache-write — has finished.
        self._active_ops = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind the socket and serve on a background thread (for embedding)."""
        self._bind()
        thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._serve_thread = thread

    def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Bind the socket and serve until :meth:`request_shutdown` (CLI mode)."""
        self._bind()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._signal_shutdown)
        try:
            self._server.serve_forever()
        finally:
            self.close()

    @property
    def address(self) -> str:
        """The connectable address: the socket path, or ``host:port`` once bound."""
        if self.socket_path is not None:
            return str(self.socket_path)
        if self.tcp_address is not None:
            return format_address(self.tcp_address)
        return format_address(self._tcp_target)  # type: ignore[arg-type]

    def _bind(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        server: Union[_ThreadingUnixServer, _ThreadingTCPServer]
        if self._tcp_target is not None:
            server = _ThreadingTCPServer(self._tcp_target, _ClientHandler)
            host, port = server.server_address[:2]
            self.tcp_address = (str(host), int(port))
            self.backend_id = format_address(self.tcp_address)
        else:
            assert self.socket_path is not None
            self._remove_stale_socket()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            server = _ThreadingUnixServer(str(self.socket_path), _ClientHandler)
        server.certification_server = self
        self._server = server
        self._started_at = time.monotonic()

    def _remove_stale_socket(self) -> None:
        if self.socket_path is None or not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(str(self.socket_path))
        except OSError:
            # Nothing listening: a leftover from a killed server; reclaim it.
            self.socket_path.unlink(missing_ok=True)
        else:
            probe.close()
            raise RuntimeError(
                f"another server is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    def _signal_shutdown(self, signum, frame) -> None:  # pragma: no cover - signals
        del frame
        self.request_shutdown()

    def request_shutdown(self) -> None:
        """Stop serving (idempotent; safe to call from handler threads/signals).

        ``BaseServer.shutdown`` blocks until the serve loop exits, so it must
        run on a thread that is *not* the serve loop (nor a signal handler
        interrupting it).
        """
        server = self._server
        if server is None:
            return
        threading.Thread(target=server.shutdown, daemon=True).start()

    #: How long close() waits for in-flight operations before closing the
    #: cache underneath them anyway (they then fail with an error frame).
    DRAIN_TIMEOUT_SECONDS = 10.0

    def close(self) -> None:
        """Tear down: stop serving, drain in-flight work, close the cache."""
        server, self._server = self._server, None
        if server is not None:
            if self._serve_thread is not None:
                # Background mode: the serve loop is still running; stop it.
                # (Foreground serve_forever reaches close() only after its
                # loop has already exited, where shutdown() could deadlock.)
                server.shutdown()
            server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        if self.socket_path is not None:
            self.socket_path.unlink(missing_ok=True)
        # Wait for handler threads that are mid-operation (possibly writing
        # verdicts) before pulling the cache out from under them; idle
        # connections hold no operation and do not delay shutdown.
        deadline = time.monotonic() + self.DRAIN_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            with self._lock:
                if self._active_ops == 0:
                    break
            time.sleep(0.02)
        if self.runtime.cache is not None:
            self.runtime.cache.close()
        if self._ephemeral_cache is not None:
            self._ephemeral_cache.cleanup()
            self._ephemeral_cache = None

    def __enter__(self) -> "CertificationServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- dispatch
    def dispatch(self, op: Optional[str], params: dict) -> dict:
        """Execute one non-streaming operation; returns the result payload."""
        handler = self._OPS.get(op or "")
        if handler is None:
            raise ProtocolError(
                f"unknown operation {op!r}; supported: {sorted(self._OPS)} "
                "+ ['certify_stream', 'shutdown']"
            )
        with self._lock:
            self.requests_served += 1
            self._active_ops += 1
        _OP_REQUESTS.inc(op=op)
        started = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            # The op is the root span on this handler thread: with tracing
            # enabled (`repro serve --trace`), the completed tree lands in the
            # roots ring stamped with the bound request id, where the `trace`
            # op can find it.
            with tracing.span(f"server.{op}"):
                return handler(self, params)
        except BaseException as error:
            failure = error
            raise
        finally:
            elapsed = time.perf_counter() - started
            _OP_SECONDS.observe(elapsed, op=op)
            self._emit_dispatch(op, elapsed, failure)
            with self._lock:
                self._active_ops -= 1

    @staticmethod
    def _emit_dispatch(op: str, elapsed: float, failure: Optional[BaseException]) -> None:
        fields: dict = {"op": op, "seconds": elapsed, "outcome": "ok"}
        if failure is not None:
            fields["outcome"] = "error"
            fields["error_kind"] = events.classify_error(failure)
            fields["error_type"] = type(failure).__name__
        events.emit("server.dispatch", **fields)

    def _op_hello(self, params: dict) -> dict:
        requested = int(params.get("protocol", PROTOCOL_VERSION))
        if requested != PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {requested}, server speaks "
                f"{PROTOCOL_VERSION}"
            )
        return {
            "protocol": PROTOCOL_VERSION,
            "protocol_minor": PROTOCOL_MINOR,
            "schema_version": SCHEMA_VERSION,
            "server_version": repro.__version__,
            "pid": os.getpid(),
            # Minor 2: the server's bound-address identity, so a router can
            # verify it reached the ring node it aimed for.
            "backend_id": self.backend_id,
        }

    def _op_ping(self, params: dict) -> dict:
        del params
        return {"pong": True, "uptime_seconds": time.monotonic() - self._started_at}

    def _op_certify(self, params: dict) -> dict:
        engine, request, n_jobs = self._decode_certify(params)
        # engine.verify assembles the report exactly as the in-process API
        # does; runtime batch counters are thread-local, so this handler
        # thread's stream cannot pick up a concurrent request's stats.
        report = engine.verify(request, n_jobs=n_jobs)
        return {"report": report.to_dict()}

    def _op_max_certified(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        x = points_from_wire(params["point"])
        outcome = self.runtime.max_certified(
            engine,
            dataset,
            x,
            start=int(params.get("start", 1)),
            max_budget=(
                None if params.get("max_budget") is None else int(params["max_budget"])
            ),
            model=model_from_wire(params.get("model")),
        )
        return {
            "max_certified_n": outcome.max_certified_n,
            "attempts": outcome.attempts,
            "learner_invocations": outcome.learner_invocations,
        }

    def _op_pareto_frontier(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        x = points_from_wire(params["point"])
        outcome = self.runtime.pareto_frontier(
            engine,
            dataset,
            x,
            max_remove=(
                None if params.get("max_remove") is None else int(params["max_remove"])
            ),
            max_flip=(
                None if params.get("max_flip") is None else int(params["max_flip"])
            ),
            model=model_from_wire(params.get("model")),
        )
        return outcome.to_dict()

    def _op_pareto_sweep(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        points = points_from_wire(params["points"])
        outcomes = self.runtime.pareto_sweep(
            engine,
            dataset,
            points,
            max_remove=(
                None if params.get("max_remove") is None else int(params["max_remove"])
            ),
            max_flip=(
                None if params.get("max_flip") is None else int(params["max_flip"])
            ),
            model=model_from_wire(params.get("model")),
        )
        return {"outcomes": [outcome.to_dict() for outcome in outcomes]}

    def _op_cache_stats(self, params: dict) -> dict:
        del params
        cache = self.runtime.cache
        return {
            "cache": None if cache is None else cache.stats(),
            "runtime": self.runtime.stats_snapshot(),
        }

    def _op_cache_gc(self, params: dict) -> dict:
        cache = self.runtime.cache
        if cache is None:  # pragma: no cover - servers always hold a cache
            raise ValidationError("this server has no persistent cache to collect")
        return cache.gc(
            max_bytes=(
                None if params.get("max_bytes") is None else int(params["max_bytes"])
            ),
            max_age=(
                None if params.get("max_age") is None else float(params["max_age"])
            ),
            max_entries=(
                None if params.get("max_entries") is None else int(params["max_entries"])
            ),
        )

    def _op_stats(self, params: dict) -> dict:
        del params
        with self._lock:
            engines = [
                {
                    "config": dict(key),
                    "scheduler": engine.scheduler.stats_snapshot(),
                }
                for key, engine in self._engines.items()
            ]
            requests_served = self.requests_served
            datasets_resident = len(self._datasets)
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "requests_served": requests_served,
            "datasets_resident": datasets_resident,
            "runtime": self.runtime.stats_snapshot(),
            "engines": engines,
            "metrics": metrics.get_registry().snapshot(),
        }

    def _op_metrics(self, params: dict) -> dict:
        """The versioned telemetry op: the server process's metrics registry.

        ``format="json"`` (default) returns the structured snapshot;
        ``format="prometheus"`` returns the text exposition, which the CLI's
        ``repro metrics --connect`` relays verbatim so a scrape sidecar needs
        no knowledge of the snapshot schema.
        """
        fmt = str(params.get("format", "json"))
        registry = metrics.get_registry()
        payload = {"metrics_version": METRICS_VERSION, "format": fmt}
        if fmt == "prometheus":
            payload["prometheus"] = registry.to_prometheus()
        elif fmt == "json":
            payload["metrics"] = registry.snapshot()
        else:
            raise ProtocolError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )
        return payload

    def _op_trace(self, params: dict) -> dict:
        """Fetch a stored span tree from the completed-roots ring by request id.

        The remote half of ``repro trace REQUEST_ID``: the tree is retained
        only if the server runs with span tracing enabled and the request was
        recent enough to still be in the bounded ring.
        """
        request_id = str(params.get("request_id") or "")
        if not request_id:
            raise ValidationError("trace requests must carry a request_id")
        root = tracing.find_root_by_request(request_id)
        if root is not None:
            return {"request_id": request_id, "trace": root.to_dict()}
        if not tracing.spans_enabled():
            raise ValidationError(
                "span tracing is disabled on this server; restart it with "
                "`repro serve --trace` (or REPRO_TELEMETRY_SPANS=1) to retain "
                "request traces"
            )
        raise ValidationError(
            f"no stored trace for request id {request_id!r} (traces are kept "
            "in a bounded ring; only recent requests are retrievable)"
        )

    _OPS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "certify": _op_certify,
        "max_certified": _op_max_certified,
        "pareto_frontier": _op_pareto_frontier,
        "pareto_sweep": _op_pareto_sweep,
        "cache_stats": _op_cache_stats,
        "cache_gc": _op_cache_gc,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "trace": _op_trace,
    }

    # ------------------------------------------------------------- streaming
    def stream(self, params: dict):
        """Yield ``(index, result)`` pairs for a ``certify_stream`` request."""
        engine, request, n_jobs = self._decode_certify(params)
        with self._lock:
            self.requests_served += 1
            self._active_ops += 1
        _OP_REQUESTS.inc(op="certify_stream")
        started = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            with tracing.span("server.certify_stream"):
                for index, result in enumerate(
                    engine.certify_stream(request, n_jobs=n_jobs)
                ):
                    yield index, result
        except BaseException as error:
            failure = error
            raise
        finally:
            elapsed = time.perf_counter() - started
            _OP_SECONDS.observe(elapsed, op="certify_stream")
            self._emit_dispatch("certify_stream", elapsed, failure)
            with self._lock:
                self._active_ops -= 1

    def last_stream_report(self, params: dict) -> dict:
        """The closing frame of a stream: aggregate counters, no per-point rows."""
        del params
        return {
            "schema_version": SCHEMA_VERSION,
            "runtime_stats": self._batch_stats(),
        }

    # --------------------------------------------------------------- helpers
    def _decode_certify(self, params: dict):
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        model = model_from_wire(params.get("model"))
        if model is None:
            raise ProtocolError("certify requests must carry a threat model")
        points = points_from_wire(params["points"])
        request = CertificationRequest(dataset, points, model)
        return engine, request, max(1, int(params.get("n_jobs", 1)))

    def _batch_stats(self) -> Optional[dict]:
        stats = self.runtime.last_batch_stats
        return None if stats is None else stats.snapshot()

    def engine_for(self, config: dict) -> CertificationEngine:
        """The warm engine for one wire configuration (small LRU).

        All engines share the server's runtime, so they share the verdict
        cache and the dataset plane; what the LRU keeps warm per entry is the
        request-plan cache and the in-flight scheduler.
        """
        key = tuple(sorted(config.items()))
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine
        engine = CertificationEngine(runtime=self.runtime, **config)
        with self._lock:
            existing = self._engines.get(key)
            if existing is not None:
                return existing
            if len(self._engines) >= self.max_engines:
                self._engines.popitem(last=False)
            self._engines[key] = engine
        return engine

    def dataset_for(self, payload: dict) -> Dataset:
        """Decode a dataset wire form once and keep it resident (small LRU)."""
        key = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        with self._lock:
            dataset = self._datasets.get(key)
            if dataset is not None:
                self._datasets.move_to_end(key)
                return dataset
        dataset = dataset_from_wire(payload)
        # Fingerprint now (memoized on the instance) so every later request
        # against this dataset starts from a warm identity.
        fingerprint_dataset(dataset)
        with self._lock:
            if len(self._datasets) >= self.max_datasets:
                self._datasets.popitem(last=False)
            self._datasets[key] = dataset
        return dataset
