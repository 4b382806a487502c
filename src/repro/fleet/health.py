"""Periodic backend health checks for the router.

A background thread pings every backend on a fixed cadence and records
liveness, which the router's ``stats`` op reports as its ``backends`` map
(state changes are also emitted as ``router.backend_state`` events).  The
router consults :meth:`HealthMonitor.is_alive` to *skip* backends already
known dead when picking a failover target — the monitor is an
optimization, not the arbiter: a request that reaches a dead backend still fails over on its own
transport error, and :meth:`mark_dead` feeds that observation back so the
next request skips the corpse without waiting for the next probe cycle.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from repro.service.client import CertificationClient
from repro.service.protocol import ProtocolError, RemoteError
from repro.telemetry import events

__all__ = ["HealthMonitor"]

class HealthMonitor:
    """Ping-based liveness tracking over a static backend list."""

    def __init__(
        self,
        backends: Sequence[str],
        *,
        interval: float = 2.0,
        connect_timeout: float = 2.0,
        request_timeout: float = 5.0,
    ) -> None:
        self.backends = tuple(backends)
        self.interval = interval
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        # Backends start alive: the first requests race the first probe
        # cycle, and optimistically routing to a dead backend just costs one
        # failover (pessimism would blackhole the whole fleet at startup).
        self._alive: Dict[str, bool] = {backend: True for backend in self.backends}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            return
        thread = threading.Thread(
            target=self._probe_loop, name="repro-route-health", daemon=True
        )
        thread.start()
        self._thread = thread

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.request_timeout + self.connect_timeout)
            self._thread = None

    # --------------------------------------------------------------- queries
    def is_alive(self, backend: str) -> bool:
        with self._lock:
            return self._alive.get(backend, True)

    def mark_dead(self, backend: str) -> None:
        """Record a transport failure observed by a live request."""
        self._set_state(backend, False)

    def snapshot(self) -> Dict[str, bool]:
        with self._lock:
            return dict(self._alive)

    # ---------------------------------------------------------------- probing
    def _set_state(self, backend: str, alive: bool) -> None:
        with self._lock:
            changed = self._alive.get(backend) != alive
            self._alive[backend] = alive
        if changed:
            events.emit(
                "router.backend_state", backend=backend, up=alive
            )

    def probe_all(self) -> None:
        """One synchronous probe cycle (the loop's body; callable from tests)."""
        for backend in self.backends:
            try:
                with CertificationClient(
                    backend,
                    connect_timeout=self.connect_timeout,
                    connect_retries=0,
                    request_timeout=self.request_timeout,
                ) as client:
                    client.ping()
            except (OSError, ProtocolError, RemoteError) as error:
                events.emit(
                    "router.health_probe",
                    backend=backend,
                    up=False,
                    error_kind=events.classify_error(error),
                )
                self._set_state(backend, False)
            else:
                self._set_state(backend, True)

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.probe_all()
