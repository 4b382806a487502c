"""Peak-memory tracking based on :mod:`tracemalloc`.

The paper reports the peak resident memory of the C++ prototype (Figures
7-11).  In this Python reproduction we report the peak *Python heap*
allocation observed while a verification instance runs, measured with
``tracemalloc``.  Absolute numbers are not comparable with the paper's MB
figures, but the qualitative trends (the disjunctive domain's memory grows
quickly with the poisoning amount and tree depth) are preserved.

Tracing makes every Python allocation slower, so measuring is opt-in: a
:class:`MemoryTracker` only reads the trace of a process that already
traces, and reports 0 otherwise.  Code that wants the measurement (the
experiment grid behind the memory panels) turns tracing on for its own run
with :func:`trace_allocations`.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


def peak_memory_bytes() -> int:
    """Return the current tracemalloc peak, or 0 when tracing is disabled."""
    if not tracemalloc.is_tracing():
        return 0
    _, peak = tracemalloc.get_traced_memory()
    return int(peak)


@contextmanager
def trace_allocations() -> Iterator[None]:
    """Trace allocations for the duration of the block.

    Starts :mod:`tracemalloc` when it is off and stops it again on exit; an
    already tracing process is left as it is.  Worker processes forked inside
    the block inherit the trace.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        yield
    finally:
        if started_here:
            tracemalloc.stop()


@dataclass
class MemoryTracker:
    """Context manager measuring the peak Python-heap allocation of a block.

    Measures only when the process already traces allocations (see
    :func:`trace_allocations`); otherwise ``peak_bytes`` stays 0 and the
    block runs at full speed.  The peak is reported relative to the traced
    memory on entry, so nested trackers each see their own block.
    """

    peak_bytes: int = 0
    _tracing: bool = field(default=False, init=False)
    _baseline: int = field(default=0, init=False)

    def __enter__(self) -> "MemoryTracker":
        self._tracing = tracemalloc.is_tracing()
        if self._tracing:
            current, _ = tracemalloc.get_traced_memory()
            self._baseline = current
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._tracing and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(0, int(peak) - int(self._baseline))

    @property
    def peak_megabytes(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)
