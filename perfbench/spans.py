"""Span recording from outside the program.

The traced run wraps a few public calls of :mod:`repro` in place (class
methods and module functions), so every call records a span: name, start,
end, parent span and the id of the op it belongs to.  Spans stay in memory
until the benchmark writes them out at the end of the run.  Self time of a
span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Dict, List, Sequence, Tuple

class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def set_op(self, op_id: int) -> None:
        """Tag the spans this thread opens from now on with ``op_id``."""
        self._local.op = op_id

    def wrap(self, target: str, attribute: str, name: str) -> None:
        """Record a span around ``target.attribute`` (a module or class path)."""
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      getattr(recorder._local, "op", -1)]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(record)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total and self seconds per span name: ``{name: total, "<name>#self": self}``.

    A span is ``[name, start, end, parent index or -1, op id]``.
    """
    totals: Dict[str, float] = {}
    children: Dict[int, float] = {}
    for name, start, end, parent, _op in spans:
        duration = end - start
        totals[name] = totals.get(name, 0.0) + duration
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + duration
    result: Dict[str, float] = dict(totals)
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        key = f"{name}#self"
        result[key] = result.get(key, 0.0) + (end - start) - children.get(index, 0.0)
    return result

