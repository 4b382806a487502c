"""Utility substrate: timing, memory tracking, validation, and reporting helpers."""

from repro.utils.memory import MemoryTracker, peak_memory_bytes, trace_allocations
from repro.utils.tables import TextTable, format_float
from repro.utils.timing import Stopwatch, TimeBudget, TimeoutExceeded
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability_vector,
    ValidationError,
)

__all__ = [
    "MemoryTracker",
    "peak_memory_bytes",
    "trace_allocations",
    "TextTable",
    "format_float",
    "Stopwatch",
    "TimeBudget",
    "TimeoutExceeded",
    "check_fraction",
    "check_positive_int",
    "check_probability_vector",
    "ValidationError",
]
