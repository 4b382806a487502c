"""Tests for the tracemalloc-based memory tracking."""

import tracemalloc

import numpy as np

from repro.utils.memory import MemoryTracker, peak_memory_bytes, trace_allocations


class TestMemoryTracker:
    def test_records_positive_peak_for_allocation(self):
        with trace_allocations():
            with MemoryTracker() as tracker:
                buffer = np.zeros(200_000)
                assert buffer.size == 200_000
        assert tracker.peak_bytes > 100_000
        assert tracker.peak_megabytes > 0.0

    def test_never_starts_tracing(self):
        assert not tracemalloc.is_tracing()
        with MemoryTracker() as tracker:
            assert not tracemalloc.is_tracing()
            buffer = np.zeros(200_000)
            assert buffer.size == 200_000
        assert not tracemalloc.is_tracing()
        assert tracker.peak_bytes == 0

    def test_nested_trackers(self):
        with trace_allocations():
            with MemoryTracker() as outer:
                with MemoryTracker() as inner:
                    buffer = np.zeros(100_000)
                    assert buffer is not None
        assert inner.peak_bytes > 0
        assert outer.peak_bytes >= 0


class TestTraceAllocations:
    def test_stops_tracing_it_started(self):
        assert not tracemalloc.is_tracing()
        with trace_allocations():
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

    def test_leaves_existing_trace_running(self):
        with trace_allocations():
            with trace_allocations():
                pass
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()


class TestPeakMemoryBytes:
    def test_zero_when_not_tracing(self):
        assert not tracemalloc.is_tracing()
        assert peak_memory_bytes() == 0

    def test_positive_when_tracing(self):
        with trace_allocations():
            _ = np.zeros(50_000)
            assert peak_memory_bytes() > 0
