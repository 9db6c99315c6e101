"""Tests for profiling regions/timers and the runtime lifecycle."""

import pytest

from repro.kokkos.core import (fence, finalize, initialize, is_initialized,
                               runtime, scoped_runtime)
from repro.kokkos.execution import OpenMP
from repro.kokkos.profiling import (add_kernel_time, kernel_timings,
                                    pop_region,
                                    profiling_region, push_region,
                                    record_kernel, region_stack,
                                    reset_kernel_timings)


class TestRegions:
    def test_push_pop(self):
        push_region("outer")
        push_region("inner")
        assert region_stack() == ("outer", "inner")
        assert pop_region() == "inner"
        assert pop_region() == "outer"

    def test_pop_empty_raises(self):
        while region_stack():
            pop_region()
        with pytest.raises(RuntimeError):
            pop_region()

    def test_context_manager_restores_on_error(self):
        depth = len(region_stack())
        with pytest.raises(RuntimeError):
            with profiling_region("r"):
                raise RuntimeError("boom")
        assert len(region_stack()) == depth


class TestKernelTimers:
    def test_records_time_and_launches(self):
        reset_kernel_timings()
        with record_kernel("k1"):
            pass
        with record_kernel("k1"):
            pass
        t = kernel_timings()["k1"]
        assert t.launches == 2
        assert t.seconds >= 0
        assert t.mean_seconds == pytest.approx(t.seconds / 2)

    def test_measured_time_counts_its_launches(self):
        """A native call that advanced k steps credits k launches; a
        registered tool still sees one event for it."""
        from repro.observability.callbacks import (register_tool,
                                                   unregister_tool)

        class Events:
            native_telemetry_ok = True

            def __init__(self):
                self.seen = []

            def complete_kernel(self, name, kind, seconds):
                self.seen.append((name, seconds))

        reset_kernel_timings()
        tool = register_tool(Events())
        try:
            add_kernel_time("k2", 0.5, launches=4)
            add_kernel_time("k2", 0.25)
        finally:
            unregister_tool(tool)
        t = kernel_timings()["k2"]
        assert t.launches == 5
        assert t.seconds == pytest.approx(0.75)
        assert tool.seen == [("k2", 0.5), ("k2", 0.25)]

    def test_region_qualified_labels(self):
        reset_kernel_timings()
        with profiling_region("step"):
            with record_kernel("push"):
                pass
        assert "step/push" in kernel_timings()

    def test_reset(self):
        with record_kernel("temp"):
            pass
        reset_kernel_timings()
        assert kernel_timings() == {}


class TestRuntime:
    def test_initialize_idempotent(self):
        with scoped_runtime(num_threads=4) as rt:
            rt2 = initialize(num_threads=99)
            assert rt2 is rt        # second init returns existing

    def test_runtime_autoinitializes(self):
        with scoped_runtime(num_threads=2):
            assert is_initialized()
            assert runtime().num_threads == 2

    def test_finalize_allows_reinit(self):
        with scoped_runtime(num_threads=2):
            finalize()
            rt = initialize(num_threads=3)
            assert rt.num_threads == 3

    def test_default_space_resolution(self):
        with scoped_runtime(num_threads=5) as rt:
            space = rt.resolve_default_space()
            assert isinstance(space, OpenMP)
            assert space.num_threads == 5

    def test_explicit_default_space(self):
        space = OpenMP(2)
        with scoped_runtime(num_threads=8, default_space=space) as rt:
            assert rt.resolve_default_space() is space

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            with scoped_runtime(num_threads=0):
                pass

    def test_fence_is_noop(self):
        fence("label")
