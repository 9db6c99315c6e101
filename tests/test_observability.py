"""Tests for the tracing & metrics subsystem (observability layer)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.overhead import measure_overhead
from repro.cli import main
from repro.core.sorting import disorder_fraction
from repro.kokkos import parallel_for, parallel_reduce
from repro.kokkos.callbacks import (clear_tools, register_tool,
                                    registered_tools, tools_active,
                                    unregister_tool)
from repro.kokkos.core import fence
from repro.kokkos.policy import RangePolicy
from repro.kokkos.profiling import (kernel_timings, pop_region,
                                    profiling_region, profiling_session,
                                    push_region, record_kernel,
                                    region_stack, reset_kernel_timings)
from repro.mpi.comm import MessageLog, World
from repro.observability.events import RingBuffer, SpanEvent
from repro.observability.metrics import (Histogram, MetricsRegistry,
                                         default_registry, detail_enabled,
                                         set_detail)
from repro.observability.tracer import ChromeTracer, tracing
from repro.vpic.simulation import Simulation
from repro.vpic.workloads import two_stream_deck, uniform_plasma_deck

pytestmark = pytest.mark.observability


@pytest.fixture(autouse=True)
def _clean_tools():
    """Every test starts and ends with an empty tool registry."""
    clear_tools()
    yield
    clear_tools()


class TestRingBuffer:
    def test_bounded_with_counted_drops(self):
        rb = RingBuffer(capacity=3)
        for i in range(5):
            rb.append(i)
        assert len(rb) == 3
        assert rb.snapshot() == [2, 3, 4]   # oldest evicted first
        assert rb.dropped == 2

    def test_clear_resets_drop_count(self):
        rb = RingBuffer(capacity=1)
        rb.append("a")
        rb.append("b")
        rb.clear()
        assert len(rb) == 0 and rb.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)


class TestCallbackRegistry:
    def test_register_unregister_toggles_active(self):
        assert not tools_active()
        tool = object()
        register_tool(tool)
        assert tools_active()
        assert registered_tools() == (tool,)
        unregister_tool(tool)
        assert not tools_active()

    def test_duplicate_registration_rejected(self):
        tool = object()
        register_tool(tool)
        with pytest.raises(ValueError):
            register_tool(tool)

    def test_specific_hook_preferred_generic_fallback(self):
        calls = []

        class SpecificTool:
            def begin_parallel_for(self, name, kid):
                calls.append(("specific", name))

            def begin_kernel(self, name, kid):
                calls.append(("generic", name))

        class GenericTool:
            def begin_kernel(self, name, kid):
                calls.append(("fallback", name))

        register_tool(SpecificTool())
        register_tool(GenericTool())
        parallel_for(RangePolicy(0, 8), lambda i: None, label="k")
        kinds = [k for k, _ in calls]
        assert "specific" in kinds       # dedicated hook wins...
        assert "fallback" in kinds       # ...generic used when absent
        assert "generic" not in kinds    # never both on one tool

    def test_missing_hooks_are_skipped(self):
        register_tool(object())          # implements nothing
        with record_kernel("noop"):
            pass
        fence("sync")


def _encloses(outer, inner) -> bool:
    """True if *inner* nests inside *outer*'s interval."""
    return outer.start_us <= inner.start_us and inner.end_us <= outer.end_us


class TestSpanEvents:
    def test_chrome_round_trip(self):
        span = SpanEvent(name="push", cat="kernel", start_us=10.0,
                         dur_us=5.0, pid=1, tid=2, args={"n": 3})
        assert span.to_chrome() == {
            "name": "push", "cat": "kernel", "ph": "X", "ts": 10.0,
            "dur": 5.0, "pid": 1, "tid": 2, "args": {"n": 3}}

    def test_region_span_encloses_kernel_span(self):
        tracer = ChromeTracer()
        register_tool(tracer)
        with profiling_region("outer"):
            with record_kernel("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans()}
        assert _encloses(by_name["outer"], by_name["outer/inner"])
        assert not _encloses(by_name["outer/inner"], by_name["outer"])


class TestChromeTracer:
    def test_kernel_patterns_get_their_category(self):
        with tracing() as tracer:
            parallel_for(RangePolicy(0, 4), lambda i: None, label="pf")
            parallel_reduce(RangePolicy(0, 4), lambda batch: batch,
                            label="pr")
            fence("sync")
        cats = {s.name: s.cat for s in tracer.spans()}
        assert cats["pf"] == "parallel_for"
        assert cats["pr"] == "parallel_reduce"
        assert cats["sync"] == "fence"

    def test_partition_accounting(self):
        with tracing() as tracer:
            parallel_for(RangePolicy(0, 4), lambda i: None, label="pf")
        assert sum(tracer.partitions.values()) == 1

    def test_tracing_unregisters_but_keeps_buffer(self):
        with tracing() as tracer:
            with record_kernel("k"):
                pass
        assert not tools_active()
        assert {s.name for s in tracer.spans()} == {"k"}

    def test_saved_json_is_valid_chrome_trace(self, tmp_path):
        with tracing() as tracer:
            with profiling_region("step"):
                with record_kernel("push"):
                    pass
        path = tmp_path / "trace.json"
        tracer.save(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["dropped_events"] == 0
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert len(spans) + len(meta) == len(doc["traceEvents"])
        assert len(spans) == 2
        for ev in spans:
            assert ev["dur"] >= 0
            for key in ("name", "cat", "ts", "pid", "tid"):
                assert key in ev
        # Metadata events name the lanes for Perfetto/chrome://tracing.
        assert meta, "expected thread_name metadata for retained spans"
        for ev in meta:
            assert ev["name"] in ("process_name", "thread_name")
            assert ev["args"]["name"]

    def test_metadata_names_process_and_threads(self):
        tracer = ChromeTracer(pid=7, process_name="rank 7")
        with tracing(tracer=tracer):
            with record_kernel("k"):
                pass
        meta = {ev["name"]: ev for ev in tracer.metadata_events()}
        assert meta["process_name"]["args"]["name"] == "rank 7"
        assert meta["process_name"]["pid"] == 7
        # The span came from this (live) thread, so its real name shows.
        assert meta["thread_name"]["args"]["name"] == "MainThread"

    def test_shared_epoch_aligns_tracers(self):
        a = ChromeTracer(pid=0)
        b = ChromeTracer(pid=1, epoch=a.epoch)
        assert b.epoch == a.epoch

    def test_ring_eviction_reported_in_export(self):
        with tracing(capacity=2) as tracer:
            for i in range(5):
                with record_kernel(f"k{i}"):
                    pass
        doc = tracer.to_chrome()
        assert doc["otherData"]["retained_events"] == 2
        assert doc["otherData"]["dropped_events"] == 3
        # the *tail* of the run is retained
        assert {s.name for s in tracer.spans()} == {"k3", "k4"}

    def test_ring_eviction_with_nested_regions_keeps_totals_sane(self):
        """Evicting early spans while outer regions are still open
        (their begin precedes everything retained, their end survives)
        must not corrupt per-name totals or produce bogus spans."""
        with tracing(capacity=4) as tracer:
            with profiling_region("outer"):
                for i in range(6):
                    with profiling_region(f"inner{i}"):
                        with record_kernel("work"):
                            pass
        totals = tracer.totals_by_name()
        retained = tracer.spans()
        assert len(retained) == 4
        # 6 x (kernel span + inner region span) + the outer region.
        assert tracer.buffer.dropped == 6 * 2 + 1 - 4
        # Totals cover exactly the retained spans — nothing double
        # counted from evicted begins, nothing negative.
        assert sum(n for _, n in totals.values()) == len(retained)
        assert set(totals) == {s.name for s in retained}
        for sec, n in totals.values():
            assert sec >= 0 and n > 0
        # The outer region closed *after* eviction started and its
        # span still carries a full, sane duration.
        outer = [s for s in retained if s.name == "outer"]
        assert outer and outer[0].dur_us >= 0
        for s in retained:
            if s.name != "outer":
                assert _encloses(outer[0], s)


class TestMetrics:
    def test_histogram_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.max == 100

    def test_histogram_window_bounds_memory_keeps_totals(self):
        h = Histogram("h", window=10)
        for v in range(100):
            h.observe(v)
        assert h.count == 100             # exact over all observations
        assert h.min == 0 and h.max == 99
        assert h.percentile(0) == 90      # window holds the tail

    def test_snapshot_reports_total_observed_and_window_note(self):
        h = Histogram("h", window=10)
        for v in range(4):
            h.observe(v)
        snap = h.snapshot()
        assert snap["total_observed"] == 4
        assert "note" not in snap         # window not yet exceeded
        for v in range(96):
            h.observe(v)
        snap = h.snapshot()
        assert snap["total_observed"] == 100
        assert snap["count"] == 100
        assert "last 10 of 100" in snap["note"]

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_reset_preserves_instrument_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(5)
        reg.reset()
        assert c.value == 0
        assert reg.counter("c") is c

    def test_export_includes_standard_counters(self, tmp_path):
        reg = MetricsRegistry()
        doc = reg.export_document(include_kernels=False)
        assert doc["counters"]["mpi/bytes"] == 0
        assert doc["counters"]["sim/steps"] == 0

    def test_csv_export_round_trips_rows(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a/b").inc(3)
        reg.histogram("h").observe(1.0)
        path = tmp_path / "m.csv"
        reg.save(str(path), include_kernels=False)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "kind,name,field,value"
        assert "counter,a/b,value,3" in rows
        assert any(r.startswith("histogram,h,p95,") for r in rows)

    def test_detail_flag(self):
        assert not detail_enabled()
        set_detail(True)
        try:
            assert detail_enabled()
        finally:
            set_detail(False)


class TestProfilingSession:
    def test_timers_and_regions_isolated(self):
        reset_kernel_timings()
        with record_kernel("outside"):
            pass
        push_region("caller")
        try:
            with profiling_session():
                assert region_stack() == ()
                with record_kernel("inside"):
                    pass
                assert "caller/inside" not in kernel_timings()
            assert region_stack() == ("caller",)
        finally:
            while region_stack():
                pop_region()
        assert "outside" in kernel_timings()
        assert "inside" not in kernel_timings()


class TestMessageLogCapacity:
    def test_unbounded_by_default(self):
        log = MessageLog()
        for i in range(10):
            log.record(0, 1, 0, 100)
        assert log.count == 10 and log.dropped == 0
        assert len(log.messages) == 10

    def test_ring_eviction_keeps_aggregates_exact(self):
        log = MessageLog(capacity=3)
        for i in range(8):
            log.record(i % 2, 1, 0, 10)
        assert len(log.messages) == 3     # bounded row window
        assert log.dropped == 5
        assert log.count == 8             # running totals stay exact
        assert log.total_bytes == 80
        assert log.per_rank_bytes(2).tolist() == [40, 40]

    def test_drop_metric_surfaced(self):
        before = default_registry().counter("mpi/log_dropped").value
        w = World(2, log_capacity=1)
        w.comm(0).send(np.zeros(4), dest=1)
        w.comm(0).send(np.zeros(4), dest=1)
        after = default_registry().counter("mpi/log_dropped").value
        assert w.log.dropped == 1
        assert after == before + 1

    def test_world_traffic_feeds_mpi_counters(self):
        reg = default_registry()
        msgs0 = reg.counter("mpi/messages").value
        bytes0 = reg.counter("mpi/bytes").value
        w = World(2)
        payload = np.zeros(16)            # 128 bytes
        w.comm(0).send(payload, dest=1)
        w.comm(1).recv(source=0)
        assert reg.counter("mpi/messages").value == msgs0 + 1
        assert reg.counter("mpi/bytes").value == bytes0 + payload.nbytes


class TestSimulationMetrics:
    def test_single_solver_construction_in_from_deck(self, monkeypatch):
        calls = []
        orig = Simulation._make_solver

        def counting(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(Simulation, "_make_solver", counting)
        uniform_plasma_deck(nx=4, ny=4, nz=4, ppc=2, num_steps=1).build()
        assert len(calls) == 1

    def test_step_counters_and_energy_drift(self):
        reg = default_registry()
        reg.reset()
        set_detail(True)
        try:
            deck = two_stream_deck(nx=16, ppc=8, num_steps=3)
            sim = deck.build()
            sim.run(deck.num_steps)
        finally:
            set_detail(False)
        snap = reg.snapshot()
        assert snap["counters"]["sim/steps"] == 3
        assert snap["counters"]["sim/particles_pushed"] == \
            3 * sim.total_particles
        assert snap["histograms"]["sim/step_seconds"]["count"] == 3
        assert "sim/energy_drift" in snap["gauges"]


class TestDisorderFraction:
    def test_sorted_and_random_extremes(self, rng):
        assert disorder_fraction(np.arange(10)) == 0.0
        assert disorder_fraction(np.array([5])) == 0.0
        random = rng.integers(0, 1000, size=20_000)
        assert 0.4 < disorder_fraction(random) < 0.6


class TestOverhead:
    def test_off_overhead_small_and_report_formats(self):
        report = measure_overhead(iterations=2_000)
        assert report.off_ns >= report.baseline_ns > 0
        assert report.traced_ns >= report.off_ns
        # instrumented-but-off must stay < 5% of a push launch; use a
        # representative 1 ms kernel as the yardstick.
        assert report.overhead_fraction(1e-3) < 0.05
        text = report.format(kernel_seconds=1e-3, kernel_label="push")
        assert "ns/event" in text and "push" in text


class TestCli:
    def test_run_deck_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(["run-deck", "two-stream", "--steps", "3",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        assert not tools_active()         # tracer detached afterwards
        doc = json.loads(trace.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert any("push" in n for n in names)
        assert any("field_solve" in n for n in names)
        m = json.loads(metrics.read_text())
        assert m["counters"]["sim/steps"] == 3
        assert "mpi/bytes" in m["counters"]
        assert any("push" in label for label in m["kernels"])

    def test_trace_command_prints_overhead_report(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "two-stream", "--steps", "2",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "top spans by total time" in printed
        assert "instrumentation overhead" in printed
        assert json.loads(out.read_text())["traceEvents"]


def test_trace_demo_example():
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "examples" / "trace_demo.py")],
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "trace written" in proc.stdout
