"""Tests for the counter-attribution profiler stack (ISSUE 3):
modeled counters, roofline placement, per-rank lanes, and the HTML
dashboard."""

import json

import numpy as np
import pytest

from repro.bench.counters import (CounterTool,
                                  clear_counter_cache,
                                  counter_cache_stats,
                                  counters_from_prediction,
                                  model_counters)
from repro.bench.push_bench import push_trace_from_keys
from repro.bench.roofline_profiler import RooflineProfiler
from repro.cli import main
from repro.cluster.scaling import (ScalingPoint, imbalance_adjusted,
                                   speedups, strong_scaling)
from repro.cluster.systems import get_system
from repro.kokkos.callbacks import (clear_tools, register_tool,
                                    tools_active, unregister_tool)
from repro.kokkos.profiling import (add_kernel_time, profiling_session,
                                    record_kernel, reset_kernel_timings)
from repro.machine.specs import get_platform
from repro.observability.events import SpanEvent
from repro.observability.metrics import default_registry
from repro.observability.rank_profile import (RankProfiler, current_rank,
                                              rank_activity,
                                              rank_profiling, rank_scope)
from repro.perfmodel.kernel_cost import push_kernel_cost
from repro.perfmodel.predict import predict_time
from repro.simd.autovec import Strategy

pytestmark = pytest.mark.observability


@pytest.fixture(autouse=True)
def _clean_tools():
    clear_tools()
    yield
    clear_tools()


@pytest.fixture
def push_trace(rng):
    keys = rng.integers(0, 512, size=4096).astype(np.int64)
    return push_trace_from_keys(keys, 512, atomic=True)


class TestModeledCounters:
    def test_roofline_coordinates_match_prediction_exactly(
            self, a100, push_trace):
        """Acceptance criterion: counters agree with the
        ``perfmodel.predict`` breakdown — same inputs, same
        arithmetic, exact float equality."""
        cost = push_kernel_cost()
        pred = predict_time(a100, push_trace, cost)
        counters = model_counters(a100, push_trace, cost)
        assert counters.flops == pred.total_flops
        assert counters.dram_bytes == pred.dram_bytes
        assert counters.modeled_seconds == pred.seconds
        assert counters.arithmetic_intensity == pred.arithmetic_intensity
        assert counters.gflops == pred.gflops
        assert counters.components == pred.components

    def test_counters_are_physical(self, a100, spr, push_trace):
        cost = push_kernel_cost()
        for platform in (a100, spr):
            c = model_counters(platform, push_trace, cost)
            assert 0.0 <= c.cache_hit_rate <= 1.0
            assert 0.0 < c.coalescing_efficiency <= 1.0
            assert 0.0 < c.vector_lane_utilization <= 1.0
            assert c.atomic_conflicts >= 0
            assert c.n_ops == push_trace.n_ops

    def test_atomic_conflicts_zero_without_atomics(self, a100, rng):
        keys = rng.integers(0, 64, size=2048).astype(np.int64)
        trace = push_trace_from_keys(keys, 64, atomic=False)
        c = model_counters(a100, trace, push_kernel_cost())
        assert c.atomic_conflicts == 0
        # The same hot keys *with* atomics must conflict within warps.
        atomic = push_trace_from_keys(keys, 64, atomic=True)
        assert model_counters(a100, atomic,
                              push_kernel_cost()).atomic_conflicts > 0

    def test_derived_counters_cached_by_content(self, a100, push_trace):
        clear_counter_cache()
        cost = push_kernel_cost()
        model_counters(a100, push_trace, cost)
        stats0 = counter_cache_stats()
        assert stats0["misses"] == 1 and stats0["entries"] == 1
        model_counters(a100, push_trace, cost)
        stats1 = counter_cache_stats()
        assert stats1["hits"] == stats0["hits"] + 1
        assert stats1["entries"] == 1

    def test_to_args_is_json_clean(self, a100, push_trace):
        args = model_counters(a100, push_trace,
                              push_kernel_cost()).to_args()
        json.dumps(args)            # no numpy scalars, no dataclasses
        assert args["platform"] == a100.name
        assert args["flops"] > 0


class TestCounterTool:
    def test_accumulates_measured_time_per_kernel(self, a100):
        tool = CounterTool(a100)
        register_tool(tool)
        with profiling_session():
            for _ in range(3):
                with record_kernel("push/electron"):
                    pass
            with record_kernel("sort"):
                pass
        unregister_tool(tool)
        assert tool.measured["push/electron"].launches == 3
        assert tool.measured["sort"].launches == 1
        assert tool.measured["push/electron"].seconds >= 0

    def test_bind_resolves_by_substring_first_match(
            self, a100, push_trace):
        tool = CounterTool(a100)
        tool.end_kernel("step/push/electron", 0, 1e-3)
        assert tool.counters_for("step/push/electron") is None
        tool.bind("push/electron", push_trace, push_kernel_cost())
        c = tool.counters_for("step/push/electron")
        assert c is not None and c.kernel == "step/push/electron"
        assert tool.counters_for("unrelated") is None
        assert set(tool.bound_kernels()) == {"step/push/electron"}

    def test_rows_hottest_first_with_counters_attached(
            self, a100, push_trace):
        tool = CounterTool(a100)
        tool.end_kernel("cold", 0, 1e-4)
        tool.end_kernel("push/electron", 1, 5e-3)
        tool.bind("push/", push_trace, push_kernel_cost())
        rows = tool.rows()
        assert [r["name"] for r in rows] == ["push/electron", "cold"]
        assert rows[0]["counters"] is not None
        assert rows[1]["counters"] is None

    def test_annotate_spans_stamps_counter_args(self, a100, push_trace):
        tool = CounterTool(a100)
        tool.bind("push", push_trace, push_kernel_cost())
        spans = [
            SpanEvent(name="push/electron", cat="kernel", start_us=0.0,
                      dur_us=1.0, pid=0, tid=0, args={"kept": 1}),
            SpanEvent(name="field_solve", cat="kernel", start_us=1.0,
                      dur_us=1.0, pid=0, tid=0),
        ]
        assert tool.annotate_spans(spans) == 1
        assert spans[0].args["kept"] == 1          # existing args kept
        assert spans[0].args["flops"] > 0
        assert "gflops" in spans[0].args
        assert spans[1].args is None


class TestRooflineProfiler:
    def test_from_predictions_matches_prediction_coordinates(
            self, a100, rng):
        from repro.bench.push_bench import fig7_sort_runtimes
        keys = rng.integers(0, 512, size=4096).astype(np.int64)
        runtimes = fig7_sort_runtimes([a100], keys, 512)[a100.name]
        profiler = RooflineProfiler.from_predictions(
            a100, runtimes, exclude=("random",))
        assert set(profiler.entries) == set(runtimes) - {"random"}
        for label, pred in runtimes.items():
            if label == "random":
                continue
            point = profiler.entries[label].point
            assert point.arithmetic_intensity == \
                pred.arithmetic_intensity
            assert point.gflops == pred.gflops

    def test_fig8_output_shape_preserved(self, a100, rng):
        from repro.bench.push_bench import fig8_roofline_points
        keys = rng.integers(0, 512, size=4096).astype(np.int64)
        model, points = fig8_roofline_points(a100, keys, 512)
        assert model.platform.name == a100.name
        assert [p.label for p in points] == \
            ["standard", "strided", "tiled-strided"]

    def test_from_counter_tool_only_bound_kernels(
            self, a100, push_trace):
        tool = CounterTool(a100)
        tool.end_kernel("push/electron", 0, 2e-3)
        tool.end_kernel("push/electron", 0, 2e-3)
        tool.end_kernel("field_solve", 1, 1e-3)
        tool.bind("push/", push_trace, push_kernel_cost())
        profiler = RooflineProfiler.from_counter_tool(tool)
        assert set(profiler.entries) == {"push/electron"}
        entry = profiler.entries["push/electron"]
        assert entry.launches == 2
        assert entry.measured_seconds == pytest.approx(4e-3)

    def test_table_and_ascii_render(self, a100, push_trace):
        profiler = RooflineProfiler(a100)
        profiler.add("push", model_counters(a100, push_trace,
                                            push_kernel_cost()))
        assert "push" in profiler.table()
        assert "ridge" in profiler.ascii()
        rows = profiler.rows()
        assert rows[0]["memory_bound"] in (True, False)
        assert 0 <= rows[0]["utilization"] <= 1


class TestRankMarkers:
    def test_noop_context_when_no_tools(self):
        assert not tools_active()
        ctx1 = rank_scope(2)
        ctx2 = rank_activity(2, "push/x")
        assert ctx1 is ctx2                # one shared null context
        with ctx1:
            assert current_rank() is None  # no attribution recorded

    def test_scope_sets_and_restores_rank(self):
        register_tool(object())
        with rank_scope(3):
            assert current_rank() == 3
            with rank_scope(1):
                assert current_rank() == 1
            assert current_rank() == 3
        assert current_rank() is None


class TestRankProfiler:
    def _spans(self, profiler, n_ranks=2):
        with profiling_session():
            for r in range(n_ranks):
                with rank_activity(r, f"push/sp{r}"):
                    pass
                with rank_activity(r, "halo/wait", kind="comm"):
                    pass
                with rank_activity(r, "field/advance_b"):
                    pass
            with rank_activity(None, "migrate", kind="comm"):
                pass

    def test_one_lane_per_rank_plus_collective(self):
        with rank_profiling(2) as profiler:
            self._spans(profiler)
        lanes = {t.process_name: {s.name for s in t.spans()}
                 for t in profiler.tracers()}
        assert set(lanes) == {"rank 0", "rank 1", "collective"}
        assert "push/sp0" in lanes["rank 0"]
        assert "push/sp1" in lanes["rank 1"]
        assert "migrate" in lanes["collective"]
        epochs = {t.epoch for t in profiler.tracers()}
        assert len(epochs) == 1            # one shared timeline

    def test_merged_chrome_names_every_lane(self):
        with rank_profiling(2) as profiler:
            self._spans(profiler)
        doc = profiler.merged_chrome()
        meta = {ev["args"]["name"] for ev in doc["traceEvents"]
                if ev.get("ph") == "M" and ev["name"] == "process_name"}
        assert meta == {"rank 0", "rank 1", "collective"}
        assert doc["otherData"]["n_ranks"] == 2
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {0, 1, 2}

    def test_report_classifies_and_exports_gauges(self):
        with rank_profiling(2) as profiler:
            self._spans(profiler)
        report = profiler.report()
        assert report.n_ranks == 2
        for r in range(2):
            assert report.push_seconds[r] > 0
            assert report.comm_seconds[r] > 0
            assert report.field_seconds[r] > 0
        assert 0 <= report.halo_wait_fraction < 1
        assert report.load_imbalance >= 0
        gauges = default_registry().snapshot()["gauges"]
        assert gauges["rank/load_imbalance"] == report.load_imbalance
        assert gauges["rank/halo_wait_fraction"] == \
            report.halo_wait_fraction
        assert "rank" in report.table()

    def test_drained_kernel_keeps_its_measured_seconds(self):
        """A kernel timed elsewhere (``add_kernel_time``, as the native
        rank push is drained) counts its given seconds in its rank."""
        with rank_profiling(2) as profiler:
            with profiling_session():
                with rank_scope(1):
                    add_kernel_time("push/sp1", 0.25)
        assert profiler.report().push_seconds == pytest.approx((0.0, 0.25))
        assert "push/sp1" in {s.name for s in profiler.rank_tracers[1].spans()}

    def test_out_of_range_rank_lands_in_collective(self):
        with rank_profiling(1) as profiler:
            with profiling_session():
                with rank_activity(7, "stray"):
                    pass
        assert "stray" in {s.name for s in profiler.collective.spans()}

    def test_rejects_nonpositive_ranks(self):
        with pytest.raises(ValueError):
            RankProfiler(0)


class TestDistributedProfiling:
    def test_distributed_run_fills_rank_lanes(self):
        from repro.mpi.distributed import DistributedSimulation
        from repro.vpic.workloads import uniform_plasma_deck
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2, num_steps=2)
        with profiling_session():
            sim = DistributedSimulation(deck, 2)
            with rank_profiling(2) as profiler:
                sim.run(2)
        report = profiler.report()
        for r in range(2):
            assert report.push_seconds[r] > 0
            assert report.comm_seconds[r] > 0   # halo waits attributed
            assert report.field_seconds[r] > 0
        names0 = {s.name for s in profiler.rank_tracers[0].spans()}
        assert any(n.startswith("push/") for n in names0)
        assert "halo/wait" in names0

    def test_instrumentation_silent_without_tools(self):
        """With no tool registered the instrumented driver leaves no
        trace: no kernel timers for the rank markers, no rank set."""
        from repro.mpi.distributed import DistributedSimulation
        from repro.vpic.workloads import uniform_plasma_deck
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2, num_steps=1)
        with profiling_session():
            sim = DistributedSimulation(deck, 2)
            sim.run(1)
        assert current_rank() is None
        assert not tools_active()


class TestImbalanceAdjusted:
    def test_inflates_push_only(self):
        system = get_system("Selene")
        points = strong_scaling(system, [4, 8], 2_000_000, 1e8)
        adjusted = imbalance_adjusted(points, 0.25)
        for p, q in zip(points, adjusted):
            assert q.push_seconds == pytest.approx(p.push_seconds * 1.25)
            assert q.comm_seconds == p.comm_seconds
        # Slower critical path can only reduce measured speedup.
        assert speedups(adjusted, points[0])[1] <= \
            speedups(points)[1] + 1e-12

    def test_zero_is_identity_negative_rejected(self):
        p = ScalingPoint(1, 100, 1e6, 1.0, 0.1)
        assert imbalance_adjusted([p], 0.0)[0] == p
        with pytest.raises(ValueError):
            imbalance_adjusted([p], -0.1)


class TestDashboard:
    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.bench.dashboard import profile_deck
        from repro.vpic.workloads import uniform_plasma_deck
        clear_tools()
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, num_steps=2)
        return profile_deck(deck, get_platform("A100"), n_ranks=2)

    def test_bundle_carries_full_attribution(self, bundle):
        assert bundle.n_ranks == 2 and bundle.steps == 2
        assert "push/electron" in bundle.roofline.entries
        assert bundle.rank_report.n_ranks == 2
        names = {r["name"] for r in bundle.kernel_rows}
        assert {"push/electron", "halo/exchange"} <= names

    def test_roofline_point_matches_fresh_prediction(self, bundle):
        """Acceptance criterion: the dashboard's per-kernel roofline
        point equals ``perfmodel.predict`` on the same binding."""
        entry = bundle.roofline.entries["push/electron"]
        c = entry.counters
        assert entry.point.gflops == pytest.approx(
            c.flops / c.modeled_seconds / 1e9, rel=0, abs=0)
        assert entry.point.arithmetic_intensity == pytest.approx(
            c.flops / c.dram_bytes, rel=0, abs=0)

    def test_html_is_self_contained(self, bundle, tmp_path):
        from repro.bench.dashboard import (render_dashboard,
                                           save_dashboard)
        html_doc = render_dashboard(bundle)
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "http://" not in html_doc and "https://" not in html_doc
        # roofline + rank bars, + the lane-occupancy bar whenever the
        # run recorded step_lane/* counters
        has_lanes = "Lane occupancy" in html_doc
        assert html_doc.count("<svg") == (3 if has_lanes else 2)
        assert "push/electron" in html_doc
        assert "rank 0" in html_doc and "rank 1" in html_doc
        assert "prefers-color-scheme" in html_doc
        path = tmp_path / "dash.html"
        save_dashboard(bundle, str(path))
        assert path.read_text() == html_doc

    def test_merged_trace_has_lane_per_rank(self, bundle, tmp_path):
        path = tmp_path / "trace.json"
        bundle.save_trace(str(path))
        doc = json.loads(path.read_text())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {0, 1, 2}           # 2 ranks + collective

    def test_rank_native_push_is_counted_once_under_push(self):
        """A rank's native push is one C call whose measured seconds
        are drained onto ``push/<species>``: no ``native_push`` span
        sits beside them in a rank's ``other`` bucket (threads backend,
        where the rank's spans share its lane), so busy time and the
        halo wait fraction count each second of the push once."""
        from repro.bench.dashboard import profile_deck
        from repro.vpic import native
        from repro.vpic.workloads import make_deck
        if not native.native_available():
            pytest.skip("needs the compiled kernels")
        bundle = profile_deck(make_deck("uniform", steps=4),
                              get_platform("A100"), n_ranks=2)
        profiler = bundle.rank_profiler
        for tracer in profiler.rank_tracers:
            kinds = {(profiler._classify(s.name, s.cat), s.name)
                     for s in tracer.spans()}
            assert ("push", "push/electron") in kinds
            assert not [name for kind, name in kinds
                        if kind == "other" and "native_push" in name]

    def test_rank_push_counts_the_whole_native_push_phase(self,
                                                          monkeypatch):
        """Each rank's ``push`` seconds hold at least the whole C push
        phase it drained (``res["push"]``: the species' pushes and the
        field-table build), not only the per-species seconds."""
        from repro.bench.dashboard import profile_deck
        from repro.vpic import native
        from repro.vpic.workloads import make_deck
        if not native.native_available():
            pytest.skip("needs the compiled kernels")
        drained = [0.0, 0.0]
        push_simulation = native.push_simulation

        def spy(rank_state):
            res = push_simulation(rank_state)
            drained[rank_state.rank] += res["push"]
            return res

        monkeypatch.setattr(native, "push_simulation", spy)
        bundle = profile_deck(make_deck("uniform", steps=4),
                              get_platform("A100"), n_ranks=2)
        push = bundle.rank_report.push_seconds
        assert all(d > 0 for d in drained)
        for rank in range(2):
            assert push[rank] >= drained[rank] * (1 - 1e-6)

    def test_strips_field_init_for_distributed_run(self):
        from repro.bench.dashboard import profile_deck
        from repro.vpic.workloads import two_stream_deck
        deck = two_stream_deck(nx=16, ppc=4, num_steps=2)
        bundle = profile_deck(deck, get_platform("A100"), n_ranks=2)
        # Both counter-streaming beams get bound and placed.
        assert {"push/beam+", "push/beam-"} <= \
            set(bundle.roofline.entries)

    def test_baseline_deltas_normalized_per_step(self):
        from repro.bench.dashboard import baseline_deltas
        baseline = {"source": "perfbench-abc-seed0.json · observed",
                    "seconds_per_step": {"push": 0.1, "sort": 0.5}}
        deltas = baseline_deltas({"push/electron": 0.3}, 2, baseline)
        assert len(deltas) == 1            # only phases both sides ran
        d = deltas[0]
        assert d["name"] == "push"
        assert d["baseline_ms_per_step"] == pytest.approx(100.0)
        assert d["current_ms_per_step"] == pytest.approx(150.0)
        assert d["delta_fraction"] == pytest.approx(0.5)
        assert baseline_deltas({"x": 1.0}, 2, None) == []


class TestCli:
    def test_profile_command_writes_dashboard_and_trace(
            self, tmp_path, capsys):
        out = tmp_path / "p.html"
        trace = tmp_path / "t.json"
        rc = main(["profile", "uniform", "--steps", "2", "--ranks", "2",
                   "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        assert not tools_active()
        printed = capsys.readouterr().out
        assert "ridge" in printed          # ASCII roofline shown
        assert "load imbalance" in printed
        assert "<svg" in out.read_text()
        assert json.loads(trace.read_text())["otherData"]["n_ranks"] == 2

    def test_run_deck_profile_flag(self, tmp_path, capsys):
        reset_kernel_timings()
        out = tmp_path / "p.html"
        rc = main(["run-deck", "two-stream", "--steps", "2",
                   "--profile", str(out)])
        assert rc == 0
        assert not tools_active()
        doc = out.read_text()
        assert "<svg" in doc and "push/beam" in doc

    def test_report_metrics_prints_overhead(self, tmp_path, capsys):
        pytest.importorskip("scipy")
        rc = main(["report", "--metrics",
                   str(tmp_path / "m.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "instrumentation overhead" in printed
