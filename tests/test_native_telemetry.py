"""Native-lane telemetry (ISSUE 8): observe without demoting.

The whole-step C lane fills a per-phase stats struct that
``observability/native_telemetry`` drains after every native call,
synthesizing the spans / counter rows / metrics / recorder samples
the Python lanes emit live. These tests pin the contract: a
telemetry-compatible tool stack keeps the native-step lane
selected on every example deck, the synthesized events use the same
attribution scheme as the fallback lane, an interposing tool demotes
the lane with a reason that names it, the drain costs under 5% of
step time, and ``step_many`` demotes only the instrumented deck.
Needs a C compiler; skips (never fails) without one.
"""

from __future__ import annotations

import pytest

from repro.core.plan import StepPlan
from repro.vpic import workloads
from repro.vpic.native import (native_available, native_status,
                               step_team_size)
from repro.vpic.simulation import Simulation
from repro.vpic.species import Species

pytestmark = [
    pytest.mark.native,
    pytest.mark.observability,
    pytest.mark.skipif(not native_available(),
                       reason=f"no native lane: {native_status()}"),
]

DECKS = [
    pytest.param(workloads.uniform_plasma_deck, id="uniform"),
    pytest.param(workloads.two_stream_deck, id="two-stream"),
    pytest.param(workloads.weibel_deck, id="weibel"),
    pytest.param(workloads.laser_plasma_deck, id="laser-plasma"),
    pytest.param(workloads.harris_sheet_deck, id="harris"),
]


class _InterposingDummy:
    """A tool with live begin/end hooks and no native_telemetry_ok
    marker — the conservative default every unknown tool gets."""

    def begin_kernel(self, name, kernel_id):
        pass

    def end_kernel(self, name, kernel_id, seconds):
        pass


@pytest.fixture
def telemetry_stack():
    """Tracer + CounterTool + detail metrics, unregistered on exit."""
    from repro.bench.counters import CounterTool
    from repro.kokkos.callbacks import (register_tool,
                                        unregister_tool)
    from repro.kokkos.profiling import profiling_session
    from repro.machine.specs import get_platform
    from repro.observability.metrics import set_detail
    from repro.observability.tracer import ChromeTracer

    with profiling_session():
        tracer = ChromeTracer()
        counter = CounterTool(get_platform("A100"))
        register_tool(tracer)
        register_tool(counter)
        set_detail(True)
        try:
            yield tracer, counter
        finally:
            set_detail(False)
            unregister_tool(counter)
            unregister_tool(tracer)


@pytest.mark.parametrize("factory", DECKS)
def test_native_lane_stays_selected_under_telemetry(factory,
                                                    telemetry_stack):
    """Every example deck keeps the native-step lane engaged with the
    full telemetry-compatible stack attached, and the drained channel
    produces the fallback lane's attribution scheme: step-qualified
    tracer spans, counter rows with launch counts, per-step metrics
    samples."""
    from repro.observability.metrics import default_registry
    from repro.observability.timeseries import TimeSeriesRecorder

    tracer, counter = telemetry_stack
    default_registry().reset()
    sim = factory(seed=1).build()
    recorder = TimeSeriesRecorder(stride=1)
    recorder.attach(sim)
    assert sim.native_fallback_reason() is None, (
        f"telemetry stack demoted the lane: "
        f"{sim.native_fallback_reason()}")
    steps = 5
    for _ in range(steps):
        sim.step()

    spans = tracer.totals_by_name()
    assert "step/field_solve" in spans
    push_spans = [n for n in spans if n.startswith("step/native_push/")]
    assert push_spans, f"no native push spans, got {sorted(spans)}"
    for name, (seconds, count) in spans.items():
        if name.startswith("step/"):
            assert count == steps, f"{name} span count {count}"
            assert seconds > 0

    rows = {r["name"]: r for r in counter.rows()}
    assert "step/field_solve" in rows
    assert any(n.startswith("step/native_push/") for n in rows)

    counters = default_registry().snapshot()["counters"]
    assert counters.get("step_lane/native-step") == steps
    assert counters.get("native/ghost_folds", 0) >= steps
    assert len(recorder.samples()) == steps


def test_push_scope_lane_telemetry(telemetry_stack):
    """The push-scope lane's one native call per step: one
    ``native_push`` span and one ``native/step_seconds`` observation
    per step, and per species a ``push/<species>`` span carrying the
    C-measured seconds, with the crossing and fold counters."""
    from repro.kokkos.profiling import kernel_timings
    from repro.observability.metrics import default_registry

    tracer, _ = telemetry_stack
    default_registry().reset()
    sim = workloads.laser_plasma_deck(nx=16, ny=4, nz=4, seed=1).build()
    sim.species.append(Species("idle", 1.0, 4.0, sim.grid))
    sim.step_plan = StepPlan.NATIVE_PUSH
    steps = 4
    for _ in range(steps):
        sim.step()

    timers = kernel_timings()
    spans = tracer.totals_by_name()
    for name in ("step/native_push", "step/push/electron", "step/push/ion"):
        assert timers[name].launches == steps, name
        assert spans[name][1] == steps and spans[name][0] > 0, name
    assert "step/push/idle" not in timers      # no particles, no span
    snap = default_registry().snapshot()
    assert snap["counters"]["step_lane/native-push"] == steps
    assert snap["counters"]["native/ghost_folds"] == 2 * steps
    assert snap["counters"].get("native/cell_crossings", 0) > 0
    assert default_registry().histogram("native/step_seconds").count \
        == steps


def test_interposing_tool_demotes_with_named_reason():
    """An unknown tool (no native_telemetry_ok marker) demotes the
    whole-step lane, and native_fallback_reason() names its class."""
    from repro.kokkos.callbacks import (register_tool,
                                        unregister_tool)

    sim = workloads.uniform_plasma_deck(seed=1).build()
    assert sim.native_fallback_reason() is None
    dummy = register_tool(_InterposingDummy())
    try:
        assert sim.lane().label == "native-push"
        reason = sim.native_fallback_reason()
        assert reason is not None
        assert "interposing tool" in reason
        assert "_InterposingDummy" in reason
    finally:
        unregister_tool(dummy)
    assert sim.native_fallback_reason() is None


def test_drain_overhead_under_five_percent(telemetry_stack):
    """The self-measured drain cost (struct read + event synthesis)
    must stay under 5% of telemetered step wall time — the
    observability overhead budget. Best drain fraction of three
    100-step windows: long enough that a scheduler hiccup in one step
    does not move a window's fraction past the bound."""
    import time

    from repro.observability import native_telemetry

    sim = workloads.uniform_plasma_deck(seed=1,
                                        nx=16, ny=16, nz=16).build()
    sim.step()  # warm: compile + arenas
    assert sim.lane().label == "native-step"
    fractions = []
    for _ in range(3):
        native_telemetry.reset_drain_stats()
        t0 = time.perf_counter()
        for _ in range(100):
            sim.step()
        elapsed = time.perf_counter() - t0
        stats = native_telemetry.drain_stats()
        assert stats["drains"] == 100
        fractions.append(stats["seconds"] / elapsed)
    best = min(fractions)
    assert best < 0.05, (
        f"native telemetry drain is {best:.2%} of step time "
        f"(all windows: {[f'{f:.2%}' for f in fractions]}) — over "
        f"the 5% budget; the drain has gotten expensive")


def test_step_many_demotes_only_instrumented_deck(tmp_path):
    """A recorder on one deck of a batch demotes only that deck; the
    others stay on the batched native path, and the recorder's flight
    log carries a batch event naming which decks ran native."""
    from repro.observability.flight import FlightRecorder, read_events

    sims = [workloads.uniform_plasma_deck(seed=s).build()
            for s in range(3)]
    rec = FlightRecorder(str(tmp_path / "batch-run"), stride=1)
    rec.attach(sims[1])
    with rec:
        Simulation.step_many(sims, 4)
    assert [s.step_count for s in sims] == [4, 4, 4]

    events = read_events(str(tmp_path / "batch-run"))
    batches = [e for e in events if e["ev"] == "batch"]
    assert len(batches) == 1
    assert batches[0]["steps"] == 4
    assert batches[0]["decks"] == 3
    assert batches[0]["native_decks"] == [0, 2]
    assert batches[0]["interleaved_decks"] == [1]
    assert len([e for e in events if e["ev"] == "step"]) == 4


def test_run_header_carries_native_lane_state(tmp_path,
                                              telemetry_stack):
    """The flight-recorder run header states which lane the run will
    take — 'step' with a compatible stack, 'fallback' plus the
    reason once an interposing tool appears."""
    from repro.kokkos.callbacks import (register_tool,
                                        unregister_tool)
    from repro.observability.flight import FlightRecorder, read_events

    sim = workloads.uniform_plasma_deck(seed=1).build()
    rec = FlightRecorder(str(tmp_path / "native-run"), stride=1)
    rec.attach(sim)
    with rec:
        sim.run(2)
    header = read_events(str(tmp_path / "native-run"))[0]
    assert header["ev"] == "run_header"
    assert header["native_lane"] == "step"
    assert "native_fallback" not in header
    assert "compiled" in header["native_status"]

    sim2 = workloads.uniform_plasma_deck(seed=1).build()
    dummy = register_tool(_InterposingDummy())
    rec2 = FlightRecorder(str(tmp_path / "fallback-run"), stride=1)
    rec2.attach(sim2)
    try:
        with rec2:
            sim2.run(2)
    finally:
        unregister_tool(dummy)
    header2 = read_events(str(tmp_path / "fallback-run"))[0]
    assert header2["native_lane"] == "fallback"
    assert "_InterposingDummy" in header2["native_fallback"]
    # Both runs push on the step team: the whole step, then the
    # push-scope lane the interposing tool demoted the step to.
    assert header["native_threads"] == header2["native_threads"] \
        == step_team_size(sim2)
