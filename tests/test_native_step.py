"""Whole-step native lane (ISSUE 7): C fields+push+sort vs numpy.

The lane's contract is strict bit-identity: the C Yee advances, ghost
syncs, current folds, fused pushes, and counting sorts perform the
same float32 operations in the same order as the numpy reference, so
every array — particles and all nine field components — must match
byte for byte. These tests need a C compiler; without one they skip
(never fail).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.vpic import native, workloads
from repro.vpic.native import (field_advance_b, field_advance_e,
                               native_available, native_build_key,
                               native_status)

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native_available(),
                       reason=f"no native lane: {native_status()}"),
]

PARTICLE = ("x", "y", "z", "ux", "uy", "uz", "w", "voxel", "tag")
FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")

DECKS = [
    pytest.param(workloads.uniform_plasma_deck, id="uniform"),
    pytest.param(workloads.two_stream_deck, id="two-stream"),
    pytest.param(workloads.weibel_deck, id="weibel"),
    pytest.param(workloads.laser_plasma_deck, id="laser-plasma"),
    pytest.param(workloads.harris_sheet_deck, id="harris"),
]


def _run(deck_factory, scope, steps, sort_interval=None):
    sim = deck_factory(seed=3).build()
    sim.step_plan = StepPlan(f"native-{scope}")
    if sort_interval is not None:
        sim.sort_step.interval = sort_interval
    for _ in range(steps):
        sim.step()
    return sim


def _assert_sims_identical(a, b, what):
    for sp_a, sp_b in zip(a.species, b.species):
        assert sp_a.n == sp_b.n
        for attr in PARTICLE:
            assert np.array_equal(getattr(sp_a, attr),
                                  getattr(sp_b, attr)), (
                f"{what}: {sp_a.name}.{attr} differs")
    for name in FIELDS:
        assert np.array_equal(getattr(a.fields, name).data,
                              getattr(b.fields, name).data), (
            f"{what}: fields.{name} differs")


# -- tentpole: 100-step native Yee vs FieldSolver ------------------------------


@pytest.mark.parametrize("factory", DECKS)
def test_native_yee_bit_identical_100_steps(factory):
    """100 field-only steps (half B, full E, half B) with identical
    pseudo-random currents injected each step: the C Yee kernels and
    ghost syncs must track the numpy FieldSolver bit for bit."""
    sim_c = factory(seed=0).build()
    sim_np = factory(seed=0).build()
    rng = np.random.default_rng(42)
    shape = sim_c.fields.jx.data.shape
    for step in range(100):
        j = [rng.normal(scale=1e-3, size=shape).astype(np.float32)
             for _ in range(3)]
        for sim in (sim_c, sim_np):
            for name, arr in zip(("jx", "jy", "jz"), j):
                getattr(sim.fields, name).data[...] = arr
        ok = field_advance_b(sim_c._solver, 0.5)
        ok &= field_advance_e(sim_c._solver, 1.0)
        ok &= field_advance_b(sim_c._solver, 0.5)
        assert ok, "native Yee kernel unexpectedly unavailable"
        sim_np._solver.advance_b(0.5)
        sim_np._solver.advance_e(1.0)
        sim_np._solver.advance_b(0.5)
        for name in ("ex", "ey", "ez", "bx", "by", "bz"):
            assert np.array_equal(getattr(sim_c.fields, name).data,
                                  getattr(sim_np.fields, name).data), (
                f"step {step}: {name} diverged")


# -- whole-step lane vs push lane vs numpy -------------------------------------


def test_native_step_scope_bit_identical_to_push_scope():
    """25 steps with a sort at step 20: the native-step lane (one C
    call per step, in-C sort) must equal the native-push lane (numpy
    fields + C push + Python sort) on every array, and both must
    book the same number of sorts."""
    a = _run(workloads.uniform_plasma_deck, "step", 25, sort_interval=20)
    b = _run(workloads.uniform_plasma_deck, "push", 25, sort_interval=20)
    _assert_sims_identical(a, b, "step-vs-push")
    assert a.sort_step.sorts_performed == b.sort_step.sorts_performed == 1


@pytest.mark.parametrize("factory", DECKS)
def test_native_step_bit_identical_to_numpy_on_every_deck(factory):
    """Positions/momenta bitwise and deposition to f32 rounding vs
    the pure-numpy fused lane, on every example deck (the lane falls
    back gracefully on decks its gates exclude; identity must hold
    either way)."""
    steps = 2
    fast = _run(factory, "step", steps)
    ref = factory(seed=3).build()
    ref.step_plan = StepPlan.NUMPY_FUSED
    for _ in range(steps):
        ref.step()
    for sp_a, sp_b in zip(fast.species, ref.species):
        for attr in ("x", "y", "z", "ux", "uy", "uz"):
            assert np.array_equal(getattr(sp_a, attr),
                                  getattr(sp_b, attr)), (
                f"{sp_a.name}.{attr} differs from numpy lane")
    for name in ("jx", "jy", "jz"):
        a = getattr(fast.fields, name).data.astype(np.float64)
        b = getattr(ref.fields, name).data.astype(np.float64)
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert np.all(np.abs(a - b) <= ulp), f"{name} beyond 1 ulp"


@pytest.mark.parametrize("factory", DECKS)
def test_native_step_bit_identical_with_telemetry_attached(factory):
    """100 steps with the full telemetry-compatible stack attached
    (ChromeTracer + CounterTool + detail metrics + per-step
    TimeSeriesRecorder) vs 100 bare steps: the drained native
    telemetry channel reads counters the C step fills anyway, so
    every particle and field array must stay bit-identical — the
    observe-without-perturbing contract of ISSUE 8."""
    from repro.bench.counters import CounterTool
    from repro.kokkos.callbacks import (register_tool,
                                        unregister_tool)
    from repro.machine.specs import get_platform
    from repro.observability.metrics import set_detail
    from repro.observability.timeseries import TimeSeriesRecorder
    from repro.observability.tracer import ChromeTracer

    steps = 100
    bare = _run(factory, "step", steps)

    watched = factory(seed=3).build()
    watched.step_plan = StepPlan.NATIVE_STEP
    recorder = TimeSeriesRecorder(stride=1)
    recorder.attach(watched)
    tools = [register_tool(ChromeTracer()),
             register_tool(CounterTool(get_platform("A100")))]
    set_detail(True)
    try:
        for _ in range(steps):
            watched.step()
    finally:
        set_detail(False)
        for tool in tools:
            unregister_tool(tool)

    _assert_sims_identical(bare, watched, "telemetry-on-vs-off")
    assert len(recorder.samples()) == steps


def test_default_plan_counts_every_step_on_native_step_lane():
    """A silent downgrade (broken C build, a widened gate, the plan no
    longer selecting the step scope) shows as steps counted under
    another ``step_lane/*`` or as a fallback reason, not as a slower
    clock."""
    from repro.bench.dashboard import lane_occupancy
    from repro.observability.metrics import default_registry

    default_registry().reset()
    sim = workloads.uniform_plasma_deck(seed=0).build()
    assert sim.step_plan == StepPlan.NATIVE_STEP
    assert sim.native_fallback_reason() is None
    steps = 6
    sim.run(steps)
    counters = default_registry().snapshot()["counters"]
    assert lane_occupancy(counters) == {"native-step": steps}


# -- satellite 1: build status freshness ---------------------------------------


def test_native_status_reflects_latest_build_and_key():
    """native_status() must describe the *most recent* build attempt
    and carry the cache key; a rebuild with different flags refreshes
    both."""
    try:
        assert native_available()
        status = native_status()
        key = native_build_key()
        assert key and f"[key {key}]" in status
        assert native.rebuild(native._PORTABLE_CFLAGS) is not None
        portable_status = native_status()
        portable_key = native_build_key()
        assert portable_key and portable_key != key
        assert f"[key {portable_key}]" in portable_status
        assert portable_status != status
    finally:
        # Restore the default fast-flag build for later tests.
        native.rebuild()
    assert native_build_key() == key
    assert f"[key {key}]" in native_status()
