"""Fast-path step equivalence: the StepPlan lanes vs the reference.

The fast path's contract (ISSUE 5) is strict: positions and momenta
are *bit-identical* to the reference kernel sequence, deposition
agrees with a float64-accumulated reference to 1 ulp after the final
float32 cast, threaded rank stepping is bit-identical to serial, and
the physics guard stays green on every example deck. These tests pin
each clause, for the pure-numpy fused lane and (when a C compiler is
present) the native lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tuning import StepPlan
from repro.kokkos.atomics import (AtomicCounters, collect_atomics,
                                  segment_add)
from repro.mpi.distributed import DistributedSimulation
from repro.observability.callbacks import register_tool, unregister_tool
from repro.vpic import workloads
from repro.vpic.native import native_available
from repro.vpic.scratch import ScratchArena
from repro.vpic.workloads import two_stream_deck, uniform_plasma_deck

POS_MOM = ("x", "y", "z", "ux", "uy", "uz")
FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")

#: The fused lanes under test; the native lanes join when a compiler
#: exists (ISSUE 5 requires bit-identity from the push lane, ISSUE 7
#: from the whole-step lane).
FAST_PLANS = [pytest.param(StepPlan.NUMPY_FUSED, id="numpy-fused")]
if native_available():
    FAST_PLANS.append(pytest.param(
        StepPlan.NATIVE_PUSH, id="native-push"))
    FAST_PLANS.append(pytest.param(
        StepPlan.NATIVE_STEP, id="native-step"))


def _stepped(deck, plan, steps=1):
    sim = deck.build()
    sim.step_plan = plan
    for _ in range(steps):
        sim.step()
    return sim


# -- tentpole: fast lanes vs reference ----------------------------------------


@pytest.mark.parametrize("plan", FAST_PLANS)
def test_fast_step_positions_momenta_bit_identical(plan):
    ref = _stepped(uniform_plasma_deck(seed=3), StepPlan.REFERENCE)
    fast = _stepped(uniform_plasma_deck(seed=3), plan)
    for sp_r, sp_f in zip(ref.species, fast.species):
        for attr in POS_MOM:
            assert np.array_equal(sp_r.live(attr), sp_f.live(attr)), (
                f"{sp_f.name}.{attr} differs from the reference path "
                f"under {plan}")


@pytest.mark.parametrize("plan", FAST_PLANS)
def test_fast_step_currents_within_f32_rounding(plan):
    """J differs from the f32-accumulating reference only by *its*
    accumulation rounding: the fast lanes accumulate in float64, so
    the gap is bounded by float32 epsilon on the current scale."""
    ref = _stepped(uniform_plasma_deck(seed=3), StepPlan.REFERENCE)
    fast = _stepped(uniform_plasma_deck(seed=3), plan)
    for name in ("jx", "jy", "jz"):
        a = getattr(ref.fields, name).data.astype(np.float64)
        b = getattr(fast.fields, name).data.astype(np.float64)
        scale = np.abs(a).max()
        assert np.abs(a - b).max() <= 64 * np.finfo(np.float32).eps * scale


def test_binned_deposition_one_ulp_of_f64_reference():
    """segment_add deposition == an independently ordered float64
    accumulation to 1 ulp after the float32 cast."""
    rng = np.random.default_rng(11)
    deck = uniform_plasma_deck(seed=3)
    sim = deck.build()
    g = sim.grid
    n = 20_000
    keys = rng.integers(0, g.n_voxels, size=8 * n).astype(np.int64)
    vals = rng.normal(size=8 * n).astype(np.float32)

    target = np.zeros(g.n_voxels, dtype=np.float32)
    segment_add(target, keys, vals)

    truth64 = np.zeros(g.n_voxels, dtype=np.float64)
    np.add.at(truth64, keys[::-1], vals[::-1].astype(np.float64))
    truth = truth64.astype(np.float32)

    ulp = np.spacing(np.maximum(np.abs(truth), np.abs(target)))
    assert np.all(np.abs(target.astype(np.float64)
                         - truth.astype(np.float64)) <= ulp)


@pytest.mark.parametrize("plan", FAST_PLANS)
def test_multi_step_trajectories_match_numpy_and_native(plan):
    """Both fast lanes produce the same multi-step trajectory (they
    perform the same f32 op sequence; only deposition accumulation
    order differs between them, and that is f64)."""
    base = _stepped(uniform_plasma_deck(seed=5), StepPlan.NUMPY_FUSED,
                    steps=5)
    other = _stepped(uniform_plasma_deck(seed=5), plan, steps=5)
    for sp_a, sp_b in zip(base.species, other.species):
        for attr in POS_MOM:
            a, b = sp_a.live(attr), sp_b.live(attr)
            np.testing.assert_allclose(a, b, rtol=2e-5, atol=1e-7)


def test_reference_plan_unchanged_by_default_plan_existence():
    """The reference lane asked for through ``run`` (which resolves the
    lane and hands it to ``step``) takes the same original sequence as
    stepping one call at a time — bit for bit over three steps."""
    ref = uniform_plasma_deck(seed=0).build()
    ref.step_plan = StepPlan.REFERENCE
    ref.run(3)
    again = _stepped(uniform_plasma_deck(seed=0),
                     StepPlan.REFERENCE, steps=3)
    for sp_a, sp_b in zip(ref.species, again.species):
        for attr in POS_MOM:
            assert np.array_equal(sp_a.live(attr), sp_b.live(attr))


def test_fast_step_voxels_refresh_lazily():
    sim = _stepped(uniform_plasma_deck(seed=1), StepPlan.NATIVE_STEP)
    sp = sim.species[0]
    g = sim.grid
    vox = sp.live("voxel")
    # cell_of_position is already ghost-offset (interior cell 0 -> 1).
    ix, iy, iz = g.cell_of_position(*sp.positions())
    expected = (ix * (g.ny + 2) + iy) * (g.nz + 2) + iz
    np.testing.assert_array_equal(vox, expected)
    assert not sp._voxels_stale


# -- threaded rank stepping ----------------------------------------------------


def test_threaded_rank_stepping_bit_identical_to_serial():
    def run():
        sim = DistributedSimulation(two_stream_deck(seed=7), 4)
        sim.run(5)
        return sim

    # An interposing tool (one without ``native_telemetry_ok``) is one
    # of the conditions that keep ranks on the serial loop.
    tool = register_tool(object())
    try:
        serial = run()
        assert not serial._threading_ok(serial.lane())
    finally:
        unregister_tool(tool)
    threaded = run()
    assert threaded._threading_ok(threaded.lane())
    try:
        for ra, rb in zip(serial.ranks, threaded.ranks):
            for sa, sb in zip(ra.species, rb.species):
                assert sa.n == sb.n
                for attr in POS_MOM + ("w",):
                    assert np.array_equal(sa.live(attr), sb.live(attr))
            for name in FIELDS:
                assert np.array_equal(getattr(ra.fields, name).data,
                                      getattr(rb.fields, name).data)
        assert np.isclose(serial.total_kinetic_energy(),
                          threaded.total_kinetic_energy(), rtol=0)
    finally:
        threaded.close()


def test_threaded_ranks_disabled_under_accounting():
    sim = DistributedSimulation(two_stream_deck(seed=7), 2)
    assert sim._threading_ok(sim.lane())
    with collect_atomics():
        assert not sim._threading_ok(sim.lane())
    sim.plan = StepPlan.REFERENCE
    assert not sim._threading_ok(sim.lane())


# -- guard stays green on every example deck -----------------------------------


@pytest.mark.parametrize("factory", [
    workloads.uniform_plasma_deck,
    workloads.two_stream_deck,
    workloads.weibel_deck,
    workloads.laser_plasma_deck,
    workloads.harris_sheet_deck,
], ids=["uniform", "two-stream", "weibel", "laser-plasma", "harris"])
def test_guard_green_under_fast_path(factory):
    from repro.validate import SimulationGuard

    sim = factory(seed=0).build()
    assert sim.step_plan == StepPlan.NATIVE_STEP
    guard = SimulationGuard(policy="raise")
    guard.attach(sim)
    sim.run(3)   # raises on any invariant violation


# -- satellites: sampled counters, arena, plan plumbing ------------------------


def test_sampled_counters_match_exact_distinct():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 500, size=4000)
    exact = AtomicCounters()
    exact.observe(idx)
    assert exact.distinct_targets == np.unique(idx).size
    assert exact.conflicts == idx.size - np.unique(idx).size
    assert exact.operations == idx.size
    assert exact.conflict_fraction == pytest.approx(
        (idx.size - np.unique(idx).size) / idx.size)


def test_sampled_counters_skip_unsampled_calls():
    rng = np.random.default_rng(3)
    tally = AtomicCounters(sample_every=4)
    chunks = [rng.integers(0, 100, size=256) for _ in range(8)]
    for c in chunks:
        tally.observe(c)
    assert tally.calls == 8
    assert tally.operations == 8 * 256
    assert tally.sampled_calls == 2          # calls 1 and 5
    assert tally.sampled_operations == 2 * 256
    expected = sum(np.unique(c).size for c in (chunks[0], chunks[4]))
    assert tally.distinct_targets == expected
    assert 0.0 < tally.conflict_fraction < 1.0


def test_sampled_counters_sparse_keys_fall_back_to_unique():
    idx = np.array([0, 10**12, 10**12, 5], dtype=np.int64)
    tally = AtomicCounters()
    tally.observe(idx)    # span >> 4n: bincount would explode
    assert tally.distinct_targets == 3
    assert tally.conflicts == 1


def test_scratch_arena_reuses_buffers():
    arena = ScratchArena()
    a = arena.buf("x", 100, np.float32)
    b = arena.buf("x", 100, np.float32)
    assert a is b
    c = arena.buf("x", 200, np.float32)
    assert c is not a and c.shape == (200,)
    z = arena.zeros("acc", 50, np.float64)
    z[:] = 3.0
    assert arena.zeros("acc", 50, np.float64)[0] == 0.0
    assert "acc" in arena and len(arena) == 2
    assert arena.nbytes > 0


def test_fast_step_zero_arena_growth_in_steady_state():
    sim = uniform_plasma_deck(seed=0).build()
    for _ in range(3):
        sim.step()
    before = sim._arena.nbytes
    for _ in range(4):
        sim.step()
    assert sim._arena.nbytes == before


def test_step_plan_strings_and_defaults():
    assert [str(plan) for plan in StepPlan] == [
        "native-step", "native-push", "numpy-fused", "numpy", "reference"]
    assert uniform_plasma_deck().build().step_plan is StepPlan.NATIVE_STEP
    assert StepPlan("native-push") is StepPlan.NATIVE_PUSH


def test_esirkepov_binned_matches_atomic():
    """The binned Esirkepov path reproduces the atomic scatter to f32
    accumulation tolerance (charge conservation is covered by the
    existing esirkepov tests; this pins the segment-reduction port)."""
    from repro.vpic.esirkepov import deposit_current_esirkepov
    from repro.vpic.fields import FieldArrays
    from repro.vpic.grid import Grid

    rng = np.random.default_rng(9)
    g = Grid(8, 8, 8, 0.5, 0.5, 0.5)
    n = 500
    x0 = rng.uniform(0.2, 3.8, n)
    y0 = rng.uniform(0.2, 3.8, n)
    z0 = rng.uniform(0.2, 3.8, n)
    x1 = x0 + rng.uniform(-0.2, 0.2, n)
    y1 = y0 + rng.uniform(-0.2, 0.2, n)
    z1 = z0 + rng.uniform(-0.2, 0.2, n)
    w = np.ones(n, dtype=np.float32)

    fa = FieldArrays(g)
    fb = FieldArrays(g)
    deposit_current_esirkepov(fa, x0, y0, z0, x1, y1, z1, w, -1.0,
                              g.dt, binned=False)
    deposit_current_esirkepov(fb, x0, y0, z0, x1, y1, z1, w, -1.0,
                              g.dt, binned=True)
    for name in ("jx", "jy", "jz"):
        a = getattr(fa, name).data.astype(np.float64)
        b = getattr(fb, name).data.astype(np.float64)
        scale = max(np.abs(a).max(), 1e-30)
        assert np.abs(a - b).max() <= 64 * np.finfo(np.float32).eps * scale


def test_accounting_disables_native_but_keeps_attribution():
    """Under collect_atomics the step must route deposition through
    observed scatters (native would bypass the counters)."""
    sim = uniform_plasma_deck(seed=0).build()
    with collect_atomics() as tally:
        sim.step()
    assert tally.operations > 0
    assert tally.conflicts > 0
