"""Native field solve, Mur boundary and counting sort under the
kernel-by-kernel step (ISSUE 13) vs the numpy code they replace.

The contract is the other native kernels': every field array, every
particle array and the Mur history byte for byte equal to the numpy
path, which stays as the no-compiler fallback and the oracle. These
tests need a C compiler; without one they skip.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.core.sorting import SortKind
from repro.observability.metrics import default_registry, set_detail
from repro.vpic import native
from repro.vpic.absorbing import AbsorbingFieldSolver
from repro.vpic.checkpoint import (load_checkpoint, restore_state_into,
                                   save_checkpoint)
from repro.vpic.deck import FieldBoundaryKind
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid
from repro.vpic.simulation import Simulation
from repro.vpic.sort_step import SortStep
from repro.vpic.species import Species
from repro.vpic.workloads import (beam_plasma_deck, laser_wakefield_deck,
                                  uniform_plasma_deck)

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]

FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
ON = "; fields and sort on native kernels"
OFF = "; fields and sort on numpy ("


def _digest(sim) -> str:
    """sha256 of the full state: fields, live particle arrays (voxel
    and tag included) and the Mur history."""
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        h.update(str(sp.n).encode())
        for attr in Species._ARRAYS:
            h.update(sp.live(attr).tobytes())
    mur = getattr(sim.solver, "mur", None)
    if mur is not None:
        for _, plane in mur.history_items():
            h.update(plane.tobytes())
    return h.hexdigest()


def _kernels_off(monkeypatch, sim):
    """The parent commit's configuration on one sim: whatever push the
    lane takes, numpy field solve and Python sort."""
    lane = sim.lane
    monkeypatch.setattr(sim, "lane", lambda: lane()._replace(kernels=None))


# -- solver kernels vs numpy ---------------------------------------------------


def _random_solver_pair(cls, shape, seed=3):
    """(native solver, numpy solver) of *cls* over identical random
    float32 fields, ghost layers included."""
    pair = []
    for on in (True, False):
        grid = Grid(*shape, dx=0.5, dy=0.4, dz=0.3)
        fields = FieldArrays(grid)
        rng = np.random.default_rng(seed)
        for name in FIELDS:
            arr = getattr(fields, name).data
            arr[...] = rng.normal(size=arr.shape).astype(np.float32)
        # The history is read at construction: build after the fill.
        solver = cls(fields)
        if on:
            solver.kernels = native.native_push_kernel()
        pair.append(solver)
    return pair


def _assert_fields_equal(a, b, names=FIELDS):
    for name in names:
        x = getattr(a.fields, name).data
        y = getattr(b.fields, name).data
        assert x.tobytes() == y.tobytes(), f"{name} differs"


@pytest.mark.parametrize("shape", [(6, 5, 4), (1, 1, 1), (2, 7, 1),
                                   (16, 2, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_mur_and_absorbing_sync_match_numpy_over_50_applies(shape):
    """50 leapfrog field cycles on random float32 fields: both sides,
    the E and the B table, every ghost plane (the x ones the Mur
    update owns, the y/z ones the absorbing sync fills) and the
    history block byte-equal after each cycle."""
    a, b = _random_solver_pair(AbsorbingFieldSolver, shape)
    for _ in range(50):
        for solver in (a, b):
            solver.advance_b(0.5)
            solver.reduce_ghost_currents()
            solver.advance_b(0.5, sync=False)
            solver.advance_e(1.0)
        _assert_fields_equal(a, b)
        for (ka, pa), (kb, pb) in zip(a.mur.history_items(),
                                      b.mur.history_items()):
            assert ka == kb and pa.tobytes() == pb.tobytes(), ka


@pytest.mark.parametrize("shape", [(6, 5, 4), (1, 1, 1), (3, 1, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_periodic_solver_matches_numpy(shape):
    a, b = _random_solver_pair(FieldSolver, shape)
    for _ in range(10):
        for solver in (a, b):
            solver.advance_b(0.5)
            solver.reduce_ghost_currents()
            solver.advance_b(0.5, sync=False)
            solver.advance_e(1.0)
        _assert_fields_equal(a, b)


def test_other_absorbing_axes_are_refused():
    grid = Grid(4, 4, 4)
    solver = AbsorbingFieldSolver(FieldArrays(grid), axes=(1,))
    solver.kernels = native.native_push_kernel()
    with pytest.raises(ValueError, match="absorbing axes"):
        solver.advance_b(0.5)
    sim = Simulation(grid=grid, fields=solver.fields, species=[],
                     field_boundary=FieldBoundaryKind.ABSORBING_X)
    sim._solver = solver
    assert sim.lane().kernels is None
    assert sim.native_fallback_reason().endswith(
        OFF + "absorbing axes (1,))")


# -- whole runs: default plan vs native=False vs the pre-change path ----------


@pytest.mark.parametrize("deck,steps", [
    (laser_wakefield_deck, 200),
    (beam_plasma_deck, 40),
], ids=["wakefield-200", "beam-plasma-40"])
def test_runs_are_sha256_identical_across_plans(monkeypatch, deck, steps):
    digests = {}
    for label, plan in (("default", StepPlan.NATIVE_STEP),
                        ("native=False", StepPlan.NUMPY_FUSED),
                        ("pre-change", StepPlan.NATIVE_STEP)):
        sim = deck(num_steps=steps).build()
        sim.step_plan = plan
        if label == "pre-change":
            _kernels_off(monkeypatch, sim)
        on = label == "default"
        if label != "pre-change":
            assert sim.native_fallback_reason().endswith(ON) is on
        assert (sim.lane().kernels is not None) is on
        sim.run(steps)
        assert (sim.solver.kernels is not None) is on
        # Only worth its name if the run crossed sorts and shifts.
        assert sim.sort_step.sorts_performed > 0
        if deck is laser_wakefield_deck:
            assert sim.sources[1].shifts_applied > 20
        digests[label] = _digest(sim)
    assert len(set(digests.values())) == 1, digests


def test_gate_follows_the_current_plan():
    """The CLI swaps ``step_plan`` after construction; the dispatch
    must follow it step by step, both ways."""
    sim = laser_wakefield_deck(num_steps=4).build()
    sim.step()
    assert sim.solver.kernels is not None
    sim.step_plan = StepPlan.REFERENCE
    sim.step()
    assert sim.solver.kernels is None
    assert sim.native_fallback_reason() == "reference StepPlan pinned"
    sim.step_plan = StepPlan.NATIVE_STEP
    sim.step()
    assert sim.solver.kernels is not None


def test_no_compiler_takes_numpy_and_says_so(monkeypatch):
    with_kernels = laser_wakefield_deck(num_steps=30).build()
    with_kernels.run(30)
    monkeypatch.setattr(native, "native_push_kernel", lambda: None)
    monkeypatch.setattr(native, "native_status",
                        lambda: "no C compiler on PATH")
    sim = laser_wakefield_deck(num_steps=30).build()
    assert sim.native_fallback_reason().endswith(
        "; fields and sort on numpy (no compiled kernel "
        "(no C compiler on PATH))")
    sim.run(30)
    assert sim.solver.kernels is None
    assert _digest(sim) == _digest(with_kernels)


def test_custom_solver_subclass_stays_on_numpy():
    class Tweaked(FieldSolver):
        pass

    sim = uniform_plasma_deck(nx=4, ny=4, nz=4, ppc=2,
                              num_steps=2).build()
    sim._solver = Tweaked(sim.fields)
    assert sim.native_fallback_reason() == "custom field solver Tweaked"
    assert sim.lane().kernels is None
    sim.step()
    assert sim.solver.kernels is None


# -- the sort ------------------------------------------------------------------


def _loaded_species(n, seed=0, grid=None):
    grid = grid or Grid(5, 4, 3, dx=0.5, dy=0.5, dz=0.5)
    sp = Species("e", q=-1.0, m=1.0, grid=grid, capacity=max(n, 1))
    rng = np.random.default_rng(seed)
    lx, ly, lz = grid.lengths
    sp.append(rng.random(n) * lx, rng.random(n) * ly, rng.random(n) * lz,
              rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
              rng.random(n) + 0.5)
    sp.tag[:n] = rng.integers(-1, 50, size=n)
    return sp


def _sorted_both_ways(make):
    """(native-sorted species, numpy-sorted species, native perm,
    numpy perm) from two identical species built by *make*."""
    from repro.vpic.scratch import ScratchArena
    a, b = make(), make()
    step_a = SortStep(kind=SortKind.STANDARD)
    step_b = SortStep(kind=SortKind.STANDARD)
    perm_a = step_a.apply(a, scratch=ScratchArena(),
                          kernels=native.native_push_kernel())
    perm_b = step_b.apply(b, scratch=ScratchArena())
    assert step_a.sorts_performed == step_b.sorts_performed
    return a, b, perm_a, perm_b


def _assert_species_equal(a, b):
    assert a.n == b.n
    for attr in Species._ARRAYS:
        assert a.live(attr).tobytes() == b.live(attr).tobytes(), attr


@pytest.mark.parametrize("n", [0, 1, 2, 777])
def test_native_sort_is_the_stable_argsort(n):
    a, b, perm_a, perm_b = _sorted_both_ways(lambda: _loaded_species(n))
    _assert_species_equal(a, b)
    if n == 0:
        assert perm_a is None and perm_b is None
        return
    before = _loaded_species(n)
    expect = np.argsort(before.live("voxel"), kind="stable")
    assert np.array_equal(perm_a, expect)
    assert np.array_equal(perm_b, expect)
    for attr in Species._ARRAYS:        # all nine, tag included
        assert np.array_equal(a.live(attr), before.live(attr)[expect])
    assert not a._voxels_stale


def test_native_sort_after_a_window_shift_with_stale_voxels():
    """A shift moves every particle one cell, drops the trailing
    column, appends a fresh one and only *marks* voxels stale: the
    numpy path refreshes them lazily, the kernel recomputes them."""
    def shifted():
        sim = laser_wakefield_deck(nx=12, ny=4, nz=4,
                                   num_steps=8).build()
        sim.sources[1].shift(sim, step=5)
        sp = sim.species[0]
        assert sp._voxels_stale
        return sp
    a, b, _, _ = _sorted_both_ways(shifted)
    _assert_species_equal(a, b)
    assert np.all(np.diff(a.live("voxel")) >= 0)


def test_native_sort_in_detail_mode_sets_the_disorder_gauges():
    reg = default_registry()
    set_detail(True)
    try:
        for name in ("sort/disorder_before", "sort/disorder_after"):
            reg.gauge(name).set(-1.0)
        a, b, _, _ = _sorted_both_ways(lambda: _loaded_species(500))
        gauges = reg.snapshot()["gauges"]
    finally:
        set_detail(False)
    _assert_species_equal(a, b)
    assert gauges["sort/disorder_before"] > 0.0
    assert gauges["sort/disorder_after"] == 0.0


def test_other_orderings_keep_the_numpy_sort(monkeypatch):
    lib = native.native_push_kernel()
    monkeypatch.setattr(
        type(lib), "sort_species",
        lambda *a: pytest.fail("non-STANDARD sort went native"))
    from repro.vpic.scratch import ScratchArena
    sp = _loaded_species(100)
    SortStep(kind=SortKind.STRIDED).apply(sp, scratch=ScratchArena(),
                                          kernels=lib)
    SortStep(kind=SortKind.STANDARD).apply(sp, kernels=lib)  # no arena


def test_species_of_different_capacity_share_the_sort_scratch():
    from repro.vpic.scratch import ScratchArena
    arena = ScratchArena()
    lib = native.native_push_kernel()
    big, small = _loaded_species(900, seed=1), _loaded_species(40, seed=2)
    step = SortStep(kind=SortKind.STANDARD)
    step.apply(big, scratch=arena, kernels=lib)
    perm = arena.at_least("sort_perm", 1, np.int64)
    step.apply(small, scratch=arena, kernels=lib)
    assert arena.at_least("sort_perm", 1, np.int64) is perm
    assert np.all(np.diff(small.live("voxel")) >= 0)


# -- Mur history: one block, written in place ----------------------------------


def _history_address(sim) -> int:
    return sim.solver.mur._history.__array_interface__["data"][0]


def test_history_block_survives_shift_and_both_restores(tmp_path):
    """The prepared native call holds the block's address: a window
    shift, an in-place restore and the planes' own updates must all
    write into it, never replace it."""
    sim = laser_wakefield_deck(num_steps=120).build()
    mur = sim.solver.mur
    block, address = mur._history, _history_address(sim)
    assert all(np.shares_memory(plane, block)
               for _, plane in mur.history_items())
    sim.run(100)                       # launch + ~14 shifts
    assert sim.sources[1].shifts_applied > 0
    path = save_checkpoint(sim, tmp_path / "mid.npz")
    sim.run(20)
    restore_state_into(sim, path)
    assert mur._history is block and _history_address(sim) == address
    assert sim.step_count == 100


def test_checkpoint_restore_mid_window_continues_identically(tmp_path):
    """Save mid-window (between two shifts, Mur recursion live), then
    continue three ways — uninterrupted, ``load_checkpoint``,
    ``restore_state_into`` after running ahead — on the native
    kernels, and once on numpy from the same file."""
    steps, more = 101, 60
    deck = laser_wakefield_deck(num_steps=steps + more)
    sim = deck.build()
    sim.run(steps)
    window = sim.sources[1]
    assert window.shifts_applied > 0 and not window.due(steps - 1)
    assert any(np.abs(plane).max() > 0
               for _, plane in sim.solver.mur.history_items())
    path = save_checkpoint(sim, tmp_path / "mid.npz")

    def resumed(plan=None):
        fresh = load_checkpoint(path)
        fresh.sources = list(deck.sources)
        if plan is not None:
            fresh.step_plan = plan
        return fresh

    loaded, on_numpy = resumed(), resumed(StepPlan.NUMPY_FUSED)
    sim.run(more)
    reference = _digest(sim)
    sim.run(7)                          # run ahead, then rewind
    restore_state_into(sim, path)
    for other in (loaded, on_numpy, sim):
        other.run(more)
    assert loaded.solver.kernels is not None
    assert on_numpy.solver.kernels is None
    assert _digest(loaded) == reference
    assert _digest(on_numpy) == reference
    assert _digest(sim) == reference


def test_load_history_keeps_planes_a_checkpoint_lacks():
    sim = laser_wakefield_deck(nx=8, ny=4, nz=4, num_steps=4).build()
    mur = sim.solver.mur
    for _, plane in mur.history_items():
        plane[...] = 7.0
    key = (0, True, "ez")
    mur.load_history({key: np.zeros_like(dict(mur.history_items())[key])})
    for k, plane in mur.history_items():
        assert np.all(plane == (0.0 if k == key else 7.0))
