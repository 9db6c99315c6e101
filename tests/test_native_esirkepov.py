"""Native Esirkepov push kernel (ISSUE 12) vs the numpy oracle.

The kernel's contract is the whole-step lane's: positions, momenta
and J byte for byte equal to the numpy kernel-by-kernel sequence
(``deposit_current_esirkepov(binned=True)``) — the C deposit replays
its increments in bincount order, so even the float64 accumulation
matches. The kernel is the Esirkepov branch of the one native push
entry, ``push_deck`` on the packed deck: a kernel sim pushes through
``Simulation.push_step``, which wraps on a zero origin, and its oracle
through ``Simulation.push_species`` and the boundary pass. These tests
need a C compiler; without one they skip.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.vpic.simulation as simulation
from repro.core.plan import StepPlan
from repro.kokkos.atomics import collect_atomics
from repro.validate.checks import ContinuityCheck, default_checks
from repro.validate.guard import SimulationGuard
from repro.vpic import native, workloads
from repro.vpic.boundary import BoundaryKind, apply_particle_boundaries
from repro.vpic.deck import Deck, DepositionKind, SpeciesConfig
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid
from repro.vpic.simulation import Simulation
from repro.vpic.species import Species

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]

PARTICLE = ("x", "y", "z", "ux", "uy", "uz")
EB = ("ex", "ey", "ez", "bx", "by", "bz")
J = ("jx", "jy", "jz")
ON = "push on the native Esirkepov kernel"


def _deck(nx, ny, nz, **kw):
    args = dict(name="esk", nx=nx, ny=ny, nz=nz, num_steps=4, seed=2,
                deposition=DepositionKind.ESIRKEPOV,
                species=(SpeciesConfig("e", q=-1.0, m=1.0, ppc=8,
                                       uth=0.6),
                         SpeciesConfig("i", q=1.0, m=4.0, ppc=3,
                                       uth=0.2, weight=2.0)))
    args.update(kw)
    return Deck(**args)


def _pair(deck, mutate=None):
    """(kernel sim, numpy-oracle sim) in the same state: random E and
    B so gather and Boris do real work, then *mutate* on both."""
    sims = []
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        sim = deck.build()
        sim.step_plan = plan
        rng = np.random.default_rng(5)
        for name in EB:
            arr = getattr(sim.fields, name).data
            arr[...] = rng.normal(scale=0.05, size=arr.shape)
        if mutate is not None:
            mutate(sim)
        sims.append(sim)
    assert sims[0].lane().native_push
    assert not sims[1].lane().native_push
    return sims


def _push(sim):
    """One particle phase on *sim*'s lane: the native push in one
    ``push_step`` (wrapped on a zero origin), else ``push_species`` per
    species (unwrapped)."""
    if sim.lane().native_push:
        sim.push_step()
    else:
        for sp in sim.species:
            sim.push_species(sp)


def _push_pair(a, b):
    """One particle phase on the kernel sim *a* and the oracle *b*, the
    oracle's boundary pass where the kernel wrapped; asserts particles
    and raw (unfolded) J identical. Returns the oracle's positions
    before its boundary pass, per species."""
    _push(a)
    _push(b)
    moved = [tuple(p.copy() for p in sp.positions()) for sp in b.species]
    if native.push_wraps(a):
        for sp in b.species:
            apply_particle_boundaries(sp, b.boundary)
    _assert_identical(a, b, J)
    return moved


def _push_both(deck, mutate=None):
    """:func:`_push_pair` on a fresh pair of *deck*; returns the kernel
    sim and the oracle's unwrapped positions."""
    a, b = _pair(deck, mutate)
    return a, _push_pair(a, b)


def _assert_identical(a, b, fields):
    for sa, sb in zip(a.species, b.species):
        assert sa.n == sb.n
        for attr in PARTICLE:
            assert np.array_equal(sa.live(attr), sb.live(attr)), \
                f"{sa.name}.{attr} differs"
    for name in fields:
        assert np.array_equal(getattr(a.fields, name).data,
                              getattr(b.fields, name).data), \
            f"fields.{name} differs"


def _numpy_deposits(monkeypatch):
    """Count calls into the numpy Esirkepov deposit (the oracle)."""
    calls = []
    real = simulation.deposit_current_esirkepov
    monkeypatch.setattr(
        simulation, "deposit_current_esirkepov",
        lambda *a, **kw: (calls.append(1), real(*a, **kw)))
    return calls


def _digest(sim):
    h = hashlib.sha256()
    for sp in sim.species:
        for attr in PARTICLE:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


# -- kernel vs deposit_current_esirkepov(binned=True) --------------------------


@pytest.mark.parametrize("shape", [(8, 8, 8), (16, 2, 2), (2, 2, 2),
                                   (5, 3, 1)],
                         ids=lambda s: "x".join(map(str, s)))
def test_random_subcell_moves_match_numpy(shape):
    """Hot thermal species under the Courant dt: every move is
    sub-cell, plenty cross cell faces and the periodic boundary. The
    2-cell axes (beam-plasma is ny = nz = 2) put the stencil's third
    node one past the high ghost, where it wraps onto node 2."""
    sim, _ = _push_both(_deck(*shape))
    assert any(np.abs(getattr(sim.fields, n).data).max() > 0 for n in J)


def test_kernel_replaces_the_numpy_deposit(monkeypatch):
    calls = _numpy_deposits(monkeypatch)
    _push_both(_deck(4, 4, 4))
    # one call per species, all from the numpy-oracle sim
    assert len(calls) == 2


def test_continuity_within_guard_bound():
    """One guarded step on the kernel: the ContinuityCheck's own
    bound, evaluated on that very step (cadence 1)."""
    a, b = _pair(_deck(6, 4, 2))
    for sim in (a, b):
        guard = SimulationGuard([ContinuityCheck(cadence=1)],
                                policy="raise")
        guard.attach(sim)
        sim.step()
        assert guard.report.steps_guarded == 1
        assert not guard.report.events
    _assert_identical(a, b, EB + J)


# -- the edge cases the numpy kernel documents ---------------------------------


def _edge_particles(sim):
    """Overwrite the first particles of every species with the
    endpoints the numpy kernel special-cases, on every axis."""
    g = sim.grid
    for sp in sim.species:
        for axis, (pos, mom, length) in enumerate(zip(
                sp.positions(), sp.momenta(), g.lengths)):
            k = 6 * axis
            # start exactly on the high box edge (a float32 wrap
            # artifact), moving either way
            pos[k:k + 2] = np.float32(length)
            mom[k:k + 2] = (-0.8, 0.8)
            # endpoint in the high / low ghost cell
            pos[k + 2] = np.float32(length * (1 - 1e-3))
            mom[k + 2] = 3.0
            pos[k + 3] = np.float32(length * 1e-3)
            mom[k + 3] = -3.0
            # start exactly on the low edge and on an interior face
            pos[k + 4] = 0.0
            mom[k + 4] = -0.5
            pos[k + 5] = np.float32(g.dx)
            mom[k + 5] = 0.0


@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 2, 2), (2, 2, 2),
                                   (1, 1, 1)],
                         ids=lambda s: "x".join(map(str, s)))
def test_box_edge_and_ghost_endpoints(shape):
    sim, moved = _push_both(_deck(*shape, species=(
        SpeciesConfig("e", q=-1.0, m=1.0, ppc=24, uth=0.05),)),
        mutate=_edge_particles)
    # the crafted particles really left the box (ghost endpoints)
    x = moved[0][0]
    assert (x > sim.grid.lengths[0]).any()
    assert (x < 0).any()


def test_empty_species_is_a_noop():
    grid = Grid(4, 4, 4, dx=0.5, dy=0.5, dz=0.5)
    fields = FieldArrays(grid)
    fields.jx.data[...] = 1.5
    sim = Simulation(grid=grid, fields=fields,
                     species=[Species("e", -1.0, 1.0, grid)],
                     deposition=DepositionKind.ESIRKEPOV)
    assert sim.lane().native_push
    assert sim.push_step() == 0
    assert np.all(fields.jx.data == 1.5)
    assert not fields.jy.data.any()


def _fast_particle_sim(plan):
    # dt far past the Courant limit: u = 5 moves ~2 cells per step.
    grid = Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5, dt=1.0)
    sp = Species("e", -1.0, 1.0, grid)
    one = np.ones(1, dtype=np.float32)
    sp.append(one * 1.3, one * 1.3, one * 1.3, one * 5.0, one * 0, one * 0,
              one)
    return Simulation(grid=grid, fields=FieldArrays(grid), species=[sp],
                      deposition=DepositionKind.ESIRKEPOV, step_plan=plan)


def test_supercell_move_raises_like_numpy():
    messages = []
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        sim = _fast_particle_sim(plan)
        with pytest.raises(ValueError, match="sub-cell") as exc:
            _push(sim)
        messages.append(str(exc.value))
        assert not sim.fields.jx.data.any()
    assert messages[0] == messages[1]


# -- whole decks: 50 steps, kernel vs StepPlan.NUMPY_FUSED --------------------


@pytest.mark.parametrize("name,kw", [("beam-plasma", {}),
                                     ("reconnection", {"scale": 0.5})],
                         ids=["beam-plasma", "reconnection-0.5"])
def test_zoo_decks_50_steps_sha256_identical(name, kw):
    deck = workloads.DECK_BUILDERS[name](num_steps=50, seed=1, **kw)
    digests = []
    for plan, on_kernel in ((StepPlan.NATIVE_STEP, True),
                            (StepPlan.NUMPY_FUSED, False)):
        sim = deck.build()
        sim.step_plan = plan
        assert (ON in sim.native_fallback_reason()) is on_kernel
        guard = SimulationGuard(default_checks(), policy="raise",
                                checkpoint_interval=0)
        guard.attach(sim)
        sim.run(50)
        assert guard.report.steps_guarded == 50
        digests.append(_digest(sim))
    assert digests[0] == digests[1]


# -- gates: who takes numpy, and says so ------------------------------------


def test_reflecting_deck_stays_on_numpy_and_says_so(monkeypatch):
    calls = _numpy_deposits(monkeypatch)
    sim = _deck(4, 4, 4, boundary=BoundaryKind.REFLECTING).build()
    reason = sim.native_fallback_reason()
    assert "push on numpy (reflecting particles)" in reason
    sim.step()
    assert len(calls) == len(sim.species)


def test_accounting_and_float64_fields_stay_on_numpy(monkeypatch):
    calls = _numpy_deposits(monkeypatch)
    sim = _deck(4, 4, 4).build()
    with collect_atomics():
        assert "accounting" in sim.native_fallback_reason()
        sim.step()
    assert len(calls) == len(sim.species)
    grid = Grid(4, 4, 4, dx=0.5, dy=0.5, dz=0.5)
    sim64 = Simulation(grid=grid, fields=FieldArrays(grid, np.float64),
                       species=[Species("e", -1.0, 1.0, grid)],
                       deposition=DepositionKind.ESIRKEPOV)
    assert "push on numpy (float64 fields)" in \
        sim64.native_fallback_reason()


def test_no_kernel_falls_back_cleanly(monkeypatch):
    """No compiler: same decks, same numbers, through numpy."""
    deck = _deck(4, 4, 2)
    ref = deck.build()
    for _ in range(3):
        ref.step()
    monkeypatch.setattr(native, "native_push_kernel", lambda: None)
    monkeypatch.setattr(native, "_status", "no C compiler on PATH")
    calls = _numpy_deposits(monkeypatch)
    sim = deck.build()
    assert "push on numpy (no compiled kernel" in \
        sim.native_fallback_reason()
    for _ in range(3):
        sim.step()
    assert len(calls) == 3 * len(sim.species)
    _assert_identical(ref, sim, EB + J)


# -- the vectorized stage, the flat-base replay and the in-kernel wrap ---------
#
# The stage works on chunks of 64 particles, the replay on a flat stencil
# base with per-axis wrap corrections, and on a zero-origin periodic deck
# the kernel applies the wrap that ``apply_particle_boundaries`` did. The
# bytes of every output are those of the scalar kernel at commit 521ceb1
# (``GOLDEN``, recorded there on this toolchain), and of the numpy oracle.

#: Full-state sha256 (``_state_digest``) recorded at commit 521ceb1.
GOLDEN = {
    "beam-plasma": "3f3552959817c2bca5cbcba9da9a7c56"
                   "ccbd336909a3de280f9cd917689fd74f",
    "reconnection-0.5": "b50e2f0d19ae41b389923d9c80250e76"
                        "2181d9dafd296ea2612448fbefae0a4a",
    "nonfinite-push": "79935a8393eacb692a371758594f91f9"
                      "005830a26e7a3b4e43b37b26664e5ee3",
    "nonfinite-step": "fc902d8e180b1b3bf0fd15d9183b6298"
                      "67d211f9826cc99eb7a35d94e85c6eb1",
}


def _state_digest(sim):
    """sha256 of the full state: every field array, and per species its
    count and every live array (voxel and tag included)."""
    h = hashlib.sha256()
    for name in EB + J:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        h.update(str(sp.n).encode())
        for attr in Species._ARRAYS:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


#: (GOLDEN key, deck, deck kwargs, steps) of the zoo-deck goldens.
GOLDEN_RUNS = (("beam-plasma", "beam-plasma", {}, 200),
               ("reconnection-0.5", "reconnection", {"scale": 0.5}, 50))


def _boundary_passes(monkeypatch):
    """Count the step's boundary passes (one per species and step)."""
    calls = []
    real = simulation.apply_particle_boundaries
    monkeypatch.setattr(simulation, "apply_particle_boundaries",
                        lambda *a, **kw: (calls.append(1), real(*a, **kw)))
    return calls


def _in_box(sim):
    """Whether every position lies in its axis' half-open box."""
    g = sim.grid
    return all(((p >= lo) & (p < lo + length)).all()
               for sp in sim.species
               for p, lo, length in zip(sp.positions(), (g.x0, g.y0, g.z0),
                                        g.lengths))


def _golden_run(name, kw, steps, monkeypatch):
    """The deck's full state after *steps* steps, which wrap in the
    kernel: no boundary pass runs, and every position is in the box."""
    sim = workloads.DECK_BUILDERS[name](num_steps=steps, seed=1,
                                        **kw).build()
    assert sim.lane().native_push
    calls = _boundary_passes(monkeypatch)
    sim.run(steps)
    assert calls == [] and _in_box(sim)
    return _state_digest(sim)


@pytest.mark.parametrize("key,name,kw,steps", GOLDEN_RUNS,
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_zoo_decks_keep_the_golden_full_state(key, name, kw, steps,
                                              monkeypatch):
    assert _golden_run(name, kw, steps, monkeypatch) == GOLDEN[key]


def test_portable_build_same_bytes_as_host_tuned(monkeypatch):
    """The strict-IEEE flag set alone (no -march) against the host-tuned
    build: the chunked stage's selects, truncating floor and int64
    conversions vectorize differently or not at all, the bytes do
    not move."""
    digests = {}
    try:
        for flags in (native._PORTABLE_CFLAGS, native._CFLAGS):
            assert native.rebuild(flags), native.native_status()
            for key, name, kw, steps in GOLDEN_RUNS:
                digests[key, flags] = _golden_run(name, kw, steps,
                                                  monkeypatch)
    finally:
        native.rebuild()
    assert digests == {(key, flags): GOLDEN[key] for key, flags in digests}


def _sized_pair(n, shape=(8, 4, 2), origin=(0.0, 0.0, 0.0), fields=True):
    """(kernel sim, numpy-oracle sim) of one species of exactly *n*
    particles spread over the box, hot enough that many cross cell faces
    and the periodic faces. The first particles are aimed across both
    faces of every axis from the edge cells, so the stencil's slot 2
    lands past the high ghost and wraps. *fields*: random E and B."""
    rng = np.random.default_rng(n)
    grid = Grid(*shape, dx=0.5, dy=0.5, dz=0.5, x0=origin[0],
                y0=origin[1], z0=origin[2])
    lo = np.array(origin)[:, None]
    length = np.array(grid.lengths)[:, None]
    pos = lo + rng.random((3, n)) * length
    mom = rng.normal(scale=0.5, size=(3, n))
    for axis in range(3):
        for k, (frac, u) in enumerate(((0.98, 0.9), (0.02, -0.9))):
            i = 2 * axis + k
            if i < n:
                pos[axis, i] = origin[axis] + frac * grid.lengths[axis]
                mom[axis, i] = u
    e_b = {name: rng.normal(scale=0.05, size=grid.shape) for name in EB}
    sims = []
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        sp = Species("e", -1.0, 1.0, grid)
        sp.append(*pos, *mom, np.full(n, 0.7))
        sim = Simulation(grid=grid, fields=FieldArrays(grid), species=[sp],
                         deposition=DepositionKind.ESIRKEPOV, step_plan=plan)
        if fields:
            for name in EB:
                getattr(sim.fields, name).data[...] = e_b[name]
        sims.append(sim)
    return sims


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1025])
def test_species_sizes_match_numpy(n, monkeypatch):
    """Chunk edges (63, 64, 65), a tile and one (1025), one particle:
    a direct push, then three steps (wrapped in the kernel on one side,
    by the boundary pass on the other)."""
    _push_pair(*_sized_pair(n))
    a, b = _sized_pair(n)
    calls = _boundary_passes(monkeypatch)
    for k in range(3):
        a.step()
        assert len(calls) == k and _in_box(a)
        b.step()
    assert len(calls) == 3
    assert _state_digest(a) == _state_digest(b)


@pytest.mark.parametrize("shape", [(1, 1, 1), (16, 2, 2), (5, 3, 1)],
                         ids=lambda s: "x".join(map(str, s)))
def test_small_grids_wrap_slot_two_like_numpy(shape):
    a, b = _sized_pair(96, shape=shape)
    for _ in range(4):
        a.step()
        b.step()
    assert _state_digest(a) == _state_digest(b)


def _nonfinite_sim():
    """An 8x4x2 deck whose first particles sit at NaN, +inf and -inf on
    each axis in turn."""
    deck = Deck(name="esk", nx=8, ny=4, nz=2, num_steps=4, seed=2,
                deposition=DepositionKind.ESIRKEPOV,
                species=(SpeciesConfig("e", q=-1.0, m=1.0, ppc=8,
                                       uth=0.6),))
    sim = deck.build()
    sim.step_plan = StepPlan.NATIVE_STEP
    rng = np.random.default_rng(5)
    for name in EB:
        arr = getattr(sim.fields, name).data
        arr[...] = rng.normal(scale=0.05, size=arr.shape)
    for k, pos in enumerate(sim.species[0].positions()):
        pos[3 * k:3 * k + 3] = (np.nan, np.inf, -np.inf)
    return sim


def test_nonfinite_positions_keep_the_parent_bytes():
    """NaN deposits onto node 1 and +-inf clip to the box edge, as the
    scalar kernel did; the in-kernel wrap turns +-inf into NaN as
    np.mod does. The push golden is the kernel's unwrapped push (the
    packed deck's wrap flag cleared for it) and hashes the voxel array
    as the push left it, unrefreshed."""
    sim = _nonfinite_sim()
    native._pack_cached(sim, 0)[0].wrap = 0
    native.push_simulation(sim)
    sim.species[0].mark_voxels_fresh()
    assert _state_digest(sim) == GOLDEN["nonfinite-push"]
    sim = _nonfinite_sim()
    with np.errstate(invalid="ignore"):
        sim.step()
    assert _state_digest(sim) == GOLDEN["nonfinite-step"]


def test_supercell_move_in_a_step_raises_with_j_untouched(monkeypatch):
    sim = _fast_particle_sim(StepPlan.NATIVE_STEP)
    calls = _boundary_passes(monkeypatch)
    x0 = sim.species[0].live("x").copy()
    with pytest.raises(ValueError, match="sub-cell"):
        sim.step()
    # the push moved the particle, then raised before any boundary pass
    assert calls == [] and (sim.species[0].live("x") != x0).all()
    for name in J:
        assert not getattr(sim.fields, name).data.any()


@pytest.mark.parametrize("bad", [5, 1500, 2999],
                         ids=["first-tile", "second-tile", "last-tile"])
def test_supercell_move_in_any_tile_raises_with_j_untouched(bad):
    """Three tiles: a particle moving two cells in any of them fails the
    whole push (the chunks after it are not staged), J untouched."""
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        # dt far past the Courant limit: u = 5 moves ~2 cells per step
        grid = Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5, dt=1.0)
        rng = np.random.default_rng(bad)
        n = 3000
        ux = rng.normal(scale=0.05, size=n)
        ux[bad] = 5.0
        sp = Species("e", -1.0, 1.0, grid)
        sp.append(*(rng.random((3, n)) * 4.0), ux, np.zeros(n),
                  np.zeros(n), np.ones(n))
        sim = Simulation(grid=grid, fields=FieldArrays(grid), species=[sp],
                         deposition=DepositionKind.ESIRKEPOV, step_plan=plan)
        with pytest.raises(ValueError, match="sub-cell"):
            _push(sim)
        for name in J:
            assert not getattr(sim.fields, name).data.any()


def test_two_species_of_different_capacity_share_one_staging_pair():
    """Two species whose capacities differ — the second grown by
    ``append`` past the first between steps, which repacks the deck and
    resizes its one staging pair from the larger — step after step
    against the numpy sequence: positions, momenta and every field
    array bitwise equal."""
    a, b = _pair(_deck(6, 4, 2))
    rng = np.random.default_rng(9)
    g = a.grid
    extra = (*(rng.random((3, 1500)) * np.array(g.lengths)[:, None]),
             *rng.normal(scale=0.3, size=(3, 1500)), np.full(1500, 0.5))
    for k in range(5):
        if k == 2:
            for sim in (a, b):
                sim.species[1].append(*extra)
        for sim in (a, b):
            sim.step()
        _assert_identical(a, b, EB + J)
    e, i = a.species
    assert i.capacity > e.capacity and i.n > e.capacity


def test_supercell_move_in_a_later_species_keeps_the_earlier_fold():
    """The second species' move spans two cells: the push raises, the
    first species' fold is exactly the numpy one and the second left no
    trace in J; both species' particles are still pushed as numpy
    pushes them (the first wrapped, the second advanced)."""
    # dt far past the Courant limit: u = 20 moves ~2 cells per step
    grid = Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5, dt=1.0)
    rng = np.random.default_rng(3)
    pos = rng.random((3, 700)) * 4.0
    mom = rng.normal(scale=0.05, size=(3, 700))
    one = np.ones(1)
    sims = []
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        slow = Species("e", -1.0, 1.0, grid)
        slow.append(*pos, *mom, np.ones(700))
        fast = Species("i", 1.0, 4.0, grid)
        fast.append(one * 1.3, one * 1.3, one * 1.3, one * 20.0, one * 0,
                    one * 0, one)
        sims.append(Simulation(grid=grid, fields=FieldArrays(grid),
                               species=[slow, fast],
                               deposition=DepositionKind.ESIRKEPOV,
                               step_plan=plan))
    a, b = sims
    with pytest.raises(ValueError, match="sub-cell"):
        a.push_step()
    b.push_species(b.species[0])
    apply_particle_boundaries(b.species[0], b.boundary)
    for name in J:
        assert getattr(a.fields, name).data.any()
    with pytest.raises(ValueError, match="sub-cell"):
        b.push_species(b.species[1])
    _assert_identical(a, b, J)


def test_kernel_wrap_matches_the_boundary_pass(monkeypatch):
    """No fields, particles at rest exactly on 0, on L (wraps to 0) and
    one float32 step below L, among moving ones: the kernel's wrap
    against the kernel's unwrapped push followed by the boundary pass,
    and the wraps counted on native/cell_crossings."""
    from repro.observability.metrics import default_registry

    def place(sims):
        for sim in sims:
            sp = sim.species[0]
            for axis, (pos, mom) in enumerate(zip(sp.positions(),
                                                  sp.momenta())):
                edge = np.float32(sim.grid.lengths[axis])
                pos[:3] = (0.0, edge, np.nextafter(edge, np.float32(0)))
                mom[:3] = 0.0
        return sims

    wrapped, split = place(_sized_pair(200, fields=False))
    default_registry().reset()
    real = simulation.apply_particle_boundaries
    calls = _boundary_passes(monkeypatch)
    wrapped.step()
    assert calls == []
    crossings = default_registry().snapshot()["counters"][
        "native/cell_crossings"]
    # the same push in numpy, unwrapped, then the Python pass
    split.solver.advance_b(0.5)
    split.fields.clear_currents()
    sp = split.species[0]
    split.push_species(sp)
    escaped = sum(int(((p < 0) | (p >= length)).sum())
                  for p, length in zip(sp.positions(), split.grid.lengths))
    real(sp, split.boundary)
    assert crossings == escaped > 0
    for attr in Species._ARRAYS:
        assert np.array_equal(wrapped.species[0].live(attr), sp.live(attr))
    x = wrapped.species[0].live("x")
    assert x[0] == 0.0 and x[1] == 0.0
    assert x[2] == np.nextafter(np.float32(wrapped.grid.lengths[0]),
                                np.float32(0))


def test_nonzero_origin_keeps_the_boundary_pass(monkeypatch):
    calls = _boundary_passes(monkeypatch)
    a, b = _sized_pair(300, origin=(-1.0, 0.25, 2.0))
    assert a.lane().native_push
    pushes = []
    real_push = native.push_simulation
    monkeypatch.setattr(native, "push_simulation",
                        lambda sim: (pushes.append(1), real_push(sim))[1])
    for k in range(3):
        a.step()
        # the kernel left the positions unwrapped; the pass wrapped them
        assert len(calls) == 2 * k + 1 and len(pushes) == k + 1
        assert _in_box(a)
        b.step()
    assert len(calls) == 6 and len(pushes) == 3
    assert _state_digest(a) == _state_digest(b)


def test_push_telemetry_matches_the_cic_species_push():
    """Per step: one native_push span and one native/step_seconds
    observation, as the CIC push lane; per species its C-timed push
    seconds on push/<species>; the wraps on native/cell_crossings."""
    from repro.kokkos.profiling import kernel_timings, reset_kernel_timings
    from repro.observability.metrics import default_registry

    sim = workloads.make_deck("beam-plasma", steps=3, seed=1).build()
    reset_kernel_timings()
    default_registry().reset()
    sim.run(3)
    timings = kernel_timings()
    assert timings["step/native_push"].launches == 3
    for sp in sim.species:
        assert timings[f"step/push/{sp.name}"].launches == 3
    reg = default_registry()
    assert reg.histogram("native/step_seconds").count == 3
    assert reg.snapshot()["counters"]["native/cell_crossings"] > 0
