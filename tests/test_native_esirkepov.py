"""Native Esirkepov push kernel (ISSUE 12) vs the numpy oracle.

The kernel's contract is the whole-step lane's: positions, momenta
and J byte for byte equal to the numpy kernel-by-kernel sequence
(``deposit_current_esirkepov(binned=True)``) — the C deposit replays
its increments in bincount order, so even the float64 accumulation
matches. These tests need a C compiler; without one they skip.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.vpic.simulation as simulation
from repro.core.tuning import StepPlan
from repro.kokkos.atomics import collect_atomics
from repro.validate.checks import ContinuityCheck, default_checks
from repro.validate.guard import SimulationGuard
from repro.vpic import native, workloads
from repro.vpic.boundary import BoundaryKind
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
    for plan in (StepPlan(), StepPlan(native=False)):
        sim = deck.build()
        sim.step_plan = plan
        rng = np.random.default_rng(5)
        for name in EB:
            arr = getattr(sim.fields, name).data
            arr[...] = rng.normal(scale=0.05, size=arr.shape)
        if mutate is not None:
            mutate(sim)
        sims.append(sim)
    assert sims[0]._esirkepov_kernel_off() is None
    assert sims[1]._esirkepov_kernel_off() is not None
    return sims


def _push_both(deck, mutate=None):
    """One particle phase on both sims; returns the kernel sim after
    asserting particles and raw (unfolded) J are identical."""
    a, b = _pair(deck, mutate)
    for sim in (a, b):
        for sp in sim.species:
            sim.push_species(sp)
    _assert_identical(a, b, J)
    return a


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
    sim = _push_both(_deck(*shape))
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
    sim = _push_both(_deck(*shape, species=(
        SpeciesConfig("e", q=-1.0, m=1.0, ppc=24, uth=0.05),)),
        mutate=_edge_particles)
    # the crafted particles really left the box (ghost endpoints)
    sp = sim.species[0]
    assert (sp.live("x") > sim.grid.lengths[0]).any()
    assert (sp.live("x") < 0).any()


def test_empty_species_is_a_noop():
    grid = Grid(4, 4, 4, dx=0.5, dy=0.5, dz=0.5)
    fields = FieldArrays(grid)
    fields.jx.data[...] = 1.5
    sim = Simulation(grid=grid, fields=fields,
                     species=[Species("e", -1.0, 1.0, grid)],
                     deposition=DepositionKind.ESIRKEPOV)
    native.native_push_kernel().push_species_esirkepov(
        fields, sim.species[0], sim._arena)
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
    for plan in (StepPlan(), StepPlan(native=False)):
        sim = _fast_particle_sim(plan)
        with pytest.raises(ValueError, match="sub-cell") as exc:
            sim.push_species(sim.species[0])
        messages.append(str(exc.value))
        assert not sim.fields.jx.data.any()
    assert messages[0] == messages[1]


# -- whole decks: 50 steps, kernel vs StepPlan(native=False) --------------------


@pytest.mark.parametrize("name,kw", [("beam-plasma", {}),
                                     ("reconnection", {"scale": 0.5})],
                         ids=["beam-plasma", "reconnection-0.5"])
def test_zoo_decks_50_steps_sha256_identical(name, kw):
    deck = workloads.DECK_BUILDERS[name](num_steps=50, seed=1, **kw)
    digests = []
    for plan, on_kernel in ((StepPlan(), True),
                            (StepPlan(native=False), False)):
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


def test_reason_names_the_kernel_on_zoo_decks():
    for name in ("beam-plasma", "reconnection"):
        sim = workloads.make_deck(name, steps=1).build()
        assert ON in sim.native_fallback_reason()
        sim.step_plan = StepPlan.reference_plan()
        assert "reference" in sim.native_fallback_reason()


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
