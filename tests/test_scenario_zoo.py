"""The scenario zoo: registry integrity, guard-green runs on every
lane for the new decks, and regressions for the two cross-cutting
bugs the zoo construction flushed out (the cell/fraction box-edge
mismatch and the moving-window ghost-slab recycle)."""

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.validate.checks import default_checks
from repro.validate.guard import SimulationGuard
from repro.vpic.grid import Grid
from repro.vpic.simulation import Simulation
from repro.vpic.workloads import (DECK_BUILDERS, beam_plasma_deck,
                                  laser_wakefield_deck, make_deck,
                                  reconnection_deck, registered_decks)

pytestmark = pytest.mark.validate

ZOO = ("beam-plasma", "wakefield", "reconnection")


class TestRegistry:
    def test_all_decks_registered(self):
        names = registered_decks()
        for expected in ("uniform", "two-stream", "weibel",
                         "laser-plasma", "harris") + ZOO:
            assert expected in names
        assert set(names) == set(DECK_BUILDERS)

    def test_make_deck_unknown_name(self):
        with pytest.raises(KeyError, match="beam-plasma"):
            make_deck("no-such-deck")

    def test_make_deck_steps_override(self):
        assert make_deck("beam-plasma", steps=7).num_steps == 7

    def test_every_deck_builds(self):
        for name in registered_decks():
            sim = make_deck(name, steps=1).build()
            assert sim.total_particles > 0


def _guarded(sim):
    guard = SimulationGuard(default_checks(), policy="raise",
                            checkpoint_interval=0)
    guard.attach(sim)
    return sim


LANES = {
    "numpy": lambda: StepPlan.NUMPY,
    "push": lambda: StepPlan.NATIVE_PUSH,
    "native": lambda: StepPlan.NATIVE_STEP,
}


class TestZooGuardGreen:
    """Short guarded runs on every lane; the full-length runs are
    exercised by `repro validate <deck>` (see EXPERIMENTS.md)."""

    @pytest.mark.parametrize("name", ZOO)
    @pytest.mark.parametrize("lane", list(LANES))
    def test_lane_green(self, name, lane):
        deck = make_deck(name, steps=25)
        sim = _guarded(deck.build())
        sim.step_plan = LANES[lane]()
        sim.run(deck.num_steps)
        assert sim.step_count == deck.num_steps

    @pytest.mark.parametrize("name", ZOO)
    def test_batched_lane_green(self, name):
        # step_many must demote sources-bearing sims to interleaved
        # step() (guard hooks every step) rather than crash or skip.
        deck = make_deck(name, steps=10)
        sim = _guarded(deck.build())
        Simulation.step_many([sim], deck.num_steps)
        assert sim.step_count == deck.num_steps


class TestBeamPlasma:
    def test_current_neutral_at_t0(self):
        sim = beam_plasma_deck().build()
        jx = 0.0
        for sp in sim.species:
            jx += sp.q * float(np.sum(
                sp.w[:sp.n] * sp.ux[:sp.n]
                / np.sqrt(1 + sp.ux[:sp.n].astype(np.float64) ** 2)))
        scale = sum(abs(sp.q) * float(np.sum(np.abs(
            sp.w[:sp.n] * sp.ux[:sp.n]))) for sp in sim.species)
        assert abs(jx) / scale < 0.05   # return current balances beam

    def test_beam_is_relativistic(self):
        deck = beam_plasma_deck(u_beam=2.0)
        beam = next(s for s in deck.species if s.name == "beam")
        assert beam.drift[0] == 2.0

    def test_native_lane_demoted_with_reason(self):
        # The reason names the tripped gate (the deposition scheme)
        # and which kernel carries the push: the native Esirkepov
        # kernel, or numpy plus why.
        sim = beam_plasma_deck().build()
        reason = sim.native_fallback_reason()
        assert reason.startswith("esirkepov deposition steps kernel "
                                 "by kernel; push on ")
        sim.step_plan = StepPlan.NUMPY_FUSED
        assert sim.native_fallback_reason() == \
            "StepPlan disables native kernels"


class TestWakefield:
    def test_window_waits_out_the_launch(self):
        deck = laser_wakefield_deck()
        antenna, window = deck.sources
        assert window.start > 0
        sim = deck.build()
        dt = sim.grid.dt
        assert window.start >= antenna.duration / dt - 1
        assert not any(window.due(step) for step in range(window.start))

    def test_native_lane_demoted_with_reason(self):
        sim = laser_wakefield_deck().build()
        reason = sim.native_fallback_reason()
        assert reason is not None and "sources" in reason

    def test_window_shifts_during_run(self):
        deck = laser_wakefield_deck(num_steps=80)
        sim = deck.build()
        sim.run(deck.num_steps)
        assert sim.sources[1].shifts_applied > 0

    def test_rejects_overdense_laser(self):
        with pytest.raises(ValueError, match="omega"):
            laser_wakefield_deck(omega=0.5)


class TestReconnection:
    def test_scale_grows_box(self):
        assert reconnection_deck(scale=1.0).nx == 48
        assert reconnection_deck(scale=0.5).nx == 24
        assert reconnection_deck(scale=0.1).nx == 16   # floor

    def test_charge_conserving_deposition(self):
        from repro.vpic.deck import DepositionKind
        assert (reconnection_deck().deposition
                is DepositionKind.ESIRKEPOV)


class TestCellFractionEdgeRegression:
    """A particle sitting exactly on the high box edge (the float32
    periodic wrap ``x + L`` can round up to exactly ``x_hi``) must
    get a (cell, fraction) pair from ONE clipped coordinate chain:
    cell n with fraction ~1, never cell n with fraction 0 — the old
    mismatch displaced its whole CIC cloud one cell inward and
    showed up as a paired continuity residual across the boundary."""

    def test_fraction_matches_cell_on_high_edge(self):
        g = Grid(4, 4, 4)
        x_hi = np.float32(4.0)   # exactly the high edge
        ix, _, _ = g.cell_of_position(x_hi, 0.5, 0.5)
        fx, _, _ = g.cell_fraction(x_hi, 0.5, 0.5)
        assert int(ix) == 4          # clipped into top interior cell
        assert float(fx) > 0.99      # ...at its far end, not its start

    def test_interior_positions_unchanged(self):
        g = Grid(4, 4, 4)
        xs = np.array([0.25, 1.5, 3.75], dtype=np.float32)
        fx, _, _ = g.cell_fraction(xs, xs * 0 + 0.5, xs * 0 + 0.5)
        assert np.allclose(fx, [0.25, 0.5, 0.75], atol=1e-6)

    def test_wrap_artifact_reproduces(self):
        # The artifact the fix is for: a small negative float32
        # coordinate wrapped by +L lands exactly on L.
        x = np.float32(-1e-9)
        L = np.float32(4.0)
        assert np.float32(x + L) == L


class TestReflectingDepositRegression:
    """Esirkepov must fold a wall bounce into the trajectory BEFORE
    depositing: the old code deposited the straight pre-reflection
    path while the particle teleported back inside, so charge landed
    in the wrong cell (continuity residual ~1e-2, found by the deck
    fuzzer) and every bounce pumped a spurious wall current."""

    def _worst_residual(self, sim, steps):
        from repro.validate import checks as C
        from repro.vpic.fields import FieldSolver
        worst = 0.0
        for _ in range(steps):
            rho_old = C._folded_rho(sim)
            scale = float(np.abs(rho_old).max())
            sim.step()
            rho_new = C._folded_rho(sim)
            FieldSolver(sim.fields).sync_currents()
            res = C.continuity_residual(sim.grid, rho_old, rho_new,
                                        sim.fields, sim.grid.dt)
            scale = max(scale, float(np.abs(rho_new).max()))
            worst = max(worst, float(np.abs(res).max())
                        * sim.grid.dt / scale)
        return worst

    def test_continuity_exact_across_bounces(self):
        from repro.vpic.boundary import BoundaryKind
        from repro.vpic.deck import Deck, DepositionKind, SpeciesConfig
        # A bar drifting hard into the z walls: plenty of bounces.
        deck = Deck(name="bounce", nx=1, ny=1, nz=3,
                    dx=0.2, dy=0.2, dz=0.2, num_steps=30, seed=0,
                    boundary=BoundaryKind.REFLECTING,
                    deposition=DepositionKind.ESIRKEPOV,
                    species=(SpeciesConfig(
                        name="e", q=-1.0, m=1.0, ppc=8, uth=0.1,
                        drift=(0.0, 0.0, 0.2), weight=0.001),))
        worst = self._worst_residual(deck.build(), deck.num_steps)
        # Was ~1e-2 before the fold fix; float noise after.
        assert worst < 1e-5, \
            f"continuity broken across reflecting walls (rel {worst:.3e})"

    def test_continuity_check_covers_reflecting_decks(self):
        from repro.validate.checks import ContinuityCheck
        from repro.vpic.boundary import BoundaryKind
        from repro.vpic.deck import Deck, DepositionKind, SpeciesConfig
        deck = Deck(name="refl", nx=4, ny=4, nz=4, dx=0.2, dy=0.2,
                    dz=0.2, boundary=BoundaryKind.REFLECTING,
                    deposition=DepositionKind.ESIRKEPOV,
                    species=(SpeciesConfig(name="e", q=-1.0, m=1.0,
                                           ppc=2, uth=0.1,
                                           weight=0.004),))
        assert ContinuityCheck()._active(deck.build()), \
            "reflecting decks regressed out of continuity jurisdiction"


class TestWindowGhostRegression:
    """The moving-window shift slides every slab one cell toward -x;
    the slab that lands in the last interior column was the high
    *ghost* (Mur ABC bookkeeping, not field data) and must be zeroed
    — recycling it closed a feedback loop with the absorbing
    boundary that grew exponentially at the leading edge."""

    def test_shift_zeroes_new_leading_interior_column(self):
        from repro.vpic.window import MovingWindow
        deck = laser_wakefield_deck(nx=16, ny=4, nz=4, num_steps=8)
        sim = deck.build()
        window = MovingWindow(interval=1)
        window.bind(sim)
        sentinel = 123.0
        for name in ("ex", "ey", "ez", "bx", "by", "bz"):
            arr = getattr(sim.fields, name).data
            arr[-1, :, :] = sentinel      # poison the high ghost
        window.shift(sim, step=0)
        for name in ("ex", "ey", "ez", "bx", "by", "bz"):
            arr = getattr(sim.fields, name).data
            assert not np.any(arr[:, 1:-1, 1:-1] == sentinel), \
                f"{name}: ghost slab recycled into the box"
            assert np.all(arr[-2:, :, :] == 0.0), \
                f"{name}: new leading column not vacuum"

    def test_wakefield_leading_edge_stays_bounded(self):
        # End-to-end: fields at the leading edge must not blow up
        # over a long windowed run (the original symptom was ~1e6
        # by step 150).
        deck = laser_wakefield_deck(num_steps=120)
        sim = deck.build()
        sim.run(deck.num_steps)
        for name in ("ex", "ey", "ez", "bx", "by", "bz"):
            arr = getattr(sim.fields, name).data
            assert float(np.abs(arr).max()) < 10.0, \
                f"{name} blew up at the leading edge"
