"""Tests for the runtime physics-guard subsystem (repro.validate).

Covers the invariant checks individually, the policy engine
(warn/raise/repair), checkpoint-ring rollback with its retry budget,
the distributed per-rank guard's deterministic abort, the CLI entry
points, and the guard-overhead acceptance bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.mpi.distributed import DistributedSimulation
from repro.observability.metrics import default_registry
from repro.validate import (ContinuityCheck, DivBCheck, EnergyDriftCheck,
                            FiniteFieldsCheck, FiniteParticlesCheck,
                            GaussLawCheck, GuardAction, GuardPolicy,
                            GuardReport, GuardViolationError,
                            ParticleBoundsCheck, RankGuard, SimulationGuard,
                            SortOrderCheck, Violation, default_checks,
                            measure_guard_overhead, rank_checks)
from repro.validate.checks import _folded_rho, neutralized_charge_density
from repro.vpic import native
from repro.vpic.deck import DepositionKind
from repro.vpic.grid import Grid
from repro.vpic.species import Species
from repro.vpic.workloads import uniform_plasma_deck

pytestmark = pytest.mark.validate


def small_sim(steps_run: int = 0, **deck_kwargs):
    defaults = dict(nx=8, ny=8, nz=8, ppc=4, uth=0.05, num_steps=50)
    defaults.update(deck_kwargs)
    sim = uniform_plasma_deck(**defaults).build()
    if steps_run:
        sim.run(steps_run)
    return sim


class TestChecks:
    def test_clean_run_passes_default_suite(self):
        sim = small_sim(3)
        for check in default_checks():
            assert check.check(sim) is None, check.name

    def test_finite_fields_detects_nan(self):
        sim = small_sim(1)
        sim.fields.ez.data[2, 2, 2] = np.inf
        v = FiniteFieldsCheck().check(sim)
        assert v is not None
        assert v.check == "finite_fields"
        assert "ez" in v.message

    def test_finite_particles_detects_nan(self):
        sim = small_sim(1)
        sim.species[0].live("uy")[5] = np.nan
        v = FiniteParticlesCheck().check(sim)
        assert v is not None
        assert "uy" in v.message and sim.species[0].name in v.message

    def test_particle_bounds_detects_escape(self):
        sim = small_sim(1)
        g = sim.grid
        sim.species[0].live("x")[0] = g.x0 + g.lengths[0] + 10 * g.dx
        v = ParticleBoundsCheck().check(sim)
        assert v is not None
        assert "along x" in v.message

    def test_gauss_law_baseline_relative(self):
        sim = small_sim(1)
        check = GaussLawCheck(cadence=1)
        assert check.check(sim) is None          # captures the baseline
        assert check._baseline is not None
        assert check.check(sim) is None          # healthy: stays at it
        # A large non-solenoidal kick blows past floor + growth*baseline.
        x = np.linspace(0, 2 * np.pi, sim.fields.ex.data.shape[0])
        sim.fields.ex.data[...] += 50.0 * np.sin(x)[:, None, None]
        v = check.check(sim)
        assert v is not None and v.check == "gauss_law"
        # The spectral clean repairs it in place.
        check.repair(sim)
        assert check.check(sim) is None

    def test_div_b_check_and_repair(self):
        sim = small_sim(1)
        check = DivBCheck(cadence=1)
        assert check.check(sim) is None
        x = np.linspace(0, 2 * np.pi, sim.fields.bx.data.shape[0])
        sim.fields.bx.data[...] += 5.0 * np.sin(x)[:, None, None]
        v = check.check(sim)
        assert v is not None and v.check == "div_b"
        check.repair(sim)
        assert check.check(sim) is None

    def test_continuity_holds_on_esirkepov_deck(self):
        deck = replace(uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4),
                       deposition=DepositionKind.ESIRKEPOV)
        sim = deck.build()
        guard = SimulationGuard(checks=[ContinuityCheck(cadence=1)],
                                policy="raise", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(4)          # any residual above 1e-3 relative raises
        assert guard.report.checks_run["continuity"] == 4
        assert not guard.report

    def test_continuity_inactive_for_cic(self):
        sim = small_sim(1)
        check = ContinuityCheck(cadence=1)
        check.prepare(sim)
        assert check.check(sim) is None
        assert check._rho_old is None

    def test_energy_drift_detects_blowup(self):
        sim = small_sim(2)
        check = EnergyDriftCheck(cadence=1, max_drift=0.01)
        assert check.check(sim) is None          # captures the reference
        for attr in ("ux", "uy", "uz"):
            sim.species[0].live(attr)[:] *= 3.0
        v = check.check(sim)
        assert v is not None and v.check == "energy_drift"

    def test_sort_order_postcondition(self):
        sim = small_sim(sort_interval=2)
        sim.run(2)                               # lands on a sort step
        check = SortOrderCheck()
        assert sim.sort_step.due(sim.step_count)
        assert check.check(sim) is None
        sp = sim.species[0]
        rng = np.random.default_rng(1)
        sp.live("voxel")[:] = rng.permutation(sp.live("voxel"))
        v = check.check(sim)
        assert v is not None and "inversions" in v.message

    def test_sort_order_only_runs_on_sort_steps(self):
        sim = small_sim(sort_interval=20)
        sim.run(3)
        sp = sim.species[0]
        sp.live("voxel")[:] = sp.live("voxel")[::-1].copy()
        assert SortOrderCheck().check(sim) is None   # not a sort step

    def test_cadence_semantics(self):
        check = FiniteFieldsCheck(cadence=5)
        assert check.due(5) and check.due(10)
        assert not check.due(3)
        assert not FiniteFieldsCheck(cadence=0).due(4)
        with pytest.raises(ValueError):
            FiniteFieldsCheck(cadence=-1)


class TestPolicy:
    def test_named_coercion(self):
        assert GuardPolicy.named("warn").default is GuardAction.WARN
        assert GuardPolicy.named(GuardAction.REPAIR).default is \
            GuardAction.REPAIR
        p = GuardPolicy(default=GuardAction.RAISE)
        assert GuardPolicy.named(p) is p
        with pytest.raises(ValueError):
            GuardPolicy.named("explode")

    def test_overrides(self):
        p = GuardPolicy(default=GuardAction.RAISE,
                        overrides={"gauss_law": GuardAction.REPAIR})
        assert p.action_for("gauss_law") is GuardAction.REPAIR
        assert p.action_for("finite_fields") is GuardAction.RAISE

    def test_report_aggregates_and_format(self):
        report = GuardReport()
        assert not report
        v = Violation("gauss_law", 7, 1.0, 0.5, "residual too big")
        report.record(v, "repair", "clean_div_e")
        report.record(v, "warn")
        report.record_run("gauss_law")
        assert report.repairs == 1 and report.warnings == 1
        assert report.violations == 2 and bool(report)
        text = report.format()
        assert "gauss_law" in text and "clean_div_e" in text


class TestSimulationGuard:
    def test_attach_and_clean_run(self):
        sim = small_sim()
        guard = SimulationGuard(policy="raise", checkpoint_interval=4)
        guard.attach(sim)
        assert sim.guard is guard
        sim.run(8)
        assert guard.report.steps_guarded == 8
        assert not guard.report.events
        # Ring holds the seed snapshot plus the cadence pushes.
        assert [s for s, _ in guard.ring.entries] == [4, 8]
        guard.close()

    def test_raise_policy_names_the_invariant(self):
        sim = small_sim()
        guard = SimulationGuard(policy="raise")
        guard.attach(sim)
        sim.run(2)
        sim.fields.ey.data[1, 1, 1] = np.nan
        with pytest.raises(GuardViolationError, match="finite_fields"):
            sim.run(5)
        guard.close()

    def test_warn_policy_keeps_stepping(self):
        # An unreachable div-B threshold trips every check without
        # corrupting the physics, so the run survives the warnings.
        sim = small_sim()
        guard = SimulationGuard(
            checks=[DivBCheck(cadence=1, threshold=1e-30)],
            policy="warn", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(3)
        assert sim.step_count == 3
        # B is exactly zero after step 1 (E starts at zero), so the
        # first possible warning is step 2.
        assert guard.report.warnings == 2
        guard.close()

    def test_repair_policy_rolls_back_and_completes(self):
        sim = small_sim()
        guard = SimulationGuard(policy="repair", checkpoint_interval=4)
        guard.attach(sim)
        sim.run(6)
        sim.fields.ey.data[2, 2, 2] = np.nan
        sim.run(6)                       # rollback to 4, rerun to 12
        assert sim.step_count == 12
        assert guard.report.rollbacks == 1
        assert guard.report          # non-empty structured report
        assert np.isfinite(sim.fields.ey.data).all()
        guard.close()

    def test_repairable_violation_repairs_in_place(self):
        sim = small_sim()
        guard = SimulationGuard(checks=[GaussLawCheck(cadence=1)],
                                policy="repair", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(2)                       # baseline capture
        x = np.linspace(0, 2 * np.pi, sim.fields.ex.data.shape[0])
        sim.fields.ex.data[...] += 50.0 * np.sin(x)[:, None, None]
        sim.run(1)
        assert guard.report.repairs == 1
        assert guard.report.rollbacks == 0
        ev = guard.report.events[0]
        assert ev.check == "gauss_law" and "clean_div_e" in ev.detail

    def test_retry_budget_exhaustion_escalates(self):
        sim = small_sim()
        guard = SimulationGuard(policy="repair", checkpoint_interval=2,
                                retry_budget=0)
        guard.attach(sim)
        sim.run(2)
        sim.fields.ey.data[1, 1, 1] = np.nan
        with pytest.raises(GuardViolationError, match="retry budget"):
            sim.run(2)
        guard.close()

    def test_repair_without_ring_is_fatal(self):
        sim = small_sim()
        guard = SimulationGuard(policy="repair", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(1)
        sim.fields.ey.data[1, 1, 1] = np.nan
        with pytest.raises(GuardViolationError, match="no checkpoint"):
            sim.run(1)

    def test_guard_counters_land_in_registry(self):
        reg = default_registry()
        reg.reset()
        sim = small_sim()
        guard = SimulationGuard(policy="repair", checkpoint_interval=3)
        guard.attach(sim)
        sim.run(4)
        sim.fields.ey.data[1, 1, 1] = np.nan
        sim.run(3)
        snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["guard/checks_run"] > 0
        assert counters["guard/violations"] >= 1
        assert counters["guard/rollbacks"] >= 1
        guard.close()
        reg.reset()

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError):
            SimulationGuard(checkpoint_interval=-1)


class TestRankGuard:
    def _dsim(self, guard=None):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2, uth=0.05,
                                   num_steps=10)
        return DistributedSimulation(deck, n_ranks=2, guard=guard)

    def test_clean_distributed_run(self):
        guard = RankGuard()
        dsim = self._dsim(guard)
        dsim.run(3)
        assert guard.report.steps_guarded == 3
        assert not guard.report.events

    # NaN fields poison positions before the guard sees them; the
    # kernels in between must stay warning-free (cell_of_position once
    # pushed NaN through an int cast).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_violation_aborts_collective_step(self):
        guard = RankGuard()
        dsim = self._dsim(guard)
        dsim.run(1)
        dsim.ranks[1].fields.ex.data[2, 2, 2] = np.nan
        with pytest.raises(GuardViolationError, match="rank 1"):
            dsim.step()
        assert guard.report.events

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_abort_is_deterministic_lowest_rank_first(self):
        """With several violating ranks the lowest rank's violation
        raises — every rank (and every rerun) fails identically."""
        guard = RankGuard()
        dsim = self._dsim(guard)
        dsim.run(1)
        dsim.ranks[1].fields.ey.data[1, 1, 1] = np.nan
        dsim.ranks[0].fields.ez.data[1, 1, 1] = np.inf
        with pytest.raises(GuardViolationError,
                           match=r"rank 0 .*violating ranks: \[0, 1\]"):
            dsim.step()

    def test_rank_checks_are_structural_only(self):
        names = {c.name for c in rank_checks()}
        assert names == {"finite_fields", "finite_particles"}


class TestCLI:
    def test_validate_command_clean_deck(self, capsys):
        from repro.cli import main
        assert main(["validate", "uniform", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "guard report" in out and "0 violations" in out

    def test_run_deck_guard_flag(self, capsys):
        from repro.cli import main
        assert main(["run-deck", "uniform", "--steps", "3",
                     "--guard=warn"]) == 0
        assert "guard report" in capsys.readouterr().out

    def test_bare_guard_flag_means_raise(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["run-deck", "uniform",
                                          "--guard"])
        assert args.guard == "raise"
        args = build_parser().parse_args(["run-deck", "uniform"])
        assert args.guard is None


def _state_digest(sim) -> str:
    h = hashlib.sha256()
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"):
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        for attr in sp._ARRAYS:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


def _kernels_off(monkeypatch):
    """Make the compiled charge deposit, kinetic terms and voxel
    refresh decline, as without a compiler: their callers run numpy.
    The step itself keeps its lane."""
    for name in ("deposit_charge", "kinetic_terms", "voxel_refresh"):
        monkeypatch.setattr(native._NativeLib, name, lambda self, *a: False)


@pytest.mark.native
@pytest.mark.skipif(not native.native_available(),
                    reason=f"no native lane: {native.native_status()}")
class TestNativeGuardPasses:
    """The guard's charge deposit and energy total, and the voxel
    refresh, on the compiled kernels: same report, same state."""

    @staticmethod
    def _repair_example():
        """EXPERIMENTS.md's worked CIC Gauss-law auto-repair."""
        sim = uniform_plasma_deck(nx=16, ny=16, nz=16, ppc=8).build()
        guard = SimulationGuard(
            checks=[GaussLawCheck(cadence=10, threshold=0.7)],
            policy="repair", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(40)
        return guard.report, _state_digest(sim)

    @staticmethod
    def _default_suite():
        sim = small_sim(sort_interval=4)
        guard = SimulationGuard(
            checks=default_checks(gauss_cadence=3, energy_cadence=2),
            policy="warn", checkpoint_interval=0)
        guard.attach(sim)
        sim.run(12)
        return guard.report, _state_digest(sim)

    @pytest.mark.parametrize("run", ["_repair_example", "_default_suite"])
    def test_report_and_state_same_with_kernels_off(self, monkeypatch,
                                                    run):
        report, digest = getattr(self, run)()
        assert report.checks_run
        if run == "_repair_example":
            assert report.repairs > 0
        with monkeypatch.context() as m:
            _kernels_off(m)
            numpy_report, numpy_digest = getattr(self, run)()
        assert report.format() == numpy_report.format()
        assert [(e.step, e.check, e.value, e.detail)
                for e in report.events] == \
            [(e.step, e.check, e.value, e.detail)
             for e in numpy_report.events]
        assert digest == numpy_digest

    def test_charge_densities_same_bytes_with_kernels_off(self,
                                                          monkeypatch):
        """Nonzero origin, one empty species, two accumulating."""
        grid = Grid(7, 5, 6, dx=0.4, dy=0.6, dz=0.5, x0=-1.5, y0=2.0,
                    z0=0.25)
        rng = np.random.default_rng(3)
        species = []
        for q, n in ((-1.0, 4000), (1.0, 0), (2.0, 900)):
            sp = Species(f"s{len(species)}", q, 1.0, grid, capacity=8)
            lo = np.array([grid.x0, grid.y0, grid.z0])
            pos = lo + rng.uniform(-0.2, 1.2, (n, 3)) * grid.lengths
            sp.append(*pos.T, *np.zeros((3, n)), rng.uniform(0.5, 1.5, n))
            species.append(sp)
        sim = SimpleNamespace(grid=grid, species=species)

        def densities():
            return (neutralized_charge_density(sim).tobytes(),
                    _folded_rho(sim).tobytes())

        on = densities()
        with monkeypatch.context() as m:
            _kernels_off(m)
            assert densities() == on
        folded = _folded_rho(sim).reshape(grid.shape)
        interior = folded[1:-1, 1:-1, 1:-1]
        interior -= interior.mean()
        assert folded.tobytes() == on[0]


class TestOverhead:
    def test_guard_overhead_report(self):
        # Positivity and format only: the plain/guarded ratio of a 3 ms
        # window is a stopwatch, and stopwatches live in perfbench.
        report = measure_guard_overhead(steps=4)
        assert report.plain_seconds > 0
        assert report.guarded_seconds > 0
        assert "guard overhead" in report.format()

    def test_overhead_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            measure_guard_overhead(steps=0)
