"""Tests for the runtime physics-guard subsystem (repro.validate).

Covers the invariant checks individually, the policy engine
(warn/raise/repair), checkpoint-ring rollback with its retry budget,
the distributed per-rank guard's deterministic abort, the CLI entry
points, and the guard-overhead acceptance bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.sorting import SortKind
from repro.core.tuning import StepPlan
from repro.mpi.distributed import DistributedSimulation
from repro.observability.metrics import default_registry
from repro.validate import (ContinuityCheck, DivBCheck, EnergyDriftCheck,
                            FiniteFieldsCheck, FiniteParticlesCheck,
                            GaussLawCheck, GuardAction, GuardPolicy,
                            GuardReport, GuardViolationError,
                            ParticleBoundsCheck, RankGuard, SimulationGuard,
                            SortOrderCheck, Violation, default_checks,
                            measure_guard_overhead, rank_checks)
from repro.validate.checks import (InvariantCheck, _folded_rho,
                                   neutralized_charge_density)
from repro.vpic import native
from repro.vpic.deck import (Deck, DepositionKind, FieldBoundaryKind,
                             SpeciesConfig)
from repro.vpic.grid import Grid
from repro.vpic.injection import LaserAntenna
from repro.vpic.simulation import Simulation
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

    def test_raise_policy_names_the_invariant(self):
        sim = small_sim()
        guard = SimulationGuard(policy="raise")
        guard.attach(sim)
        sim.run(2)
        sim.fields.ey.data[1, 1, 1] = np.nan
        with pytest.raises(GuardViolationError, match="finite_fields"):
            sim.run(5)

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
        reg.reset()

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError):
            SimulationGuard(checkpoint_interval=-1)


class _Hot(InvariantCheck):
    """Kinetic energy under *limit*; repaired by stopping every
    particle. Reads the step's shared energy total."""

    name = "hot"
    repairable = True

    def __init__(self, limit: float):
        super().__init__(cadence=1)
        self.limit = limit

    def check(self, sim):
        k = sim.energy_totals()[2]
        if k > self.limit:
            return self._violation(sim, k, self.limit, "too hot")
        return None

    def repair(self, sim):
        for sp in sim.species:
            for attr in ("ux", "uy", "uz"):
                sp.live(attr)[:] = 0.0
        return "stopped every particle"


class TestSharedEnergyTotal:
    """The detail gauge, the flight recorder's sample and the drift
    check compute one energy total per step between them; a repair or
    a rollback restore inside the step drops it."""

    def _measurements(self, tmp_path, monkeypatch, numpy_lane: bool):
        """The energy measurements of a three-step run that the detail
        gauge, a recorder and a drift check all read every step, then
        of two calls outside a step: ``"native"`` for a native step's
        energy pass, ``"numpy"`` for a ``field_energy`` call."""
        from repro.observability.flight import FlightRecorder
        from repro.observability.metrics import set_detail
        from repro.vpic.fields import FieldArrays

        calls = []
        energy = FieldArrays.field_energy
        monkeypatch.setattr(FieldArrays, "field_energy",
                            lambda f: calls.append("numpy") or energy(f))
        step_simulation = native.step_simulation

        def counted(sim, *args, energy=False, **kwargs):
            if energy:
                calls.append("native")
            return step_simulation(sim, *args, energy=energy, **kwargs)

        monkeypatch.setattr(native, "step_simulation", counted)
        sim = small_sim()
        if numpy_lane:
            sim.step_plan = StepPlan.NUMPY_FUSED
        SimulationGuard(checks=[EnergyDriftCheck(cadence=1)],
                        checkpoint_interval=0).attach(sim)
        recorder = FlightRecorder(str(tmp_path / "run"), stride=1,
                                  energy_every=1)
        recorder.attach(sim)
        set_detail(True)
        try:
            sim.run(3)
        finally:
            set_detail(False)
            recorder.close()
        assert sim.energy_totals() == sim.energy_totals()
        return calls

    def test_computed_once_per_step(self, tmp_path, monkeypatch):
        """One measurement per step — the native step's energy pass on
        the whole-step lane — and fresh numpy values outside the
        window."""
        calls = self._measurements(tmp_path, monkeypatch, False)
        measured = "native" if native.native_available() else "numpy"
        assert calls == [measured] * 3 + ["numpy"] * 2

    def test_computed_once_per_step_off_the_native_step(self, tmp_path,
                                                        monkeypatch):
        calls = self._measurements(tmp_path, monkeypatch, True)
        assert calls == ["numpy"] * 5

    def test_native_step_measures_only_what_is_read(self, tmp_path,
                                                    monkeypatch):
        """Detail mode off: the native step measures the energy on the
        steps a tool reads it — the recorder's every third sample, the
        drift check's every fifth step — and numpy never runs."""
        from repro.observability.flight import FlightRecorder
        from repro.vpic.fields import FieldArrays

        if not native.native_available():
            pytest.skip("no compiled kernel")
        numpy_calls = []
        energy = FieldArrays.field_energy
        monkeypatch.setattr(FieldArrays, "field_energy",
                            lambda f: numpy_calls.append(1) or energy(f))
        measured = []
        step_simulation = native.step_simulation

        def counted(sim, *args, energy=False, **kwargs):
            if energy:
                measured.append(sim.step_count + 1)
            return step_simulation(sim, *args, energy=energy, **kwargs)

        monkeypatch.setattr(native, "step_simulation", counted)
        sim = small_sim()
        SimulationGuard(checks=[EnergyDriftCheck(cadence=5)],
                        checkpoint_interval=0).attach(sim)
        recorder = FlightRecorder(str(tmp_path / "run"), stride=1,
                                  energy_every=3)
        recorder.attach(sim)
        try:
            sim.run(15)
        finally:
            recorder.close()
        assert measured == [1, 4, 5, 7, 10, 13, 15]
        assert numpy_calls == []

    def test_repair_drops_the_total(self):
        sim = small_sim()
        k = sim.energy_totals()[2]
        guard = SimulationGuard(checks=[_Hot(limit=0.5 * k)],
                                policy="repair", checkpoint_interval=0)
        guard.attach(sim)
        sim.step()          # a stale total would fail the re-check: raise
        assert guard.report.repairs == 1
        assert sim.energy_totals()[2] == 0.0

    def test_rollback_restore_drops_the_total(self):
        sim = small_sim()
        guard = SimulationGuard(checks=[EnergyDriftCheck(cadence=1,
                                                         max_drift=0.5)],
                                policy="repair", checkpoint_interval=2)
        guard.attach(sim)
        sim.run(2)
        seen = []
        guard.report.listeners.append(
            lambda ev: seen.append(sim.energy_totals()))
        for attr in ("ux", "uy", "uz"):
            sim.species[0].live(attr)[:] *= 3.0
        sim.step()                      # drift check fails: back to step 2
        assert guard.report.rollbacks == 1 and sim.step_count == 2
        assert seen == [sim.energy_totals()]

    def test_rollback_rerun_records_each_step_once(self):
        """run() records the step a rollback rewound to again; that row
        replaces the old one instead of following it."""
        from repro.vpic.diagnostics import EnergyDiagnostic

        sim = small_sim()
        guard = SimulationGuard(checks=[EnergyDriftCheck(cadence=1,
                                                         max_drift=0.5)],
                                policy="repair", checkpoint_interval=2)
        guard.attach(sim)
        diag = EnergyDiagnostic()
        sim.run(2, diag)
        at_two = diag.samples[-1]
        for attr in ("ux", "uy", "uz"):
            sim.species[0].live(attr)[:] *= 3.0
        sim.run(2, diag)                # step 3 rolls back to step 2
        assert guard.report.rollbacks == 1
        assert [s.step for s in diag.samples] == [0, 1, 2, 3, 4]
        assert diag.samples[2] == at_two


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

    @pytest.mark.parametrize("steps,interval,timed,pushes",
                             [(10, 20, 20, 1), (4, 3, 6, 2), (7, 0, 7, 0)])
    def test_window_is_whole_checkpoint_intervals(self, steps, interval,
                                                  timed, pushes):
        """The timed window holds the ring's pushes: the default 10
        steps were a window in which the ring (every 20) never pushed."""
        deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=2)
        report = measure_guard_overhead(deck=deck, steps=steps,
                                        checkpoint_interval=interval)
        assert (report.steps, report.checkpoints) == (timed, pushes)
        assert f"{pushes} checkpoints" in report.format()

    def test_overhead_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            measure_guard_overhead(steps=0)


# -- the native step's verdict: same reports, same bytes ----------------------

_ARRAYS7 = ("x", "y", "z", "ux", "uy", "uz", "w")
_FIELDS9 = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
_POISON = (np.nan, np.inf, -np.inf)
_ROOT = Path(__file__).resolve().parents[1]


def _pair_deck(**kw):
    """Two species on a small periodic deck: the whole-step native lane."""
    return Deck(name="pair", nx=6, ny=5, nz=4, num_steps=8,
                species=(SpeciesConfig("e", -1.0, 1.0, ppc=3, uth=0.05),
                         SpeciesConfig("i", 1.0, 16.0, ppc=2, uth=0.01)),
                **kw)


def _bypass_verdict(monkeypatch):
    """No step publishes a verdict: the three screens run numpy."""
    monkeypatch.setattr(Simulation, "step_verdict",
                        property(lambda self: None))


def _inject(where: str, index: int, value: float):
    def poison(sim):
        if where in _FIELDS9:
            getattr(sim.fields, where).data.reshape(-1)[index] = value
        else:
            s, attr = where.split(".")
            sp = sim.species[int(s)]
            sp.live(attr)[index % sp.n] = value
    return poison


def _guarded_poison_run(poison, policy: str):
    """Two clean guarded steps, *poison*, two more: the report, the
    raised violation's text and the state digest."""
    sim = _pair_deck().build()
    assert sim.native_fallback_reason() is None
    guard = SimulationGuard(policy=policy, checkpoint_interval=0)
    guard.attach(sim)
    sim.run(2)
    poison(sim)
    raised = None
    try:
        sim.run(2)
    except GuardViolationError as exc:
        raised = str(exc)
    return (guard.report.format(), repr(guard.report.events), raised,
            _state_digest(sim))


_POISON_CASES = ([f"{s}.{a}" for s in (0, 1) for a in _ARRAYS7]
                 + list(_FIELDS9))


@pytest.mark.native
@pytest.mark.skipif(not native.native_available(),
                    reason=f"no native lane: {native.native_status()}")
class TestStepVerdict:
    """The guarded native step screens what it writes; the finiteness
    and bounds checks consult that verdict and must report exactly what
    their numpy scans report."""

    @pytest.mark.parametrize("policy", ["warn", "raise"])
    @pytest.mark.parametrize("where", _POISON_CASES)
    def test_poison_same_report_violation_and_bytes(self, monkeypatch,
                                                    where, policy):
        for value in _POISON:
            poison = _inject(where, 37, value)
            got = _guarded_poison_run(poison, policy)
            with monkeypatch.context() as m:
                _bypass_verdict(m)
                want = _guarded_poison_run(poison, policy)
            assert got == want, (where, value)

    def test_verdict_published_only_while_guarded_native(self):
        seen = []

        class Spy(InvariantCheck):
            name = "spy"

            def check(self, sim):
                seen.append(sim.step_verdict is not None)

        for plan in (StepPlan.NATIVE_STEP, StepPlan.NATIVE_PUSH):
            sim = _pair_deck().build()
            sim.step_plan = plan
            SimulationGuard(checks=[Spy()], checkpoint_interval=0).attach(sim)
            sim.run(2)
            assert sim.step_verdict is None      # dropped after the step
        assert seen == [True, True, False, False]
        sim = _pair_deck().build()
        sim.run(1)
        assert sim._native_pack[0][0].screen == 0   # unguarded: no screen

    def test_repair_drops_the_verdict(self):
        """A repair edits the state in place: the re-check scans."""
        sim = _pair_deck().build()
        guard = SimulationGuard(checks=[FiniteFieldsCheck()],
                                checkpoint_interval=0)
        guard.attach(sim)
        sim.step()
        verdicts = []
        sim.guard.after_step = lambda s: (
            verdicts.append(s.step_verdict), s.state_changed(),
            verdicts.append(s.step_verdict))
        sim.step()
        assert verdicts[0] is not None and verdicts[1] is None

    def test_counts_and_extrema_match_numpy_any_team(self):
        """n in {0, 1, 63, 64, 65, 1025}, positions at 0 and L, poison in
        every array: the verdict equals numpy's counts and fmin/fmax,
        pinned to one CPU and to all of them."""
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
            else {0}
        runs = [_pinned_verdicts({min(cpus)})]
        if len(cpus) > 1:
            runs.append(_pinned_verdicts(cpus))
        for out in runs:
            assert out.pop("mismatch") == []
        assert all(out == runs[0] for out in runs)

    @pytest.mark.parametrize("slack", [1e-3, 0.0, -0.25])
    def test_bounds_verdict_defers_to_numpy(self, monkeypatch, slack):
        """A box the particles fill (slack 0) or overflow (negative
        slack): the verdict's float32 comparisons pass exactly when
        numpy's do, and a failing one yields numpy's violation."""
        def run():
            sim = _pair_deck().build()
            guard = SimulationGuard(
                checks=[ParticleBoundsCheck(slack=slack)], policy="warn",
                checkpoint_interval=0)
            guard.attach(sim)
            sp = sim.species[0]
            sp.live("x")[:2] = (0.0, -1e-7)      # -> 0 and, wrapped, L
            sp.live("ux")[:2] = 0.0
            sim.run(3)
            return repr(guard.report.events)
        got = run()
        with monkeypatch.context() as m:
            _bypass_verdict(m)
            assert run() == got
        assert ("particle_bounds" in got) == (slack < 0)


def _verdict_cases() -> dict:
    """One screened native step of six species (n = 0, 1, 63, 64, 65,
    1025) from zero fields, per case; each verdict against numpy's
    counts and fmin/fmax of the state it left. JSON-able."""
    from repro.vpic import native as nat

    out = {"mismatch": []}
    for case in ("edges", "poison", "all-nan", "field"):
        sim = _pair_deck().build()
        g = sim.grid
        rng = np.random.default_rng(7)
        sim.species = []
        for k, n in enumerate((0, 1, 63, 64, 65, 1025)):
            sp = Species(f"s{k}", (-1.0) ** k, 1.0 + k, g)
            pos = rng.uniform(0.0, 1.0, (n, 3)) * g.lengths
            sp.append(*pos.T, *rng.normal(0.0, 0.05, (3, n)),
                      rng.uniform(0.5, 1.5, n))
            for i, (a, v) in enumerate(((0, 0.0), (1, -1e-7), (2, 0.0),
                                        (0, g.lengths[0]))):
                if i < n:       # u = 0, zero fields: the push keeps x
                    sp.live("xyz"[a])[i] = v
                    for c in ("ux", "uy", "uz"):
                        sp.live(c)[i] = 0.0
            sim.species.append(sp)
        if case == "poison":
            for k, attr, i, v in ((1, "x", 0, np.nan), (2, "uy", 62, np.inf),
                                  (3, "w", 5, -np.inf), (4, "z", 64, np.inf),
                                  (5, "ux", 1024, np.nan),
                                  (5, "y", 1000, -np.inf)):
                sim.species[k].live(attr)[i] = v
        elif case == "all-nan":
            sim.species[5].live("z")[:] = np.nan
        elif case == "field":
            sim.fields.bz.data[3, 2, 1] = np.inf
        res = nat.step_simulation(sim, 0, screen=True)
        v = res["verdict"]
        want_fields = sum(int(np.count_nonzero(~np.isfinite(
            getattr(sim.fields, f).data))) for f in _FIELDS9)
        got = {"fields": int(v.field_nonfinite), "species": []}
        if want_fields != got["fields"]:
            out["mismatch"].append((case, "fields"))
        for k, sp in enumerate(sim.species):
            bad = sum(int(np.count_nonzero(~np.isfinite(sp.live(a))))
                      for a in _ARRAYS7)
            if bad != v.nonfinite[k]:
                out["mismatch"].append((case, k, "count"))
            for a, attr in enumerate("xyz"):
                pos = sp.live(attr)
                lo = np.fmin.reduce(pos) if sp.n else np.float32(np.nan)
                hi = np.fmax.reduce(pos) if sp.n else np.float32(np.nan)
                want = (np.float32(np.inf) if np.isnan(lo) else lo,
                        np.float32(-np.inf) if np.isnan(hi) else hi)
                if (v.lo[k][a], v.hi[k][a]) != want:
                    out["mismatch"].append((case, k, attr))
            got["species"].append([int(v.nonfinite[k]),
                                   [float(x) for x in v.lo[k]],
                                   [float(x) for x in v.hi[k]]])
        got["digest"] = _state_digest(sim)
        out[case] = got
    return out


_VERDICT_CHILD = """
import json, os
os.sched_setaffinity(0, {cpus!r})
from tests import test_validate_guard as t
print(json.dumps(t._verdict_cases()))
"""


def _pinned_verdicts(cpus) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _VERDICT_CHILD.format(cpus=sorted(cpus))],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- goldens recorded with the file-backed ring and numpy screens -------------

#: The final energy line and the flight recorder's checkpoint events of
#: ``run-deck uniform --steps 200 --guard raise --record 1`` (no guard
#: events: the run is clean), recorded at commit b5b323c, before the
#: step screened itself and the ring moved into memory.
_RECORDED_ENERGY = ("step 200: E=7.9555e-02 B=6.1547e-03 K=1.8628e+00 "
                    "total=1.9485e+00 (drift 1.20%)")

#: State sha256 (fields, particle arrays, Mur history) after a rollback
#: and re-run under ``repair``, recorded at b5b323c with the ring on disk.
_ROLLBACK_GOLDEN = {
    "uniform":
        "5f0c6202491c00075733ab023c27295b1fa0bda2df5aabf05ca7a2b24f728341",
    "random-sort":
        "427ad8708455c30b0bb2d1babc2a4198a48c190a53fd65fe2c111ca05cbf9c3d",
    "absorbing-x":
        "f5f8dfd122a6b6298d2d6414b29b17e09b20fce92909c0fbafe45e8f01527b78",
}


def _rollback_deck(kind: str):
    if kind == "uniform":
        return uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, uth=0.05,
                                   num_steps=40)
    if kind == "random-sort":
        return uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, uth=0.05,
                                   num_steps=40, sort_kind=SortKind.RANDOM,
                                   sort_interval=3)
    return Deck(name="absorbing", nx=32, ny=4, nz=4, dx=0.5, dy=0.5, dz=0.5,
                num_steps=40,
                species=(SpeciesConfig("e", -1.0, 1.0, ppc=2, uth=0.05,
                                       weight=1e-3),),
                field_boundary=FieldBoundaryKind.ABSORBING_X,
                sources=(LaserAntenna(amplitude=0.5, omega=3.0, t_rise=1.0,
                                      t_flat=2.0, plane_index=2),))


def _digest_with_mur(sim) -> str:
    """:func:`_state_digest`'s bytes, then the Mur history if any."""
    h = hashlib.sha256()
    for name in _FIELDS9:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        for attr in sp._ARRAYS:
            h.update(sp.live(attr).tobytes())
    mur = getattr(sim.solver, "mur", None)
    for _, arr in (mur.history_items() if mur is not None else ()):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.native
class TestGoldensFromFileRing:
    @pytest.mark.parametrize("kind", sorted(_ROLLBACK_GOLDEN))
    def test_rollback_from_memory_matches_file_ring(self, kind):
        """A NaN the guard cannot repair: roll back from the in-memory
        ring to step 8 and re-run, to the bytes the file ring gave."""
        sim = _rollback_deck(kind).build()
        guard = SimulationGuard(policy="repair", checkpoint_interval=4)
        guard.attach(sim)
        sim.run(10)
        sim.fields.ey.data[3, 2, 2] = np.nan
        sim.run(10)
        assert [(e.step, e.check, e.action, e.detail)
                for e in guard.report.events] == [
            (11, "finite_fields", "rollback",
             "restored step 8 (2/3 retries left)")]
        assert sim.step_count == 20
        assert _digest_with_mur(sim) == _ROLLBACK_GOLDEN[kind]

    def test_recorded_guarded_run_matches_golden(self, tmp_path, capsys):
        from repro.cli import main
        rec = tmp_path / "rec"
        assert main(["run-deck", "uniform", "--steps", "200", "--guard",
                     "raise", "--record", "1", "--record-dir",
                     str(rec)]) == 0
        energy = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("step ")]
        assert energy[-1] == _RECORDED_ENERGY
        events = []
        for path in sorted(rec.glob("flight-*.jsonl")):
            for line in path.read_text().splitlines():
                ev = json.loads(line)
                if ev["ev"] in ("guard", "checkpoint"):
                    ev.pop("t")
                    events.append(ev)
        assert events == [{"ev": "checkpoint", "step": s}
                          for s in range(0, 201, 20)]
