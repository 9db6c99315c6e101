"""Integration tests: the full PIC loop and its physics."""

import numpy as np
import pytest

from repro.core.sorting import SortKind
from repro.vpic.deck import Deck, SpeciesConfig
from repro.vpic.diagnostics import (EnergyDiagnostic, energy_report,
                                    exponential_growth_rate)
from repro.vpic.simulation import Simulation
from repro.vpic.sort_step import SortStep
from repro.vpic.workloads import (laser_plasma_deck, two_stream_deck,
                                  uniform_plasma_deck, weibel_deck)


class TestDeck:
    def test_build(self, small_deck):
        sim = small_deck.build()
        assert sim.total_particles == small_deck.total_particles
        assert sim.grid.n_cells == 216

    def test_species_lookup(self, small_deck):
        sim = small_deck.build()
        assert sim.get_species("electron").q == -1.0
        with pytest.raises(KeyError):
            sim.get_species("positron")

    def test_total_particles_property(self):
        deck = uniform_plasma_deck(nx=4, ny=4, nz=4, ppc=2)
        assert deck.total_particles == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            Deck("bad", 4, 4, 4, num_steps=0)
        with pytest.raises(ValueError):
            SpeciesConfig("s", -1, 1, ppc=0)


class TestSimulationLoop:
    def test_step_advances_counter(self, small_deck):
        sim = small_deck.build()
        sim.step()
        assert sim.step_count == 1

    def test_energy_conservation_thermal_plasma(self):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=8, uth=0.05,
                                   num_steps=30)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(30, diag)
        # A stable thermal plasma: total energy drift bounded.
        assert diag.max_total_drift() < 0.05

    def test_momentum_conservation(self):
        deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=8, uth=0.05)
        sim = deck.build()
        sim.run(20)
        p = sum((sp.momentum_total() for sp in sim.species),
                start=np.zeros(3))
        # Thermal plasma: net momentum stays near zero.
        n = sim.total_particles
        assert np.linalg.norm(p) / n < 0.01

    def test_particle_count_constant(self, small_deck):
        sim = small_deck.build()
        n0 = sim.total_particles
        sim.run(10)
        assert sim.total_particles == n0

    def test_particles_stay_in_box(self, small_deck):
        sim = small_deck.build()
        sim.run(10)
        g = sim.grid
        for sp in sim.species:
            x, y, z = sp.positions()
            assert x.min() >= g.x0 and x.max() < g.x0 + g.lengths[0]

    def test_sorting_does_not_change_physics(self):
        results = {}
        for kind, tile in ((SortKind.STANDARD, 0),
                           (SortKind.STRIDED, 0),
                           (SortKind.TILED_STRIDED, 32)):
            deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=4, uth=0.05,
                                       num_steps=12, sort_interval=4,
                                       sort_kind=kind,
                                       sort_tile_size=tile)
            sim = deck.build()
            diag = EnergyDiagnostic()
            sim.run(12, diag)
            results[kind] = diag.samples[-1].total
        vals = list(results.values())
        # Sorting reorders particles only; energies agree to float32
        # accumulation noise.
        assert max(vals) - min(vals) < 2e-3 * abs(vals[0])

    def test_kernel_timings_recorded(self, small_deck):
        from repro.kokkos.profiling import (kernel_timings,
                                            reset_kernel_timings)
        reset_kernel_timings()
        sim = small_deck.build()
        sim.run(2)
        labels = set(kernel_timings())
        assert any("push/electron" in l for l in labels)
        assert any("field_solve" in l for l in labels)

    def test_run_rejects_bad_steps(self, small_deck):
        with pytest.raises(ValueError):
            small_deck.build().run(0)


class TestSortStep:
    def test_due_schedule(self):
        s = SortStep(interval=5)
        assert not s.due(0)
        assert not s.due(4)
        assert s.due(5)
        assert s.due(10)

    def test_interval_zero_never_due(self):
        assert not SortStep(interval=0).due(100)

    def test_none_kind_never_due(self):
        s = SortStep(kind=SortKind.NONE, interval=5)
        assert not s.due(5)

    def test_apply_reorders_all_arrays(self, small_deck):
        sim = small_deck.build()
        sp = sim.species[0]
        x_orig = sp.live("x").copy()
        vox_orig = sp.live("voxel").copy()
        s = SortStep(kind=SortKind.STANDARD)
        perm = s.apply(sp)
        assert np.all(np.diff(sp.live("voxel")) >= 0)
        assert np.array_equal(sp.live("x"), x_orig[perm])
        assert np.array_equal(sp.live("voxel"), vox_orig[perm])

    def test_from_plan(self):
        from repro.core.plan import SortPlan
        plan = SortPlan(SortKind.NONE, 0, "cache resident")
        s = SortStep.from_plan(plan)
        assert s.interval == 0

    def test_tiled_requires_tile(self, small_deck):
        sim = small_deck.build()
        s = SortStep(kind=SortKind.TILED_STRIDED, tile_size=0)
        with pytest.raises(ValueError):
            s.apply(sim.species[0])


class TestNativeFallbackReason:
    """``native_fallback_reason`` names the one gate that tripped
    (it used to answer "deposition kind, particle boundary, or
    nonzero origin" for all three)."""

    def test_each_fused_lane_gate_is_named(self, small_deck):
        import dataclasses

        from repro.core.plan import StepPlan
        from repro.vpic.boundary import BoundaryKind
        from repro.vpic.fields import FieldArrays
        from repro.vpic.grid import Grid

        sim = small_deck.build()
        sim.step_plan = StepPlan.NATIVE_PUSH
        assert sim.native_fallback_reason() == \
            "native-push lane requested"
        sim = dataclasses.replace(
            small_deck, boundary=BoundaryKind.REFLECTING).build()
        assert sim.native_fallback_reason() == \
            "reflecting particle boundary"
        grid = Grid(4, 4, 4, x0=1.0)
        sim = Simulation(grid=grid, fields=FieldArrays(grid), species=[])
        assert sim.native_fallback_reason() == \
            "nonzero grid origin (1.0, 0.0, 0.0)"


class TestPhysicsBenchmarks:
    def test_two_stream_growth_rate(self):
        deck = two_stream_deck(nx=32, ppc=64, drift=0.1, num_steps=800)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(800, diag, sample_every=8)
        t = diag.series("time")
        e = diag.series("electric")
        # Fit the steepest 10-sample window of the log-energy curve
        # (the linear-growth phase between noise floor and
        # saturation).
        loge = np.log(np.maximum(e, 1e-30))
        gamma = max(
            np.polyfit(t[lo:lo + 10], loge[lo:lo + 10], 1)[0] / 2
            for lo in range(2, len(e) - 10))
        theory = 1.0 / (2 * np.sqrt(2))
        # Finite ppc / finite temperature damp below the cold-beam
        # maximum; a factor-2 band is the standard PIC check.
        assert 0.4 * theory < gamma < 2.0 * theory

    def test_two_stream_field_grows_orders(self):
        deck = two_stream_deck(nx=32, ppc=64, drift=0.1, num_steps=800)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(800, diag, sample_every=16)
        e = diag.series("electric")
        assert e.max() > 100 * max(e[2], 1e-30)

    def test_weibel_magnetic_growth(self):
        deck = weibel_deck(nx=16, ny=16, ppc=16, drift=0.3, num_steps=120)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(120, diag, sample_every=5)
        b = diag.series("magnetic")
        assert b[-1] > 50 * max(b[1], 1e-30)

    def test_laser_plasma_deck_runs(self):
        deck = laser_plasma_deck(nx=16, ny=8, nz=8, ppc=8, num_steps=5)
        sim = deck.build()
        assert len(sim.species) == 2
        # slab occupies the right half
        x = sim.get_species("electron").live("x")
        mid = sim.grid.lengths[0] / 2
        assert (x >= mid - 1e-5).all()
        sim.run(5)
        assert sim.total_particles == deck.total_particles

    def test_laser_fields_initialized(self):
        deck = laser_plasma_deck(nx=16, ny=8, nz=8, ppc=4, num_steps=2)
        sim = deck.build()
        e, b = sim.fields.field_energy()
        assert e > 0 and b > 0


class TestDiagnostics:
    def test_energy_report_format(self, small_deck):
        sim = small_deck.build()
        diag = EnergyDiagnostic()
        sim.run(2, diag)
        rep = energy_report(diag)
        assert "step 2" in rep and "total" in rep

    def test_empty_report(self):
        assert energy_report(EnergyDiagnostic()) == "no samples"

    def test_growth_rate_validation(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.arange(3), np.ones(3))
        with pytest.raises(ValueError):
            exponential_growth_rate(np.arange(10.0),
                                    np.zeros(10), (2, 8))

    def test_growth_rate_exact_exponential(self):
        t = np.linspace(0, 5, 50)
        v = np.exp(2 * 0.3 * t)
        assert exponential_growth_rate(t, v) == pytest.approx(0.3, rel=1e-6)
