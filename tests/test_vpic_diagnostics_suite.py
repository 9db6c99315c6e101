"""Tests for moments, tracers, and the two-stream mode."""

import numpy as np
import pytest

from repro.vpic.grid import Grid
from repro.vpic.moments import (MomentSet, compute_moments, flow_velocity,
                                number_density, temperature)
from repro.vpic.particles import load_maxwellian
from repro.vpic.species import Species
from repro.vpic.tracers import TracerSet
from repro.vpic.workloads import uniform_plasma_deck


@pytest.fixture
def grid():
    return Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5)


@pytest.fixture
def thermal(grid):
    sp = Species("e", -1.0, 1.0, grid)
    load_maxwellian(sp, ppc=16, uth=0.1, drift=(0.05, 0, 0), seed=2)
    return sp


class TestMoments:
    def test_density_integrates_to_weight(self, thermal, grid):
        dens = number_density(thermal)
        total = dens.sum() * grid.cell_volume
        assert total == pytest.approx(thermal.live("w").sum(), rel=1e-6)

    def test_uniform_density_uniform(self, thermal, grid):
        dens = number_density(thermal).reshape(grid.shape)
        interior = dens[2:-2, 2:-2, 2:-2]
        assert interior.std() / interior.mean() < 0.2

    def test_flow_recovers_drift(self, thermal):
        dens, vel = flow_velocity(thermal)
        mask = dens > 0
        mean_vx = (vel[0][mask] * dens[mask]).sum() / dens[mask].sum()
        assert mean_vx == pytest.approx(0.05, abs=0.01)
        assert abs((vel[1][mask] * dens[mask]).sum()
                   / dens[mask].sum()) < 0.01

    def test_temperature_recovers_uth(self, thermal):
        ms = MomentSet(thermal)
        t = ms.mean_temperature()
        # T = m uth^2 for a nonrelativistic Maxwellian.
        assert t[1] == pytest.approx(0.01, rel=0.2)
        assert t[2] == pytest.approx(0.01, rel=0.2)

    def test_anisotropy_near_one_for_isotropic(self, thermal):
        assert MomentSet(thermal).anisotropy() < 1.5

    def test_anisotropic_beam_detected(self, grid):
        sp = Species("e", -1.0, 1.0, grid)
        load_maxwellian(sp, ppc=16, uth=0.02, seed=1)
        sp.live("uz")[...] = np.float32(5.0) * sp.live("uz")
        assert MomentSet(sp).anisotropy() > 5

    def test_empty_species(self, grid):
        sp = Species("e", -1.0, 1.0, grid)
        assert number_density(sp).sum() == 0
        assert temperature(sp).sum() == 0
        assert compute_moments(sp).mean_temperature().sum() == 0


class TestTracers:
    def test_tagging_selects_exactly_n(self, thermal):
        ts = TracerSet(thermal, 10, seed=1)
        assert (thermal.live("tag") >= 0).sum() == 10

    def test_record_and_trajectory(self, thermal):
        ts = TracerSet(thermal, 5, seed=1)
        ts.record(0)
        thermal.live("x")[...] += np.float32(0.01)
        ts.record(1)
        traj = ts.trajectory(3)
        assert traj["x"].shape == (2,)
        assert traj["x"][1] == pytest.approx(traj["x"][0] + 0.01,
                                             abs=1e-5)

    def test_identity_survives_sorting(self, thermal):
        from repro.core.sorting import SortKind
        from repro.vpic.sort_step import SortStep
        ts = TracerSet(thermal, 8, seed=2)
        ts.record(0)
        x_before = ts.samples[0].x.copy()
        SortStep(kind=SortKind.STANDARD).apply(thermal)
        ts.record(1)
        np.testing.assert_array_equal(np.sort(x_before),
                                      np.sort(ts.samples[1].x))
        # order by tag must be identical, not just set-equal
        np.testing.assert_allclose(ts.samples[1].x, x_before, atol=0)

    def test_identity_survives_migration(self):
        from repro.mpi.comm import World
        from repro.mpi.decomposition import CartDecomposition
        from repro.mpi.particle_exchange import migrate_particles
        decomp = CartDecomposition(8, 8, 8, (2, 1, 1))
        world = World(2)
        species = []
        for r in range(2):
            ox, oy, oz = decomp.local_origin(r)
            g = Grid(4, 8, 8, x0=ox, y0=oy, z0=oz)
            species.append(Species("e", -1, 1, g))
        species[0].append([5.0], [1.0], [1.0], [0], [0], [0], [1.0])
        species[0].tag[0] = 42
        migrate_particles(world, decomp, species)
        assert species[1].tag[0] == 42

    def test_energies_shape(self, thermal):
        ts = TracerSet(thermal, 4, seed=0)
        ts.record(0)
        ts.record(1)
        e = ts.energies()
        assert e.shape == (2, 4)
        assert np.all(e >= 0)

    def test_too_many_tracers_rejected(self, grid):
        sp = Species("e", -1.0, 1.0, grid)
        sp.append([0.1], [0.1], [0.1], [0], [0], [0], [1])
        with pytest.raises(ValueError):
            TracerSet(sp, 5)

    def test_bad_trajectory_index(self, thermal):
        ts = TracerSet(thermal, 3)
        ts.record(0)
        with pytest.raises(IndexError):
            ts.trajectory(3)


class TestTwoStreamMode:
    def test_two_stream_excites_seeded_mode(self):
        """The instability grows a longitudinal mode near the seeded
        wavenumber band (k v0 ~ w_pe)."""
        from repro.vpic.workloads import two_stream_deck
        deck = two_stream_deck(nx=32, ppc=64, drift=0.1, num_steps=500)
        sim = deck.build()
        sim.run(500)
        # ex averaged over y and z, its strongest non-DC x-mode
        g = sim.grid
        line = sim.fields.ex.data[1:-1, 1:-1, 1:-1].mean(axis=(1, 2))
        power = np.abs(np.fft.rfft(line.astype(np.float64))) ** 2 / g.nx
        k = 2.0 * np.pi * np.fft.rfftfreq(g.nx, d=g.dx)
        idx = 1 + int(np.argmax(power[1:]))
        k_dom, power = k[idx], power[idx]
        # fastest-growing mode: k ~ 0.6/v0 ... 1.0/v0 band
        assert 0.3 / 0.1 < k_dom < 1.5 / 0.1
        assert power > 0


class TestEnergyDriftGuardedDenominator:
    """Regression: ``max_total_drift`` on a cold deck (zero initial
    total energy) used to return 0.0 unconditionally — a deck that
    *gained* energy from a cold start reported perfect conservation."""

    def _diag(self, totals):
        from repro.vpic.diagnostics import EnergyDiagnostic, EnergySample
        diag = EnergyDiagnostic()
        for step, k in enumerate(totals):
            diag.samples.append(EnergySample(step, float(step), 0.0, 0.0, k))
        return diag

    def test_cold_deck_gaining_energy_reports_nonzero_drift(self):
        diag = self._diag([0.0, 0.5, 1.0])
        # Deviation 1.0 against the max-|total| fallback reference.
        assert diag.max_total_drift() == pytest.approx(1.0)

    def test_exactly_cold_run_reports_zero(self):
        diag = self._diag([0.0, 0.0, 0.0])
        assert diag.max_total_drift() == 0.0

    def test_warm_deck_unchanged(self):
        diag = self._diag([2.0, 2.5, 1.5])
        assert diag.max_total_drift() == pytest.approx(0.25)

    def test_empty_series(self):
        diag = self._diag([])
        assert diag.max_total_drift() == 0.0

    def test_guarded_denominator_from_live_cold_sim(self):
        """A genuinely cold deck driven by an external field kick."""
        from repro.vpic.diagnostics import EnergyDiagnostic
        deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=2, uth=0.0,
                                   num_steps=5)
        sim = deck.build()
        diag = EnergyDiagnostic()
        diag.record(sim)
        assert diag.samples[0].total == 0.0
        sim.fields.ex.data[...] += 0.1     # external kick
        sim.run(3, diag)
        assert diag.max_total_drift() > 0.0
