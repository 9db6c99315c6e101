"""Tests for the ensemble campaign machinery and the Harris deck."""

import numpy as np
import pytest

from repro.cluster.ensemble import (CampaignPlan, EnsembleRunner,
                                    plan_campaign)
from repro.cluster.systems import get_system
from repro.vpic.diagnostics import EnergyDiagnostic
from repro.vpic.workloads import harris_sheet_deck, uniform_plasma_deck


class TestCampaignPlanning:
    def test_plan_basic(self):
        selene = get_system("Selene")
        plan = plan_campaign(selene, runs=100, grid_points=500_000,
                             particles=5e7, steps=1000, total_gpus=64)
        assert plan.gpus_per_run * plan.concurrent_runs <= 64
        assert plan.total_seconds > 0
        assert plan.runs_per_hour > 0

    def test_superlinear_regime_preferred(self):
        """For a grid several times the cache peak, the planner picks
        more than one GPU per run: shrinking into cache beats running
        more concurrent slow runs — §6's batching argument."""
        from repro.cluster.cache_scaling import peak_grid_points
        selene = get_system("Selene")
        peak = peak_grid_points(selene.gpu)
        plan = plan_campaign(selene, runs=64, grid_points=8 * peak,
                             particles=1e8, steps=100, total_gpus=512)
        assert plan.gpus_per_run > 1

    def test_tiny_runs_stay_single_gpu(self):
        from repro.cluster.cache_scaling import peak_grid_points
        selene = get_system("Selene")
        peak = peak_grid_points(selene.gpu)
        plan = plan_campaign(selene, runs=64, grid_points=peak // 2,
                             particles=1e5, steps=100, total_gpus=512)
        # For runs this small the per-step halo latency outweighs any
        # cache gain from splitting further.
        assert plan.gpus_per_run == 1

    def test_validation(self):
        selene = get_system("Selene")
        with pytest.raises(ValueError):
            plan_campaign(selene, runs=0, grid_points=1, particles=1,
                          steps=1)


class TestEnsembleRunner:
    def test_runs_batch_with_distinct_seeds(self):
        def factory(seed):
            return uniform_plasma_deck(nx=4, ny=4, nz=4, ppc=2,
                                       uth=0.1, num_steps=3, seed=seed)

        def extract(sim):
            return sim.species[0].live("x")[:8].copy()

        runner = EnsembleRunner(factory, extract, base_seed=100)
        results = runner.run(3)
        assert [r.seed for r in results] == [100, 101, 102]
        data = np.stack([r.payload for r in results])
        assert data.shape == (3, 8)
        # different seeds -> different loadings
        assert not np.array_equal(data[0], data[1])

    def test_scalar_payloads(self):
        def factory(seed):
            return uniform_plasma_deck(nx=4, ny=4, nz=4, ppc=2,
                                       uth=0.1, num_steps=2, seed=seed)

        runner = EnsembleRunner(
            factory, lambda sim: sum(sp.kinetic_energy()
                                     for sp in sim.species))
        results = runner.run(2)
        assert np.asarray([r.payload for r in results]).shape == (2,)


class TestHarrisSheet:
    def test_deck_structure(self):
        deck = harris_sheet_deck(nx=16, nz=16, ppc=4, num_steps=10)
        sim = deck.build()
        assert {sp.name for sp in sim.species} == {"electron", "ion"}
        # Reversed Bx across the sheets.
        bx = sim.fields.bx.data[2, 1, :]
        assert bx.min() < -0.2 and bx.max() > 0.2

    def test_net_momentum_near_zero(self):
        deck = harris_sheet_deck(nx=16, nz=16, ppc=8, num_steps=10)
        sim = deck.build()
        p = sum((sp.momentum_total() for sp in sim.species),
                start=np.zeros(3))
        assert abs(p[1]) / sim.total_particles < 0.05

    def test_sheet_current_localized(self):
        deck = harris_sheet_deck(nx=16, nz=16, ppc=8, num_steps=10)
        sim = deck.build()
        uy = sim.get_species("electron").live("uy")
        z = sim.get_species("electron").live("z")
        lz = sim.grid.lengths[2]
        in_sheet = np.abs(z - lz / 4) < 1.0
        far = np.abs(z - lz / 2) < 0.5
        # Signed drift: sheet electrons carry a coherent +y current;
        # far from the sheets the mean velocity is thermal noise.
        assert uy[in_sheet].mean() > 0.1
        assert abs(uy[far].mean()) < 0.03

    def test_runs_with_bounded_energy(self):
        deck = harris_sheet_deck(nx=12, nz=12, ppc=4, num_steps=40)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(40, diag, sample_every=5)
        assert diag.max_total_drift() < 0.20
        # The seeded sheet is active: field and particles exchange
        # energy (magnetic energy changes measurably).
        b = diag.series("magnetic")
        assert abs(b[-1] - b[0]) > 0.05 * b[0]
