"""Tests for halo exchange, particle migration, and distributed runs."""

import numpy as np
import pytest

from repro.mpi.comm import World
from repro.mpi.decomposition import CartDecomposition
from repro.mpi.distributed import DistributedSimulation
from repro.mpi.halo import exchange_ghost_cells, reduce_ghost_sums
from repro.mpi.particle_exchange import migrate_particles
from repro.vpic.diagnostics import EnergyDiagnostic
from repro.vpic.grid import Grid
from repro.vpic.species import Species
from repro.vpic.workloads import uniform_plasma_deck


def make_world_arrays(decomp, fill_rank_id=True):
    """One ghost-inclusive array per rank, interior = rank id."""
    lx, ly, lz = decomp.local_shape
    arrays = []
    for r in range(decomp.n_ranks):
        a = np.full((lx + 2, ly + 2, lz + 2), -1.0)
        if fill_rank_id:
            a[1:-1, 1:-1, 1:-1] = r
        arrays.append(a)
    return arrays


class TestGhostExchange:
    def test_ghosts_match_neighbor_interiors(self):
        decomp = CartDecomposition(8, 8, 8, (2, 2, 2))
        world = World(8)
        arrays = make_world_arrays(decomp)
        exchange_ghost_cells(world, decomp, arrays)
        for r in range(8):
            nbrs = decomp.neighbors(r)
            a = arrays[r]
            assert np.all(a[0, 1:-1, 1:-1] == nbrs[0])    # -x ghost
            assert np.all(a[-1, 1:-1, 1:-1] == nbrs[1])   # +x ghost
            assert np.all(a[1:-1, 0, 1:-1] == nbrs[2])
            assert np.all(a[1:-1, 1:-1, -1] == nbrs[5])

    def test_corner_ghosts_filled(self):
        decomp = CartDecomposition(4, 4, 4, (2, 2, 1))
        world = World(4)
        arrays = make_world_arrays(decomp)
        exchange_ghost_cells(world, decomp, arrays)
        # The corner ghost must hold the diagonal neighbor's value,
        # filled transitively by the axis-sequential exchange.
        diag = decomp.rank_of(1, 1, 0)
        assert arrays[0][0, 0, 1] == diag

    def test_single_rank_self_periodic(self):
        decomp = CartDecomposition(4, 4, 4, (1, 1, 1))
        world = World(1)
        a = np.zeros((6, 6, 6))
        a[1:-1, 1:-1, 1:-1] = np.arange(64).reshape(4, 4, 4)
        exchange_ghost_cells(world, decomp, [a])
        assert np.array_equal(a[0, 1:-1, 1:-1], a[4, 1:-1, 1:-1])

    def test_wrong_array_count(self):
        decomp = CartDecomposition(4, 4, 4, (2, 1, 1))
        with pytest.raises(ValueError):
            exchange_ghost_cells(World(2), decomp, [np.zeros((4, 6, 6))])


class TestReduceGhosts:
    def test_face_spill_delivered(self):
        decomp = CartDecomposition(4, 4, 4, (2, 1, 1))
        world = World(2)
        arrays = make_world_arrays(decomp, fill_rank_id=False)
        for a in arrays:
            a[...] = 0.0
        arrays[0][0, 2, 2] = 5.0        # rank 0's -x ghost
        reduce_ghost_sums(world, decomp, arrays)
        # belongs to rank 1's +x boundary (periodic)
        assert arrays[1][2, 2, 2] == 5.0
        assert arrays[0][0, 2, 2] == 0.0

    def test_corner_spill_cascades(self):
        decomp = CartDecomposition(4, 4, 4, (2, 2, 1))
        world = World(4)
        arrays = make_world_arrays(decomp, fill_rank_id=False)
        for a in arrays:
            a[...] = 0.0
        arrays[0][0, 0, 2] = 3.0        # diagonal (-x, -y) ghost corner
        reduce_ghost_sums(world, decomp, arrays)
        diag = decomp.rank_of(1, 1, 0)
        assert arrays[diag][2, 2, 2] == 3.0

    def test_total_conserved(self):
        decomp = CartDecomposition(4, 4, 4, (2, 2, 1))
        world = World(4)
        rng = np.random.default_rng(0)
        arrays = [rng.random((4, 4, 6)) for _ in range(4)]
        total = sum(a.sum() for a in arrays)
        reduce_ghost_sums(world, decomp, arrays)
        assert sum(a.sum() for a in arrays) == pytest.approx(total)


class TestParticleMigration:
    def _setup(self):
        decomp = CartDecomposition(8, 8, 8, (2, 1, 1))
        world = World(2)
        species = []
        for r in range(2):
            ox, oy, oz = decomp.local_origin(r)
            g = Grid(4, 8, 8, x0=ox, y0=oy, z0=oz)
            species.append(Species("e", -1, 1, g))
        return decomp, world, species

    def test_straying_particle_moves_rank(self):
        decomp, world, species = self._setup()
        # Particle at x=5 belongs to rank 1's box [4, 8).
        species[0].append([5.0], [1.0], [1.0], [0], [0], [0], [2.0])
        moved = migrate_particles(world, decomp, species)
        assert moved == 1
        assert species[0].n == 0
        assert species[1].n == 1
        assert species[1].w[0] == 2.0

    def test_local_particle_stays(self):
        decomp, world, species = self._setup()
        species[0].append([1.0], [1.0], [1.0], [0], [0], [0], [1.0])
        assert migrate_particles(world, decomp, species) == 0
        assert species[0].n == 1

    def test_global_periodic_wrap(self):
        decomp, world, species = self._setup()
        # Past the global +x edge: wraps to rank 0's box via rank...
        species[1].append([8.2], [1.0], [1.0], [0], [0], [0], [1.0])
        migrate_particles(world, decomp, species)
        assert species[0].n == 1
        assert species[0].x[0] == pytest.approx(0.2, abs=1e-5)

    def test_total_count_conserved(self, rng):
        decomp = CartDecomposition(8, 8, 8, (2, 2, 2))
        world = World(8)
        species = []
        for r in range(8):
            ox, oy, oz = decomp.local_origin(r)
            g = Grid(4, 4, 4, x0=ox, y0=oy, z0=oz)
            sp = Species("e", -1, 1, g)
            n = 50
            sp.append((ox + rng.random(n) * 5 - 0.5).astype(np.float32),
                      (oy + rng.random(n) * 4).astype(np.float32),
                      (oz + rng.random(n) * 4).astype(np.float32),
                      *(np.zeros(n, np.float32),) * 3,
                      np.ones(n, np.float32))
            species.append(sp)
        total = sum(sp.n for sp in species)
        migrate_particles(world, decomp, species)
        assert sum(sp.n for sp in species) == total


class TestDistributedSimulation:
    def test_conservation_matches_single_rank(self):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, uth=0.05,
                                   num_steps=10)
        sim = deck.build()
        diag = EnergyDiagnostic()
        sim.run(10, diag)
        ref_total = diag.samples[-1].total

        dsim = DistributedSimulation(deck, 8)
        n0 = dsim.total_particles()
        dsim.run(10)
        e, b = dsim.total_field_energy()
        k = dsim.total_kinetic_energy()
        assert dsim.total_particles() == n0
        # Same physics, different loading noise realization: totals
        # agree to a few percent.
        assert (e + b + k) == pytest.approx(ref_total, rel=0.10)

    def test_distributed_energy_drift_bounded(self):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, uth=0.05)
        dsim = DistributedSimulation(deck, 4)
        e0, b0 = dsim.total_field_energy()
        k0 = dsim.total_kinetic_energy()
        dsim.run(15)
        e1, b1 = dsim.total_field_energy()
        k1 = dsim.total_kinetic_energy()
        assert (e1 + b1 + k1) == pytest.approx(e0 + b0 + k0, rel=0.05)

    def test_momentum_near_zero(self):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=4, uth=0.05)
        dsim = DistributedSimulation(deck, 2)
        dsim.run(5)
        p = sum((sp.momentum_total()
                 for rs in dsim.ranks for sp in rs.species),
                start=np.zeros(3))
        assert np.linalg.norm(p) / dsim.total_particles() < 0.01

    def test_messages_logged(self):
        deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2)
        dsim = DistributedSimulation(deck, 2)
        dsim.run(2)
        assert dsim.world.log.count > 0

    def test_rejects_callable_decks(self):
        from repro.vpic.workloads import laser_plasma_deck
        with pytest.raises(ValueError, match="field_init"):
            DistributedSimulation(
                laser_plasma_deck(nx=8, ny=8, nz=8, ppc=2), 2)
