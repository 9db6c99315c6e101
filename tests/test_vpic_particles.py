"""Tests for species storage, loading, Boris push, interpolation,
deposition, and boundaries."""

import numpy as np
import pytest

from repro.vpic.boris import advance_positions, boris_push
from repro.vpic.boundary import BoundaryKind, apply_particle_boundaries
from repro.vpic.deposit import cic_weights, deposit_charge, deposit_current
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid
from repro.vpic.interpolate import (build_interpolators, gather_fields,
                                    gather_from_interpolators)
from repro.vpic.particles import load_maxwellian, load_uniform, maxwellian_momenta
from repro.vpic.species import Species


@pytest.fixture
def grid():
    return Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5)


@pytest.fixture
def electrons(grid):
    return Species("e", q=-1.0, m=1.0, grid=grid, capacity=64)


class TestSpecies:
    def test_append_and_capacity_growth(self, electrons):
        n = 200     # beyond initial capacity of 64
        z = np.zeros(n, dtype=np.float32)
        electrons.append(z + 0.1, z + 0.2, z + 0.3, z, z, z, z + 1)
        assert electrons.n == n
        assert electrons.capacity >= n
        assert np.all(electrons.live("w") == 1)

    def test_voxels_updated_on_append(self, electrons, grid):
        electrons.append([0.75], [0.25], [0.25], [0], [0], [0], [1])
        assert electrons.voxel[0] == grid.voxel(2, 1, 1)

    def test_remove_backfills(self, electrons):
        z = np.zeros(4, dtype=np.float32)
        electrons.append(np.array([0.1, 0.2, 0.3, 0.4], np.float32),
                         z, z, z, z, z, np.array([1, 2, 3, 4], np.float32))
        electrons.remove(np.array([1]))
        assert electrons.n == 3
        assert set(electrons.live("w").tolist()) == {1, 3, 4}

    def test_remove_is_a_stable_compaction(self, electrons):
        """Survivors keep their relative order in all nine arrays:
        the deposit accumulates in particle order, so a backfill from
        the tail would change J in the last bits."""
        n = 8
        ramp = np.arange(n, dtype=np.float32)
        electrons.append(ramp * 0.1, ramp * 0.2, ramp * 0.3,
                         ramp + 10, ramp + 20, ramp + 30, ramp + 1)
        electrons.tag[:n] = np.arange(n) * 7
        before = {a: electrons.live(a).copy() for a in Species._ARRAYS}
        electrons.remove(np.array([5, 0, 2]))
        keep = [1, 3, 4, 6, 7]
        assert electrons.n == len(keep)
        for attr in Species._ARRAYS:
            assert np.array_equal(electrons.live(attr),
                                  before[attr][keep]), attr

    def test_gamma_and_energy(self, electrons):
        electrons.append([0.1], [0.1], [0.1], [3.0], [0.0], [4.0], [2.0])
        g = electrons.gamma()[0]
        assert g == pytest.approx(np.sqrt(26), rel=1e-6)
        assert electrons.kinetic_energy() == pytest.approx(2 * (g - 1),
                                                           rel=1e-6)

    def test_momentum_total(self, electrons):
        electrons.append([0.1, 0.1], [0.1, 0.1], [0.1, 0.1],
                         [1.0, -1.0], [0, 0], [0, 0], [1.0, 1.0])
        assert np.allclose(electrons.momentum_total(), [0, 0, 0], atol=1e-6)

    def test_empty_species(self, electrons):
        assert electrons.kinetic_energy() == 0.0
        assert np.all(electrons.momentum_total() == 0)

    @pytest.mark.parametrize("n", [0, 1, 7, 129, 10**5 + 3])
    def test_reductions_equal_the_plain_expressions_bitwise(self, grid, n):
        """The scratch-row reductions perform the plain expressions'
        float64 operations in their order, so every energy line the
        CLI prints stays the same string. Twice: the second call
        reuses rows the first one dirtied."""
        rng = np.random.default_rng(n)
        sp = Species("e", q=-1.0, m=1836.0, grid=grid, capacity=8)
        u = rng.normal(scale=2.0, size=(3, n))
        sp.append(*rng.random((3, n)) * 4.0, *u, rng.uniform(0.5, 2.0, n))
        ux, uy, uz = (a.astype(np.float64) for a in sp.momenta())
        w = sp.live("w").astype(np.float64)
        gamma = np.sqrt(1.0 + ux**2 + uy**2 + uz**2)
        kinetic = float((w * sp.m * (gamma - 1.0)).sum()) if n else 0.0
        momentum = [float((w * sp.m * a).sum()) for a in sp.momenta()]
        for _ in range(2):
            assert np.array_equal(sp.gamma(), gamma)
            assert sp.kinetic_energy() == kinetic
            assert sp.momentum_total().tolist() == momentum


class TestLoading:
    def test_uniform_ppc_exact(self, electrons, grid):
        n = load_uniform(electrons, ppc=3)
        assert n == 3 * grid.n_cells
        counts = np.bincount(electrons.live("voxel"),
                             minlength=grid.n_voxels)
        assert counts[grid.interior_voxels()].min() == 3
        assert counts[grid.interior_voxels()].max() == 3

    def test_positions_inside_box(self, electrons, grid):
        load_uniform(electrons, ppc=2)
        x, y, z = electrons.positions()
        lx, ly, lz = grid.lengths
        assert x.min() >= 0 and x.max() < lx
        assert y.min() >= 0 and y.max() < ly

    def test_maxwellian_statistics(self, electrons):
        load_maxwellian(electrons, ppc=8, uth=0.1, drift=(0.05, 0, 0),
                        seed=1)
        ux = electrons.live("ux")
        assert ux.mean() == pytest.approx(0.05, abs=0.01)
        assert ux.std() == pytest.approx(0.1, abs=0.01)

    def test_maxwellian_momenta_shapes(self):
        ux, uy, uz = maxwellian_momenta(100, 0.1)
        assert ux.shape == (100,)
        assert ux.dtype == np.float32

    def test_deterministic_by_seed(self, grid):
        a = Species("a", -1, 1, grid)
        b = Species("b", -1, 1, grid)
        load_maxwellian(a, 2, 0.1, seed=5)
        load_maxwellian(b, 2, 0.1, seed=5)
        assert np.array_equal(a.live("x"), b.live("x"))
        assert np.array_equal(a.live("ux"), b.live("ux"))


class TestBorisPush:
    def test_pure_e_acceleration(self):
        ux = np.zeros(1, dtype=np.float32)
        uy = np.zeros(1, dtype=np.float32)
        uz = np.zeros(1, dtype=np.float32)
        e = np.ones(1, dtype=np.float32)
        z = np.zeros(1, dtype=np.float32)
        boris_push(ux, uy, uz, e, z, z, z, z, z, q=-1.0, m=1.0, dt=0.1)
        # du = q E dt
        assert ux[0] == pytest.approx(-0.1, rel=1e-6)

    def test_pure_b_preserves_energy(self):
        rng = np.random.default_rng(0)
        ux = rng.normal(0, 0.5, 100).astype(np.float32)
        uy = rng.normal(0, 0.5, 100).astype(np.float32)
        uz = rng.normal(0, 0.5, 100).astype(np.float32)
        u2_before = ux**2 + uy**2 + uz**2
        z = np.zeros(100, dtype=np.float32)
        b = np.full(100, 2.0, dtype=np.float32)
        for _ in range(50):
            boris_push(ux, uy, uz, z, z, z, z, z, b, q=-1.0, m=1.0, dt=0.05)
        u2_after = ux**2 + uy**2 + uz**2
        np.testing.assert_allclose(u2_after, u2_before, rtol=1e-4)

    def test_gyro_orbit_radius(self):
        # Circular orbit in uniform Bz: radius = gamma v / (|q| B / m).
        u0 = 0.1
        bz_val = 1.0
        ux = np.array([u0], dtype=np.float32)
        uy = np.zeros(1, dtype=np.float32)
        uz = np.zeros(1, dtype=np.float32)
        x = np.zeros(1, dtype=np.float32)
        y = np.zeros(1, dtype=np.float32)
        zp = np.zeros(1, dtype=np.float32)
        zero = np.zeros(1, dtype=np.float32)
        bz = np.full(1, bz_val, dtype=np.float32)
        gamma = np.sqrt(1 + u0**2)
        dt = 0.02
        xs, ys = [], []
        for _ in range(2000):
            boris_push(ux, uy, uz, zero, zero, zero, zero, zero, bz,
                       q=-1.0, m=1.0, dt=dt)
            advance_positions(x, y, zp, ux, uy, uz, dt)
            xs.append(float(x[0]))
            ys.append(float(y[0]))
        radius = u0 / gamma / (bz_val / gamma)   # = u0 / B
        extent = (max(xs) - min(xs)) / 2
        assert extent == pytest.approx(radius, rel=0.05)

    def test_rejects_bad_dt(self):
        z = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError):
            boris_push(z, z, z, z, z, z, z, z, z, -1, 1, 0.0)
        with pytest.raises(ValueError):
            advance_positions(z, z, z, z, z, z, -0.1)

    def test_advance_positions_velocity_limit(self):
        # v = u/gamma < c = 1 even for large u.
        x = np.zeros(1, dtype=np.float32)
        z = np.zeros(1, dtype=np.float32)
        ux = np.array([100.0], dtype=np.float32)
        advance_positions(x, z.copy(), z.copy(), ux, z, z, dt=1.0)
        assert x[0] < 1.0


class TestInterpolation:
    def test_uniform_field_exact(self, grid):
        f = FieldArrays(grid)
        f.ey.fill(3.0)
        ex, ey, ez, bx, by, bz = gather_fields(
            f, np.array([1.1]), np.array([2.2]), np.array([0.7]))
        assert ey[0] == pytest.approx(3.0, rel=1e-6)
        assert ex[0] == 0.0

    def test_linear_field_exact(self, grid):
        # Trilinear interpolation reproduces linear fields exactly.
        f = FieldArrays(grid)
        idx = np.arange(grid.nx + 2, dtype=np.float32)
        f.ex.data[:, :, :] = idx[:, None, None]
        x = np.array([1.3], dtype=np.float32)   # cell 3 + frac 0.6/...
        ex, *_ = gather_fields(f, x, np.array([1.0]), np.array([1.0]))
        # position 1.3 / dx 0.5 -> cell coordinate 2.6 -> ghost index
        # 3 + frac 0.6 -> value 3.6
        assert ex[0] == pytest.approx(3.6, rel=1e-5)

    def test_interpolator_table_shape(self, grid):
        f = FieldArrays(grid)
        table = build_interpolators(f)
        assert table.shape == (grid.n_voxels, 18)

    def test_interpolator_gather_matches_constant(self, grid):
        f = FieldArrays(grid)
        f.bz.fill(2.0)
        table = build_interpolators(f)
        vox = np.array([grid.voxel(2, 2, 2)])
        fields = gather_from_interpolators(table, vox, [0.5], [0.5], [0.5])
        assert fields[5][0] == pytest.approx(2.0, rel=1e-6)


class TestDeposition:
    def test_charge_conserved_exactly(self, grid, rng):
        n = 500
        lx, ly, lz = grid.lengths
        x = (rng.random(n) * lx).astype(np.float32)
        y = (rng.random(n) * ly).astype(np.float32)
        z = (rng.random(n) * lz).astype(np.float32)
        w = rng.random(n).astype(np.float32)
        rho = deposit_charge(grid, x, y, z, w, q=-1.0)
        total = rho.sum() * grid.cell_volume
        assert total == pytest.approx(-w.sum(), rel=1e-4)

    def test_cic_weights_sum_to_one(self, rng):
        fx = rng.random(100).astype(np.float32)
        fy = rng.random(100).astype(np.float32)
        fz = rng.random(100).astype(np.float32)
        total = sum(w for _, _, _, w in cic_weights(fx, fy, fz))
        np.testing.assert_allclose(total, 1.0, rtol=1e-5)

    def test_current_direction(self, grid):
        f = FieldArrays(grid)
        deposit_current(f, np.array([1.1], np.float32),
                        np.array([1.1], np.float32),
                        np.array([1.1], np.float32),
                        np.array([1.0], np.float32),
                        np.array([0.0], np.float32),
                        np.array([0.0], np.float32),
                        np.array([1.0], np.float32), q=-1.0)
        # negative charge moving +x deposits negative jx
        assert f.jx.data.sum() < 0
        assert f.jy.data.sum() == pytest.approx(0.0, abs=1e-6)

    def test_total_current_matches_qv(self, grid, rng):
        f = FieldArrays(grid)
        n = 100
        lx, ly, lz = grid.lengths
        x = (rng.random(n) * lx).astype(np.float32)
        y = (rng.random(n) * ly).astype(np.float32)
        z = (rng.random(n) * lz).astype(np.float32)
        ux = rng.normal(0, 0.1, n).astype(np.float32)
        zeros = np.zeros(n, dtype=np.float32)
        w = np.ones(n, dtype=np.float32)
        deposit_current(f, x, y, z, ux, zeros, zeros, w, q=-1.0)
        gamma = np.sqrt(1 + ux.astype(np.float64)**2)
        expect = (-1.0 * ux / gamma).sum() / grid.cell_volume
        assert f.jx.data.sum() == pytest.approx(expect, rel=1e-3)

    def test_deposit_charge_out_validation(self, grid):
        with pytest.raises(ValueError, match="voxels"):
            deposit_charge(grid, np.zeros(1, np.float32),
                           np.zeros(1, np.float32),
                           np.zeros(1, np.float32),
                           np.ones(1, np.float32), q=1.0,
                           out=np.zeros(3, dtype=np.float32))


class TestBoundaries:
    def test_periodic_wrap(self, electrons, grid):
        lx = grid.lengths[0]
        electrons.append([lx + 0.3], [0.5], [0.5], [0], [0], [0], [1])
        apply_particle_boundaries(electrons, BoundaryKind.PERIODIC)
        assert electrons.x[0] == pytest.approx(0.3, abs=1e-5)

    def test_periodic_negative_wrap(self, electrons, grid):
        electrons.append([-0.2], [0.5], [0.5], [0], [0], [0], [1])
        apply_particle_boundaries(electrons, BoundaryKind.PERIODIC)
        assert electrons.x[0] == pytest.approx(grid.lengths[0] - 0.2,
                                               abs=1e-5)

    def test_reflecting_flips_momentum(self, electrons, grid):
        electrons.append([-0.1], [0.5], [0.5], [-0.5], [0], [0], [1])
        apply_particle_boundaries(electrons, BoundaryKind.REFLECTING)
        assert electrons.x[0] == pytest.approx(0.1, abs=1e-5)
        assert electrons.ux[0] == 0.5

    def test_voxels_refreshed(self, electrons, grid):
        lx = grid.lengths[0]
        electrons.append([lx + 0.1], [0.3], [0.3], [0], [0], [0], [1])
        apply_particle_boundaries(electrons)
        assert electrons.voxel[0] == grid.voxel_of_position(
            electrons.x[0], electrons.y[0], electrons.z[0])
