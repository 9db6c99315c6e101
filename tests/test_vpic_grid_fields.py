"""Tests for the grid and the FDTD field solver."""

import numpy as np
import pytest

from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid


class TestGrid:
    def test_shapes(self):
        g = Grid(4, 5, 6)
        assert g.shape == (6, 7, 8)
        assert g.n_cells == 120
        assert g.n_voxels == 6 * 7 * 8

    def test_default_dt_under_courant(self):
        g = Grid(8, 8, 8, dx=0.5, dy=0.5, dz=0.5)
        courant = 1.0 / np.sqrt(3 * (1 / 0.5) ** 2)
        assert 0 < g.dt < courant

    def test_explicit_dt_kept(self):
        assert Grid(4, 4, 4, dt=0.01).dt == 0.01

    def test_voxel_roundtrip(self):
        g = Grid(3, 4, 5)
        for coords in [(0, 0, 0), (2, 3, 4), (4, 5, 6)]:
            v = g.voxel(*coords)
            assert np.unravel_index(v, g.shape) == coords

    def test_voxel_vectorized(self):
        g = Grid(3, 4, 5)
        ix = np.array([0, 1])
        iy = np.array([2, 3])
        iz = np.array([4, 5])
        v = g.voxel(ix, iy, iz)
        rx, ry, rz = np.unravel_index(v, g.shape)
        assert np.array_equal(rx, ix)
        assert np.array_equal(ry, iy)
        assert np.array_equal(rz, iz)

    def test_cell_of_position_interior(self):
        g = Grid(4, 4, 4, dx=0.5, dy=0.5, dz=0.5)
        ix, iy, iz = g.cell_of_position(0.75, 0.25, 1.99)
        assert (ix, iy, iz) == (2, 1, 4)

    def test_edge_position_clamped(self):
        # Particle exactly on the high edge (float32 wrap artifact).
        g = Grid(16, 16, 16, dx=0.4, dy=0.4, dz=0.4)
        y = np.float32(16 * 0.4)
        ix, iy, iz = g.cell_of_position(np.array([0.0]), np.array([y]),
                                        np.array([0.0]))
        assert iy[0] == 16

    def test_cell_fraction_in_unit_range(self):
        g = Grid(4, 4, 4, dx=0.3)
        rng = np.random.default_rng(0)
        pos = rng.random(100) * 1.2
        fx, fy, fz = g.cell_fraction(pos, pos, pos)
        for f in (fx, fy, fz):
            assert np.all((0 <= f) & (f < 1))

    def test_lengths_and_volume(self):
        g = Grid(2, 3, 4, dx=0.5, dy=1.0, dz=2.0)
        assert g.lengths == (1.0, 3.0, 8.0)
        assert g.cell_volume == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0, 4, 4)
        with pytest.raises(ValueError):
            Grid(4, 4, 4, dx=-1)


class TestFieldArrays:
    def test_component_shapes(self):
        f = FieldArrays(Grid(4, 4, 4))
        for name, view in f.components().items():
            assert view.shape == (6, 6, 6)
            assert view.dtype == np.float32

    def test_clear_currents(self):
        f = FieldArrays(Grid(2, 2, 2))
        f.jx.fill(5.0)
        f.clear_currents()
        assert np.all(f.jx.data == 0)

    def test_field_energy_counts_interior_only(self):
        g = Grid(2, 2, 2)
        f = FieldArrays(g)
        f.ex.data[...] = 1.0
        e, b = f.field_energy()
        assert e == pytest.approx(0.5 * 8 * g.cell_volume)
        assert b == 0.0


class TestFieldSolver:
    def test_uniform_fields_are_static(self):
        f = FieldArrays(Grid(4, 4, 4))
        f.ex.fill(1.0)
        f.by.fill(2.0)
        s = FieldSolver(f)
        for _ in range(5):
            s.advance_b(0.5)
            s.advance_b(0.5)
            s.advance_e(1.0)
        assert np.allclose(f.ex.data, 1.0, atol=1e-6)
        assert np.allclose(f.by.data, 2.0, atol=1e-6)

    def test_vacuum_wave_energy_conserved(self):
        # A periodic plane wave in vacuum keeps its energy under FDTD.
        g = Grid(32, 4, 4, dx=1.0)
        f = FieldArrays(g)
        x = np.arange(34) - 1.0
        k = 2 * np.pi / 32.0
        f.ey.data[:, :, :] = np.sin(k * x)[:, None, None].astype(np.float32)
        f.bz.data[:, :, :] = np.sin(k * (x + 0.5))[:, None, None].astype(
            np.float32)
        s = FieldSolver(f)
        e0 = sum(f.field_energy())
        for _ in range(50):
            s.advance_b(0.5)
            s.advance_b(0.5)
            s.advance_e(1.0)
        e1 = sum(f.field_energy())
        assert e1 == pytest.approx(e0, rel=0.02)

    def test_wave_propagates(self):
        # The wave pattern should move, not stand still.
        g = Grid(32, 4, 4, dx=1.0)
        f = FieldArrays(g)
        x = np.arange(34) - 1.0
        k = 2 * np.pi / 32.0
        f.ey.data[:, :, :] = np.sin(k * x)[:, None, None].astype(np.float32)
        f.bz.data[:, :, :] = np.sin(k * (x + 0.5))[:, None, None].astype(
            np.float32)
        s = FieldSolver(f)
        before = f.ey.data[:, 2, 2].copy()
        for _ in range(8):
            s.advance_b(0.5)
            s.advance_b(0.5)
            s.advance_e(1.0)
        after = f.ey.data[:, 2, 2]
        assert not np.allclose(before, after, atol=1e-3)

    def test_current_drives_e_field(self):
        g = Grid(4, 4, 4)
        f = FieldArrays(g)
        f.jz.data[2, 2, 2] = 1.0
        FieldSolver(f).advance_e(1.0)
        assert f.ez.data[2, 2, 2] == pytest.approx(-g.dt, rel=1e-5)

    def test_periodic_sync(self):
        g = Grid(3, 3, 3)
        f = FieldArrays(g)
        f.ex.data[3, 2, 2] = 7.0     # high interior slab
        FieldSolver(f).sync_periodic(("ex",))
        assert f.ex.data[0, 2, 2] == 7.0

    def test_external_ghosts_skips_sync(self):
        g = Grid(3, 3, 3)
        f = FieldArrays(g)
        f.ex.data[3, 2, 2] = 7.0
        s = FieldSolver(f, external_ghosts=True)
        s.sync_periodic(("ex",))
        assert f.ex.data[0, 2, 2] == 0.0

    def test_ghost_current_reduction(self):
        g = Grid(3, 3, 3)
        f = FieldArrays(g)
        f.jx.data[0, 2, 2] = 2.0      # deposited into the low ghost
        FieldSolver(f).reduce_ghost_currents()
        assert f.jx.data[3, 2, 2] == 2.0
        assert f.jx.data[0, 2, 2] == 0.0
