"""Tests for the laser antenna source."""

import numpy as np
import pytest

from repro.vpic.absorbing import AbsorbingFieldSolver
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid
from repro.vpic.injection import LaserAntenna


class TestLaserAntenna:
    def test_envelope_shape(self):
        ant = LaserAntenna(amplitude=1.0, omega=2.0, t_rise=2.0,
                           t_flat=3.0)
        assert ant.envelope(-1) == 0.0
        assert ant.envelope(1.0) == pytest.approx(0.5)
        assert ant.envelope(3.5) == 1.0
        assert ant.envelope(6.0) == pytest.approx(0.5)
        assert ant.envelope(100.0) == 0.0
        assert ant.duration == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LaserAntenna(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LaserAntenna(1.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            LaserAntenna(1.0, 1.0, 1.0, 1.0, polarization="x")

    def test_injects_travelling_wave(self):
        g = Grid(64, 4, 4, dx=0.5)
        f = FieldArrays(g)
        solver = AbsorbingFieldSolver(f, axes=(0,))
        ant = LaserAntenna(amplitude=0.5, omega=3.0, t_rise=2.0,
                           t_flat=4.0, plane_index=4)
        for step in range(80):
            solver.advance_b(0.5)
            solver.advance_b(0.5)
            solver.advance_e(1.0)
            ant.inject(f, step)
        # Energy has entered and propagated beyond the antenna plane.
        right = float((f.ey.data[20:, :, :].astype(np.float64) ** 2).sum())
        assert right > 1e-4

    def test_quiet_after_duration(self):
        g = Grid(64, 4, 4, dx=0.5)
        f = FieldArrays(g)
        solver = AbsorbingFieldSolver(f, axes=(0,))
        ant = LaserAntenna(amplitude=0.5, omega=3.0, t_rise=1.0,
                           t_flat=1.0, plane_index=4)
        total_steps = int(ant.duration / g.dt) + 300
        energies = []
        for step in range(total_steps):
            solver.advance_b(0.5)
            solver.advance_b(0.5)
            solver.advance_e(1.0)
            ant.inject(f, step)
            energies.append(sum(f.field_energy()))
        # After the pulse exits through the absorbing boundary the box
        # empties out.
        assert energies[-1] < 0.2 * max(energies)

    def test_z_polarization(self):
        g = Grid(32, 4, 4, dx=0.5)
        f = FieldArrays(g)
        ant = LaserAntenna(amplitude=0.5, omega=3.0, t_rise=1.0,
                           t_flat=1.0, polarization="z", plane_index=2)
        ant.inject(f, step=5)
        assert np.abs(f.ez.data).max() > 0
        assert np.abs(f.ey.data).max() == 0

    def test_plane_bounds_checked(self):
        g = Grid(8, 4, 4)
        f = FieldArrays(g)
        ant = LaserAntenna(1.0, 1.0, 1.0, 1.0, plane_index=20)
        with pytest.raises(ValueError):
            ant.inject(f, 5)
