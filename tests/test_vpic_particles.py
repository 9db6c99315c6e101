"""Tests for species storage, loading, Boris push, interpolation,
deposition, and boundaries."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos.atomics import collect_atomics
from repro.vpic import native
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


def _filled(n, seed):
    """A species of *n* random particles with capacity to spare (the
    dead tail is compared too) and distinct tags."""
    rng = np.random.default_rng(seed)
    sp = Species("e", q=-1.0, m=1.0, grid=Grid(4, 4, 4, dx=0.5, dy=0.5,
                                                dz=0.5), capacity=n + 5)
    sp.append(*rng.random((3, n)) * 2.0, *rng.normal(size=(3, n)),
              rng.random(n))
    sp.tag[:n] = rng.permutation(n)
    return sp


def _mask_remove(arrays, n, indices):
    """The boolean-mask stable compaction over *arrays*; returns the
    survivor count."""
    keep = np.ones(n, dtype=bool)
    keep[np.array(indices, dtype=np.int64)] = False
    k = int(keep.sum())
    for arr in arrays:
        arr[:k] = arr[:n][keep]
    return k


@st.composite
def _removals(draw):
    """(n, indices): a few runs of consecutive indices (head and tail
    included) plus scattered ones, with duplicates, in random order."""
    n = draw(st.integers(1, 400))
    runs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(1, 60)), max_size=6))
    idx = [i for s, k in runs for i in range(s, min(s + k, n))]
    idx += draw(st.lists(st.integers(0, n - 1), max_size=12))
    if draw(st.booleans()):
        idx += list(range(n - draw(st.integers(1, n)), n))
    return n, draw(st.permutations(idx))


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

    @pytest.mark.parametrize("form", ["runs", "mask"])
    @settings(max_examples=60, deadline=None)
    @given(case=_removals())
    def test_remove_matches_the_mask_compaction(self, form, case):
        """Removing leaves the bytes the mask compaction leaves, in
        every array up to its capacity, for head, tail, run and
        scattered indices — as drawn (unsorted, with duplicates), or
        sorted and unique as the callers build them from a mask
        (``np.nonzero(mask)[0]``)."""
        n, indices = case
        sp = _filled(n, seed=len(indices))
        want = [getattr(sp, a).copy() for a in Species._ARRAYS]
        k = _mask_remove(want, n, indices)
        gone = np.array(indices, dtype=np.int64)
        if form == "mask":
            mask = np.zeros(n, dtype=bool)
            mask[gone] = True
            gone = np.nonzero(mask)[0]
        sp.remove(gone)
        assert sp.n == k
        for attr, arr in zip(Species._ARRAYS, want):
            assert np.array_equal(getattr(sp, attr), arr), attr

    @pytest.mark.parametrize("case", [
        "empty", "all", "first", "head", "tail", "duplicates", "window"])
    def test_remove_edge_cases_match_the_mask(self, case):
        """3000 particles: nothing, everything, head runs, the tail
        run, duplicates, and a trailing column spread over a few runs
        (what the moving window drops)."""
        n = 3000
        indices = {
            "empty": [], "all": list(range(n)), "first": [0],
            "head": [0, 1, 2], "tail": list(range(2990, n)),
            "duplicates": [3, 3, 3, 9, 0, 0],
            "window": [i for s in (0, 700, 1400) for i in range(s, s + 40)],
        }[case]
        sp = _filled(n, seed=3)
        want = [getattr(sp, a).copy() for a in Species._ARRAYS]
        k = _mask_remove(want, n, indices)
        sp.remove(np.array(indices, dtype=np.int64))
        assert sp.n == k
        for attr, arr in zip(Species._ARRAYS, want):
            assert np.array_equal(getattr(sp, attr), arr), attr

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
        interior = counts.reshape(grid.shape)[1:-1, 1:-1, 1:-1]
        assert interior.min() == 3
        assert interior.max() == 3

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


# -- compiled charge deposit, kinetic terms and voxel refresh ------------------
#
# deposit_charge, Species.kinetic_energy and Species.update_voxels run
# a C kernel when one is built and fall back to numpy otherwise; the
# kernel performs numpy's float operations in numpy's order, so every
# output must be the same bytes. "off" makes the three entries decline,
# which is exactly the no-compiler path.

GUARD_KERNELS = ("deposit_charge", "kinetic_terms", "voxel_refresh")

needs_kernel = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]


def _on_and_off(monkeypatch, fn):
    """``fn()`` with the compiled entries, then with them declining."""
    on = fn()
    with monkeypatch.context() as m:
        for name in GUARD_KERNELS:
            m.setattr(native._NativeLib, name, lambda self, *a: False)
        off = fn()
    return on, off


ORIGIN_GRIDS = {
    "zero-origin": Grid(8, 6, 5, dx=0.5, dy=0.3, dz=0.7),
    "offset-origin": Grid(8, 6, 5, dx=0.5, dy=0.3, dz=0.7,
                          x0=-2.5, y0=1.25, z0=-0.75),
}


def _awkward(grid, n, seed=0):
    """Positions reaching half a box beyond each face (negative ones
    included), then per axis NaN, +inf, -inf, exactly the high edge
    ``x0 + L``, -0.0 and exactly the low edge; momenta from thermal to
    1e20 plus NaN/inf; weights of both signs."""
    rng = np.random.default_rng(seed)
    rows = max(n, 18)
    lo = np.array([grid.x0, grid.y0, grid.z0])
    length = np.array(grid.lengths)
    pos = (lo + rng.uniform(-0.5, 1.5, (rows, 3)) * length).astype(
        np.float32)
    for axis in range(3):
        special = [np.nan, np.inf, -np.inf, lo[axis] + length[axis], -0.0,
                   lo[axis]]
        pos[6 * axis:6 * axis + 6, axis] = special
    u = (rng.normal(scale=2.0, size=(rows, 3))
         * 10.0 ** rng.integers(-3, 20, size=(rows, 1))).astype(np.float32)
    u[:3] = [[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]]
    w = rng.uniform(-0.5, 2.0, rows).astype(np.float32)
    return tuple(np.ascontiguousarray(a[:n])
                 for a in (*pos.T, *u.T, w))


def _loaded(grid, name, q, m, n, seed):
    sp = Species(name, q, m, grid, capacity=8)
    sp.append(*_awkward(grid, n, seed))
    return sp


@pytest.mark.parametrize("origin", sorted(ORIGIN_GRIDS))
@pytest.mark.parametrize("n", [0, 1, 37, 5000])
class TestNativeGuardKernels:
    pytestmark = needs_kernel

    def test_charge_deposit_same_bytes(self, monkeypatch, origin, n):
        """Two species — one maybe empty — accumulating into one out."""
        grid = ORIGIN_GRIDS[origin]
        e = _loaded(grid, "e", -1.0, 1.0, n, 1)
        ion = _loaded(grid, "i", 1.0, 1836.0, 300, 2)

        def rho():
            out = np.zeros(grid.n_voxels, np.float32)
            for sp in (e, ion):
                x, y, z = sp.positions()
                deposit_charge(grid, x, y, z, sp.live("w"), sp.q, out=out)
            return out.tobytes()

        on, off = _on_and_off(monkeypatch, rho)
        assert on == off

    def test_voxels_same_bytes(self, monkeypatch, origin, n):
        grid = ORIGIN_GRIDS[origin]
        sp = _loaded(grid, "e", -1.0, 1.0, n, 3)

        def voxels():
            sp.voxel[:] = -7
            sp.update_voxels()
            return sp.voxel.tobytes()

        on, off = _on_and_off(monkeypatch, voxels)
        assert on == off
        x, y, z = sp.positions()
        assert sp.live("voxel").tolist() == \
            grid.voxel_of_position(x, y, z).tolist()
        if n:       # NaN bins into cell 1, as numpy's fmax clip does
            assert np.unravel_index(sp.voxel[0], grid.shape)[0] == 1

    def test_kinetic_energy_same_bytes(self, monkeypatch, origin, n):
        grid = ORIGIN_GRIDS[origin]
        sp = _loaded(grid, "e", -1.0, 1836.0, n, 4)

        def kinetic():
            total = sp.kinetic_energy()
            terms = sp._rows[1, :n].tobytes() if n else b""
            return np.float64(total).tobytes(), terms

        on, off = _on_and_off(monkeypatch, kinetic)
        assert on == off


@pytest.mark.parametrize("origin", sorted(ORIGIN_GRIDS))
def test_native_guard_kernels_decline_strided_views(origin):
    """A strided or non-float32 array is never handed to C: the entry
    returns False with *out* untouched and the caller runs numpy."""
    if not native.native_available():
        pytest.skip(native.native_status())
    lib = native.native_push_kernel()
    grid = ORIGIN_GRIDS[origin]
    x, y, z, _, _, _, w = _awkward(grid, 400)
    out = np.zeros(grid.n_voxels, np.float32)
    assert not lib.deposit_charge(grid, x[::2], y[::2], z[::2], w[::2],
                                  np.float32(-1.0), out)
    assert not lib.deposit_charge(grid, x.astype(np.float64), y, z, w,
                                  np.float32(-1.0), out)
    assert not out.any()
    vox = np.zeros(400, np.int64)
    assert not lib.voxel_refresh(grid, x, y, z, vox[::-1])
    assert not vox.any()
    sp = Species("e", -1.0, 1.0, grid, capacity=8)
    sp.append(x, y, z, x, y, z, w)
    t = np.zeros((sp.n, 2), np.float64)
    assert not lib.kinetic_terms(sp, t[:, 0])
    assert not t.any()
    # ... and the public function gives numpy's bytes for the view
    rho = deposit_charge(grid, x[::2], y[::2], z[::2], w[::2], -1.0)
    xs, ys, zs = (np.ascontiguousarray(a[::2]) for a in (x, y, z))
    assert rho.tobytes() == deposit_charge(
        grid, xs, ys, zs, np.ascontiguousarray(w[::2]), -1.0).tobytes()


@pytest.mark.native
def test_native_charge_deposit_signed_zero_fraction(monkeypatch):
    """A coordinate of -0.0 has fraction +0.0 on numpy's path (-0.0 minus
    floor(-0.0)); into an *out* of -0.0 the sign of each zero-weight
    corner's contribution is visible in the bytes."""
    if not native.native_available():
        pytest.skip(native.native_status())
    grid = ORIGIN_GRIDS["zero-origin"]
    x = np.array([-0.0, 0.3, -0.0], np.float32)
    y = np.array([0.2, -0.0, -0.0], np.float32)
    z = np.array([-0.0, -0.0, 0.4], np.float32)
    w = np.array([1.0, 2.0, -1.5], np.float32)

    def rho():
        out = np.full(grid.n_voxels, -0.0, np.float32)
        return deposit_charge(grid, x, y, z, w, 1.0, out=out).tobytes()

    on, off = _on_and_off(monkeypatch, rho)
    assert on == off


@pytest.mark.native
def test_native_charge_deposit_leaves_accounting_to_numpy():
    """Inside collect_atomics the numpy scatter runs, so the contention
    tally still sees all 8 corner scatters; the bytes are the same."""
    if not native.native_available():
        pytest.skip(native.native_status())
    grid = ORIGIN_GRIDS["offset-origin"]
    x, y, z, _, _, _, w = _awkward(grid, 1000)
    plain = deposit_charge(grid, x, y, z, w, -1.0)
    with collect_atomics() as tally:
        before = tally.operations
        counted = deposit_charge(grid, x, y, z, w, -1.0)
        assert tally.operations - before == 8 * x.size
    assert counted.tobytes() == plain.tobytes()


def _guard_kernel_digest() -> str:
    h = hashlib.sha256()
    for origin in sorted(ORIGIN_GRIDS):
        grid = ORIGIN_GRIDS[origin]
        sp = _loaded(grid, "e", -1.0, 1836.0, 3000, 5)
        x, y, z = sp.positions()
        h.update(deposit_charge(grid, x, y, z, sp.live("w"), sp.q)
                 .tobytes())
        h.update(np.float64(sp.kinetic_energy()).tobytes())
        h.update(sp._rows[1, :sp.n].tobytes())
        h.update(sp.live("voxel").tobytes())
    return h.hexdigest()


@pytest.mark.native
def test_native_guard_kernels_portable_build_same_bytes(monkeypatch):
    """The strict-IEEE flag set alone, -march=native, and numpy."""
    if not native.native_available():
        pytest.skip(native.native_status())
    digests = []
    try:
        for flags in (native._PORTABLE_CFLAGS, native._CFLAGS):
            assert native.rebuild(flags), native.native_status()
            digests.append(_guard_kernel_digest())
    finally:
        native.rebuild()
    _, numpy_digest = _on_and_off(monkeypatch, _guard_kernel_digest)
    assert digests[0] == digests[1] == numpy_digest
