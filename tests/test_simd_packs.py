"""Tests for the Kokkos-SIMD-style pack abstraction."""

import numpy as np
import pytest

from repro.machine.specs import get_platform
from repro.simd.packs import Mask, Pack, pack_loop, simd_width_for


class TestConstruction:
    def test_load(self):
        a = np.arange(10, dtype=np.float32)
        p = Pack.load(a, 2, 4)
        assert np.array_equal(p.lanes, [2, 3, 4, 5])

    def test_load_copies(self):
        a = np.arange(4, dtype=np.float32)
        p = Pack.load(a, 0, 4)
        a[0] = 99
        assert p[0] == 0

    def test_load_out_of_bounds(self):
        with pytest.raises(IndexError):
            Pack.load(np.zeros(4), 2, 4)

    def test_broadcast_and_iota(self):
        assert np.all(Pack.broadcast(3.5, 4).lanes == 3.5)
        assert np.array_equal(Pack.iota(4).lanes, [0, 1, 2, 3])

    def test_gather(self):
        a = np.array([10.0, 20.0, 30.0])
        p = Pack.gather(a, np.array([2, 0]))
        assert np.array_equal(p.lanes, [30.0, 10.0])

    def test_masked_load_fills(self):
        a = np.arange(3, dtype=np.float32)
        m = Mask(np.array([True, True, True, False]))
        p = Pack.masked_load(a, 0, 4, m, fill=-1)
        assert np.array_equal(p.lanes, [0, 1, 2, -1])

    def test_masked_load_beyond_end_rejected(self):
        a = np.arange(3, dtype=np.float32)
        m = Mask(np.array([True, True, True, True]))
        with pytest.raises(IndexError):
            Pack.masked_load(a, 0, 4, m)


class TestArithmetic:
    def test_elementwise_ops(self):
        a = Pack(np.array([1.0, 2.0]))
        b = Pack(np.array([3.0, 4.0]))
        assert np.array_equal((a + b).lanes, [4.0, 6.0])
        assert np.array_equal((b - a).lanes, [2.0, 2.0])
        assert np.array_equal((a * b).lanes, [3.0, 8.0])
        assert np.array_equal((b / a).lanes, [3.0, 2.0])
        assert np.array_equal((-a).lanes, [-1.0, -2.0])

    def test_scalar_broadcast(self):
        a = Pack(np.array([1.0, 2.0]))
        assert np.array_equal((a + 1).lanes, [2.0, 3.0])
        assert np.array_equal((2 * a).lanes, [2.0, 4.0])
        assert np.array_equal((1 - a).lanes, [0.0, -1.0])
        assert np.array_equal((4 / a).lanes, [4.0, 2.0])

    def test_fma(self):
        a = Pack(np.array([2.0, 3.0]))
        r = a.fma(Pack(np.array([4.0, 5.0])), 1.0)
        assert np.array_equal(r.lanes, [9.0, 16.0])

    def test_math_functions(self):
        a = Pack(np.array([4.0, 9.0]))
        assert np.array_equal(a.sqrt().lanes, [2.0, 3.0])
        assert np.allclose(a.rsqrt().lanes, [0.5, 1.0 / 3.0])
        assert np.allclose(Pack(np.array([0.0])).exp().lanes, [1.0])
        assert np.array_equal(Pack(np.array([-2.0])).abs().lanes, [2.0])

    def test_min_max(self):
        a = Pack(np.array([1.0, 5.0]))
        b = Pack(np.array([3.0, 2.0]))
        assert np.array_equal(a.min(b).lanes, [1.0, 2.0])
        assert np.array_equal(a.max(b).lanes, [3.0, 5.0])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            Pack(np.zeros(2)) + Pack(np.zeros(3))

    def test_reductions(self):
        a = Pack(np.array([1.0, 2.0, 3.0]))
        assert a.reduce_add() == 6.0


class TestMasks:
    def test_comparisons(self):
        a = Pack(np.array([1.0, 5.0]))
        assert np.array_equal((a < 3).bits, [True, False])
        assert np.array_equal((a >= 5).bits, [False, True])

    def test_boolean_algebra(self):
        m1 = Mask(np.array([True, False]))
        m2 = Mask(np.array([True, True]))
        assert np.array_equal((m1 & m2).bits, [True, False])
        assert np.array_equal((m1 | m2).bits, [True, True])
        assert np.array_equal((~m1).bits, [False, True])
        assert m1.count() == 1
        assert m2.all() and m1.any()

    def test_where_blend(self):
        m = Mask(np.array([True, False]))
        r = Pack.where(m, Pack(np.array([1.0, 1.0])),
                       Pack(np.array([2.0, 2.0])))
        assert np.array_equal(r.lanes, [1.0, 2.0])


class TestStores:
    def test_store(self):
        out = np.zeros(4, dtype=np.float32)
        Pack(np.array([1.0, 2.0], dtype=np.float32)).store(out, 1)
        assert np.array_equal(out, [0, 1, 2, 0])

    def test_store_out_of_bounds(self):
        with pytest.raises(IndexError):
            Pack(np.zeros(4)).store(np.zeros(3), 0)

    def test_masked_store(self):
        out = np.zeros(4, dtype=np.float32)
        m = Mask(np.array([True, False, True, False]))
        Pack(np.ones(4, dtype=np.float32)).masked_store(out, 0, m)
        assert np.array_equal(out, [1, 0, 1, 0])

    def test_masked_store_remainder(self):
        out = np.zeros(3, dtype=np.float32)
        m = Mask(np.array([True, True, True, False]))
        Pack(np.ones(4, dtype=np.float32)).masked_store(out, 0, m)
        assert np.array_equal(out, [1, 1, 1])

    def test_masked_store_overrun_rejected(self):
        out = np.zeros(3, dtype=np.float32)
        m = Mask(np.array([True, True, True, True]))
        with pytest.raises(IndexError):
            Pack(np.ones(4, dtype=np.float32)).masked_store(out, 0, m)

    def test_scatter(self):
        out = np.zeros(4)
        Pack(np.array([9.0, 8.0])).scatter(out, np.array([3, 0]))
        assert np.array_equal(out, [8, 0, 0, 9])


class TestPackLoop:
    def test_exact_multiple_has_no_mask(self):
        masks = []
        pack_loop(8, 4, lambda off, w, m: masks.append(m))
        assert masks == [None, None]

    def test_remainder_mask(self):
        calls = []
        pack_loop(10, 4, lambda off, w, m: calls.append((off, m)))
        assert calls[0] == (0, None)
        assert calls[1] == (4, None)
        off, m = calls[2]
        assert off == 8
        assert m.count() == 2

    def test_empty(self):
        pack_loop(0, 4, lambda *a: pytest.fail("should not be called"))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pack_loop(4, 0, lambda *a: None)
        with pytest.raises(ValueError):
            pack_loop(-1, 4, lambda *a: None)


class TestSimdWidthFor:
    def test_avx512_platform(self):
        assert simd_width_for(get_platform("Platinum 8480")) == 16

    def test_avx2_platform(self):
        assert simd_width_for(get_platform("EPYC 7763")) == 8

    def test_neon_platform(self):
        assert simd_width_for(get_platform("Grace")) == 4

    def test_sve_only_platform_falls_back_to_scalar(self):
        # §5.3: Kokkos SIMD lacks SVE; on A64FX manual is scalar.
        assert simd_width_for(get_platform("A64FX")) == 1

    def test_f64_halves_width(self):
        assert simd_width_for(get_platform("Platinum 8480"), np.float64) == 8
