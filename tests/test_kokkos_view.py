"""Tests for the mini-Kokkos View layer."""

import numpy as np
import pytest

from repro.kokkos.view import Layout, MemSpace, View, create_mirror_view, deep_copy


class TestConstruction:
    def test_zero_initialised(self):
        v = View("a", (3, 4))
        assert v.shape == (3, 4)
        assert np.all(v.data == 0)
        assert v.dtype == np.float32

    def test_scalar_shape(self):
        v = View("a", 5)
        assert v.shape == (5,)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            View("a", (3, -1))

    def test_layout_right_is_c_order(self):
        v = View("a", (4, 5), layout=Layout.RIGHT)
        assert v.data.flags["C_CONTIGUOUS"]

    def test_layout_left_is_f_order(self):
        v = View("a", (4, 5), layout=Layout.LEFT)
        assert v.data.flags["F_CONTIGUOUS"]

    def test_adopt_array_shares_memory(self):
        a = np.zeros((3, 3), dtype=np.float32)
        v = View("a", a.shape, dtype=a.dtype, data=a)
        v[0, 0] = 7
        assert a[0, 0] == 7

    def test_adopt_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            View("a", (2, 2), data=np.zeros(5, dtype=np.float32))

    def test_adopt_layout_mismatch_copies(self):
        a = np.zeros((3, 3), dtype=np.float32, order="C")
        v = View("a", a.shape, dtype=a.dtype, layout=Layout.LEFT, data=a)
        assert v.data.flags["F_CONTIGUOUS"]


class TestAccess:
    def test_indexing_roundtrip(self):
        v = View("a", (2, 3))
        v[1, 2] = 5.0
        assert v[1, 2] == 5.0

    def test_extent(self):
        v = View("a", (2, 3, 4))
        assert [v.extent(i) for i in range(3)] == [2, 3, 4]
        assert v.rank == 3
        assert v.size == 24

    def test_len_is_first_extent(self):
        assert len(View("a", (7, 2))) == 7

    def test_asarray(self):
        v = View("a", (2, 2))
        v.fill(3.0)
        assert np.all(np.asarray(v) == 3.0)


class TestOps:
    def test_fill(self):
        v = View("a", (3,))
        v.fill(2.5)
        assert np.all(v.data == 2.5)

    def test_copy_is_deep(self):
        v = View("a", (3,))
        c = v.copy()
        c.fill(9)
        assert np.all(v.data == 0)
        assert c.layout is v.layout

    def test_repr_mentions_label(self):
        assert "myview" in repr(View("myview", (1,)))


class TestMirrors:
    def test_host_mirror_of_host_view_is_same(self):
        v = View("a", (3,), space=MemSpace.HOST)
        assert create_mirror_view(v) is v

    def test_device_view_gets_fresh_mirror(self):
        v = View("a", (3,), space=MemSpace.DEVICE)
        m = create_mirror_view(v)
        assert m is not v
        assert m.space is MemSpace.HOST
        assert m.shape == v.shape

    def test_deep_copy_view(self):
        src = View("s", (3,))
        src.fill(4.0)
        dst = View("d", (3,))
        deep_copy(dst, src)
        assert np.all(dst.data == 4.0)

    def test_deep_copy_scalar(self):
        dst = View("d", (3,))
        deep_copy(dst, 1.5)
        assert np.all(dst.data == 1.5)

    def test_deep_copy_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            deep_copy(View("d", (3,)), View("s", (4,)))
