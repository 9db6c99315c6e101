"""Kokkos-style Views: layout-aware multidimensional arrays.

A ``View`` is the Kokkos data-structure primitive: an N-dimensional
array with an explicit memory layout and a memory-space tag. Layout
matters to the paper because the CPU-optimal layout for particle data
(AoS-ish ``LayoutRight``) differs from the GPU-optimal one
(SoA-ish ``LayoutLeft``), and Kokkos picks per-backend defaults so a
single source gets the right layout everywhere.

The implementation wraps numpy; ``LayoutRight`` is C order and
``LayoutLeft`` is Fortran order, so strides — and therefore the cache
behaviour measured by the performance models — are physically real.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

__all__ = ["Layout", "MemSpace", "View", "create_mirror_view", "deep_copy"]


class Layout(enum.Enum):
    """Index-to-address mapping. Right = C order, Left = Fortran."""

    RIGHT = "LayoutRight"
    LEFT = "LayoutLeft"

    @property
    def numpy_order(self) -> str:
        return "C" if self is Layout.RIGHT else "F"


class MemSpace(enum.Enum):
    """Memory-space tag (host DRAM vs. simulated device memory)."""

    HOST = "HostSpace"
    DEVICE = "DeviceSpace"


class View:
    """N-dimensional array with layout and memory-space metadata.

    Supports the operations ported VPIC code needs: indexing and
    slicing (delegated to numpy, preserving layout), ``fill``,
    ``mirror``/``deep_copy`` pairs, and stride inspection for the
    performance model.

    Parameters
    ----------
    label:
        Debug name (Kokkos views are labelled; profilers report them).
    shape:
        Dimensions.
    dtype:
        Element type (defaults to float32, VPIC's working precision).
    layout:
        ``Layout.RIGHT`` (C) or ``Layout.LEFT`` (Fortran).
    space:
        ``MemSpace.HOST`` or ``MemSpace.DEVICE``.
    data:
        Optional existing ndarray to adopt (must match shape/dtype;
        will be copied only if its layout disagrees).
    """

    __slots__ = ("label", "layout", "space", "_data")

    def __init__(self, label: str, shape: tuple[int, ...] | int,
                 dtype=np.float32, layout: Layout = Layout.RIGHT,
                 space: MemSpace = MemSpace.HOST,
                 data: np.ndarray | None = None):
        if isinstance(shape, int):
            shape = (shape,)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative extent in shape {shape}")
        self.label = label
        self.layout = layout
        self.space = space
        if data is None:
            self._data = np.zeros(shape, dtype=dtype, order=layout.numpy_order)
        else:
            data = np.asarray(data, dtype=dtype)
            if data.shape != tuple(shape):
                raise ValueError(
                    f"data shape {data.shape} != view shape {tuple(shape)}"
                )
            want_order = layout.numpy_order
            flag = "C_CONTIGUOUS" if want_order == "C" else "F_CONTIGUOUS"
            if not data.flags[flag]:
                data = np.asarray(data, order=want_order)
            self._data = data

    # -- basic protocol --------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying ndarray (shared, not a copy)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def rank(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def extent(self, dim: int) -> int:
        """Kokkos-style per-dimension extent accessor."""
        return self._data.shape[dim]

    def __len__(self) -> int:
        return self._data.shape[0] if self._data.ndim else 0

    def __getitem__(self, idx: Any):
        return self._data[idx]

    def __setitem__(self, idx: Any, value: Any) -> None:
        self._data[idx] = value

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._data.astype(dtype)
        return self._data

    def __repr__(self) -> str:
        return (f"View({self.label!r}, shape={self.shape}, "
                f"dtype={self.dtype}, {self.layout.value}, {self.space.value})")

    # -- whole-view operations -------------------------------------------------

    def fill(self, value: Any) -> None:
        """Kokkos ``deep_copy(view, scalar)`` equivalent."""
        self._data[...] = value

    def copy(self, label: str | None = None) -> "View":
        """Deep copy with the same layout/space."""
        out = View(label or f"{self.label}_copy", self.shape,
                   dtype=self.dtype, layout=self.layout, space=self.space)
        out._data[...] = self._data
        return out


def create_mirror_view(view: View) -> View:
    """Host mirror of a view (same layout; HOST space).

    Matches Kokkos semantics: if *view* is already host-resident, the
    mirror shares its allocation; a device view gets a fresh host
    buffer that must be synchronised with :func:`deep_copy`.
    """
    if view.space is MemSpace.HOST:
        return view
    mirror = View(f"{view.label}_mirror", view.shape, dtype=view.dtype,
                  layout=view.layout, space=MemSpace.HOST)
    return mirror


def deep_copy(dst: View, src: View | Any) -> None:
    """Copy *src* into *dst* (view-to-view or scalar broadcast)."""
    if isinstance(src, View):
        if src.shape != dst.shape:
            raise ValueError(
                f"deep_copy shape mismatch: {src.shape} -> {dst.shape}"
            )
        dst.data[...] = src.data
    else:
        dst.data[...] = src
