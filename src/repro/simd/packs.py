"""Kokkos-SIMD-style packs: width-typed vectors with masks.

``Pack`` mirrors the C++26 ``std::simd`` design Kokkos SIMD implements
(§4.2): a fixed number of lanes, elementwise arithmetic, comparison
producing a ``Mask``, and ``where``-style masked blending for handling
branches without breaking vectorization.

The lanes live in a contiguous numpy slice, so pack arithmetic is real
vector arithmetic; ``pack_loop`` drives a kernel across an array in
pack-width steps with a masked remainder, which is exactly the code
structure the manual strategy produces.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro._util import check_positive
from repro.machine.specs import ISA, PlatformSpec, isa_lanes

__all__ = ["Pack", "Mask", "simd_width_for", "pack_loop"]


def simd_width_for(platform: PlatformSpec, dtype=np.float32) -> int:
    """Pack width the Kokkos SIMD library selects on *platform*.

    The library's native ABI: widest of the platform's
    ``kokkos_simd_isas`` (NEON/AVX2/AVX512); scalar (width 1) when the
    platform's vector ISA is unsupported — the A64FX case that makes
    manual vectorization ~2x slower there (§5.3).
    """
    itemsize = np.dtype(dtype).itemsize
    best = platform.best_isa(platform.kokkos_simd_isas)
    if best is ISA.SCALAR:
        return 1
    return isa_lanes(best, itemsize)


class Mask:
    """Boolean lane mask; result of pack comparisons."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        self.bits = np.asarray(bits, dtype=bool)

    @property
    def width(self) -> int:
        return self.bits.size

    def any(self) -> bool:
        return bool(self.bits.any())

    def all(self) -> bool:
        return bool(self.bits.all())

    def count(self) -> int:
        return int(self.bits.sum())

    def __and__(self, other: "Mask") -> "Mask":
        return Mask(self.bits & other.bits)

    def __or__(self, other: "Mask") -> "Mask":
        return Mask(self.bits | other.bits)

    def __invert__(self) -> "Mask":
        return Mask(~self.bits)

    def __repr__(self) -> str:
        return f"Mask({self.bits.astype(int).tolist()})"


class Pack:
    """Fixed-width SIMD value.

    Construct with :meth:`load`, :meth:`broadcast`, or :meth:`iota`.
    Arithmetic is lane-wise; comparisons yield :class:`Mask`;
    :meth:`where` blends two packs under a mask (the vectorized form
    of a branch); :meth:`gather`/:meth:`scatter` do indexed access.
    """

    __slots__ = ("lanes",)

    def __init__(self, lanes: np.ndarray):
        lanes = np.asarray(lanes)
        if lanes.ndim != 1:
            raise ValueError(f"pack lanes must be 1-D, got {lanes.shape}")
        self.lanes = lanes

    # -- constructors -------------------------------------------------------

    @classmethod
    def load(cls, array: np.ndarray, offset: int, width: int) -> "Pack":
        """Contiguous load of *width* lanes starting at *offset*."""
        check_positive("width", width)
        if offset < 0 or offset + width > array.shape[0]:
            raise IndexError(
                f"load [{offset}, {offset + width}) out of bounds "
                f"for array of {array.shape[0]}"
            )
        return cls(array[offset:offset + width].copy())

    @classmethod
    def masked_load(cls, array: np.ndarray, offset: int, width: int,
                    mask: "Mask", fill=0) -> "Pack":
        """Load selected lanes, filling unselected lanes with *fill*.

        Lanes beyond the end of *array* must be masked off; this is
        the remainder-loop load (``where(mask, load(...), fill)``).
        """
        check_positive("width", width)
        lanes = np.full(width, fill, dtype=array.dtype)
        avail = min(width, array.shape[0] - offset)
        if avail < 0:
            raise IndexError(f"masked load offset {offset} beyond array end")
        sel = mask.bits[:avail]
        lanes[:avail][sel] = array[offset:offset + avail][sel]
        if mask.bits[avail:].any():
            raise IndexError(
                "mask selects lanes beyond the end of the array "
                f"(offset={offset}, width={width}, len={array.shape[0]})"
            )
        return cls(lanes)

    @classmethod
    def broadcast(cls, value, width: int, dtype=np.float32) -> "Pack":
        check_positive("width", width)
        return cls(np.full(width, value, dtype=dtype))

    @classmethod
    def iota(cls, width: int, dtype=np.int64) -> "Pack":
        """Lanes 0..width-1 (lane-index pack)."""
        check_positive("width", width)
        return cls(np.arange(width, dtype=dtype))

    @classmethod
    def gather(cls, array: np.ndarray, indices: "Pack | np.ndarray") -> "Pack":
        idx = indices.lanes if isinstance(indices, Pack) else np.asarray(indices)
        return cls(array[idx])

    # -- stores -------------------------------------------------------------

    def store(self, array: np.ndarray, offset: int) -> None:
        """Contiguous store of all lanes starting at *offset*."""
        w = self.width
        if offset < 0 or offset + w > array.shape[0]:
            raise IndexError(
                f"store [{offset}, {offset + w}) out of bounds "
                f"for array of {array.shape[0]}"
            )
        array[offset:offset + w] = self.lanes

    def masked_store(self, array: np.ndarray, offset: int, mask: Mask) -> None:
        """Store only the lanes selected by *mask* (remainder loops).

        Lanes past the end of *array* must be masked off.
        """
        w = self.width
        avail = min(w, array.shape[0] - offset)
        if avail < 0:
            raise IndexError(f"masked store offset {offset} beyond array end")
        if mask.bits[avail:].any():
            raise IndexError(
                "mask selects lanes beyond the end of the array "
                f"(offset={offset}, width={w}, len={array.shape[0]})"
            )
        sel = mask.bits[:avail]
        array[offset:offset + avail][sel] = self.lanes[:avail][sel]

    def scatter(self, array: np.ndarray, indices: "Pack | np.ndarray") -> None:
        idx = indices.lanes if isinstance(indices, Pack) else np.asarray(indices)
        array[idx] = self.lanes

    # -- lane access ----------------------------------------------------------

    @property
    def width(self) -> int:
        return self.lanes.size

    def __getitem__(self, lane: int):
        return self.lanes[lane]

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other) -> np.ndarray:
        if isinstance(other, Pack):
            if other.width != self.width:
                raise ValueError(
                    f"pack width mismatch: {self.width} vs {other.width}")
            return other.lanes
        return other

    def __add__(self, other):
        return Pack(self.lanes + self._lift(other))

    def __radd__(self, other):
        return Pack(self._lift(other) + self.lanes)

    def __sub__(self, other):
        return Pack(self.lanes - self._lift(other))

    def __rsub__(self, other):
        return Pack(self._lift(other) - self.lanes)

    def __mul__(self, other):
        return Pack(self.lanes * self._lift(other))

    def __rmul__(self, other):
        return Pack(self._lift(other) * self.lanes)

    def __truediv__(self, other):
        return Pack(self.lanes / self._lift(other))

    def __rtruediv__(self, other):
        return Pack(self._lift(other) / self.lanes)

    def __neg__(self):
        return Pack(-self.lanes)

    def fma(self, b, c) -> "Pack":
        """Fused multiply-add: ``self * b + c``."""
        return Pack(self.lanes * self._lift(b) + self._lift(c))

    def sqrt(self) -> "Pack":
        return Pack(np.sqrt(self.lanes))

    def rsqrt(self) -> "Pack":
        return Pack(1.0 / np.sqrt(self.lanes))

    def exp(self) -> "Pack":
        return Pack(np.exp(self.lanes))

    def abs(self) -> "Pack":
        return Pack(np.abs(self.lanes))

    def min(self, other) -> "Pack":
        return Pack(np.minimum(self.lanes, self._lift(other)))

    def max(self, other) -> "Pack":
        return Pack(np.maximum(self.lanes, self._lift(other)))

    # -- reductions -----------------------------------------------------------

    def reduce_add(self):
        return self.lanes.sum()

    def reduce_min(self):
        return self.lanes.min()

    def reduce_max(self):
        return self.lanes.max()

    # -- comparisons / blending -------------------------------------------------

    def __lt__(self, other) -> Mask:
        return Mask(self.lanes < self._lift(other))

    def __le__(self, other) -> Mask:
        return Mask(self.lanes <= self._lift(other))

    def __gt__(self, other) -> Mask:
        return Mask(self.lanes > self._lift(other))

    def __ge__(self, other) -> Mask:
        return Mask(self.lanes >= self._lift(other))

    def eq(self, other) -> Mask:
        """Lane equality (named method: ``__eq__`` stays identity-free)."""
        return Mask(self.lanes == self._lift(other))

    @staticmethod
    def where(mask: Mask, a: "Pack", b: "Pack") -> "Pack":
        """Lane blend: ``mask ? a : b`` (vectorized branch)."""
        return Pack(np.where(mask.bits, a.lanes, b.lanes))

    def __repr__(self) -> str:
        return f"Pack({self.lanes.tolist()})"


def pack_loop(n: int, width: int,
              body: Callable[[int, int, Mask | None], None]) -> None:
    """Drive *body* across ``[0, n)`` in *width*-lane steps.

    ``body(offset, width, mask)`` — *mask* is ``None`` for full packs
    and a remainder :class:`Mask` for the final partial pack, matching
    the structure of manually vectorized loops (main loop + masked
    epilogue).
    """
    check_positive("width", width)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    main = (n // width) * width
    for off in range(0, main, width):
        body(off, width, None)
    rem = n - main
    if rem:
        mask = Mask(np.arange(width) < rem)
        body(main, width, mask)
