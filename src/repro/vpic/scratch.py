"""Preallocated scratch buffers for the zero-allocation fused push.

The reference kernels allocate ~20 fresh temporaries per
``boris_push`` call; at a few MB per step that is both allocator
traffic and cold-cache traffic. The fused fast path instead requests
every intermediate from a :class:`ScratchArena`: buffers are created
on first use and reused verbatim on every subsequent tile and step,
so after warm-up the inner loop performs zero heap allocation.

Buffers are keyed by name. A buffer is reallocated only when the
requested shape or dtype changes (e.g. the voxel count changed after
a restart onto a different grid) — names must therefore be unique per
logical buffer, never shared between two live intermediates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Named, reusable, preallocated numpy buffers."""

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        """The buffer registered under *name*, (re)allocated on first
        use or when shape/dtype changed. Contents are unspecified."""
        arr = self._bufs.get(name)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self._bufs[name] = arr
        return arr

    def at_least(self, name: str, size: int, dtype) -> np.ndarray:
        """The 1-D buffer registered under *name* if it already holds
        *size* elements, else a fresh one of exactly *size*: callers
        of different sizes (species of different capacity) share one
        buffer instead of evicting each other."""
        arr = self._bufs.get(name)
        if (arr is not None and arr.ndim == 1 and arr.size >= size
                and arr.dtype == dtype):
            return arr
        return self.buf(name, (size,), dtype)

    def zeros(self, name: str, shape, dtype) -> np.ndarray:
        """Like :meth:`buf` but cleared to zero on every call."""
        arr = self.buf(name, shape, dtype)
        arr[...] = 0
        return arr

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(a.nbytes for a in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)

    def __contains__(self, name: str) -> bool:
        return name in self._bufs

    def clear(self) -> None:
        self._bufs.clear()

    def __repr__(self) -> str:
        return (f"ScratchArena({len(self._bufs)} buffers, "
                f"{self.nbytes / 1024:.0f} KiB)")
