"""Particle species: SoA storage plus cell-index bookkeeping.

VPIC stores particles per species; the arrays here mirror its layout
(positions, normalized momenta ``u = p/mc``, statistical weight, and
the cell/voxel index that is simultaneously the gather index of the
interpolator, the scatter index of the accumulator, and the sort key
of §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive
from repro.vpic.grid import Grid

__all__ = ["Species"]


@dataclass
class Species:
    """One particle species.

    ``q`` and ``m`` are in units of |e| and m_e (electron: q=-1, m=1).
    Arrays are float32 (VPIC's working precision) except the voxel
    index. Capacity grows geometrically on demand.
    """

    name: str
    q: float
    m: float
    grid: Grid
    capacity: int = 1024

    def __post_init__(self) -> None:
        check_positive("m", self.m)
        check_positive("capacity", self.capacity)
        self.n = 0
        cap = self.capacity
        self.x = np.zeros(cap, dtype=np.float32)
        self.y = np.zeros(cap, dtype=np.float32)
        self.z = np.zeros(cap, dtype=np.float32)
        self.ux = np.zeros(cap, dtype=np.float32)
        self.uy = np.zeros(cap, dtype=np.float32)
        self.uz = np.zeros(cap, dtype=np.float32)
        self.w = np.zeros(cap, dtype=np.float32)
        self.voxel = np.zeros(cap, dtype=np.int64)
        # Tracer tag: -1 = untraced, k >= 0 identifies tracer k. A
        # first-class column so sorting/migration preserve identity.
        self.tag = np.full(cap, -1, dtype=np.int64)
        # Lazy voxel bookkeeping: the fused push moves particles
        # without recomputing voxels; consumers going through
        # :meth:`live` trigger the refresh on first use.
        self._voxels_stale = False

    _ARRAYS = ("x", "y", "z", "ux", "uy", "uz", "w", "voxel", "tag")

    # -- storage management ------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_cap = max(needed, 2 * self.capacity)
        for name in self._ARRAYS:
            old = getattr(self, name)
            fill = -1 if name == "tag" else 0
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[:self.n] = old[:self.n]
            setattr(self, name, grown)
        self.capacity = new_cap

    def append(self, x, y, z, ux, uy, uz, w) -> None:
        """Add particles (arrays of equal length); voxels computed."""
        x = np.asarray(x, dtype=np.float32)
        k = x.size
        self._ensure_capacity(self.n + k)
        s = slice(self.n, self.n + k)
        self.x[s] = x
        self.y[s] = np.asarray(y, dtype=np.float32)
        self.z[s] = np.asarray(z, dtype=np.float32)
        self.ux[s] = np.asarray(ux, dtype=np.float32)
        self.uy[s] = np.asarray(uy, dtype=np.float32)
        self.uz[s] = np.asarray(uz, dtype=np.float32)
        self.w[s] = np.asarray(w, dtype=np.float32)
        self.tag[s] = -1
        self.n += k
        self.update_voxels(s)

    def remove(self, indices: np.ndarray) -> None:
        """Delete particles at integer *indices* by stable compaction
        through a boolean mask: the survivors keep their relative
        order. That order is load-bearing — the deposit accumulates
        in particle order, so a backfill from the tail would change J
        in the last bits. Slots past the new count keep what they
        held."""
        n = self.n
        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        k = int(keep.sum())
        for name in self._ARRAYS:
            arr = getattr(self, name)
            arr[:k] = arr[:n][keep]
        self.n = k

    # -- views over live particles -------------------------------------------------

    def live(self, name: str) -> np.ndarray:
        """The live slice of one attribute array.

        Voxels refresh lazily: after a fused push the indices are
        stale until someone (sorting, diagnostics, checkpointing)
        actually reads them here.
        """
        if name == "voxel" and self._voxels_stale:
            self.update_voxels()
        return getattr(self, name)[:self.n]

    def positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.x[:self.n], self.y[:self.n], self.z[:self.n]

    def momenta(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ux[:self.n], self.uy[:self.n], self.uz[:self.n]

    # -- derived quantities -----------------------------------------------------------

    def update_voxels(self, sl: slice | None = None) -> None:
        """Recompute voxel indices from positions (in the compiled
        kernel when one is built: same indices, numpy is the
        fallback)."""
        from repro.vpic import native

        if sl is None:
            sl = slice(0, self.n)
            self._voxels_stale = False
        x, y, z, voxel = self.x[sl], self.y[sl], self.z[sl], self.voxel[sl]
        lib = native.native_push_kernel()
        if lib is None or not lib.voxel_refresh(self.grid, x, y, z, voxel):
            voxel[...] = self.grid.voxel_of_position(x, y, z)

    def mark_voxels_stale(self) -> None:
        """Positions moved without a voxel refresh (fused push)."""
        self._voxels_stale = True

    def mark_voxels_fresh(self) -> None:
        """Voxels were recomputed externally (native counting sort
        refreshes them from positions before permuting)."""
        self._voxels_stale = False

    #: (2, capacity) float64 scratch for the reductions below, made on
    #: first use (a class default, so subclasses that adopt storage
    #: without ``__post_init__`` get it too).
    _rows = None

    def _scratch_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Two reusable float64 rows of length ``n``."""
        if self._rows is None or self._rows.shape[1] < self.capacity:
            self._rows = np.empty((2, self.capacity), dtype=np.float64)
        return self._rows[0, :self.n], self._rows[1, :self.n]

    def _gamma_into(self, g: np.ndarray, t: np.ndarray) -> None:
        """``sqrt(1 + ux^2 + uy^2 + uz^2)`` in float64 into *g*, *t* as
        the temporary: the elementwise operations of the plain
        expression, in its order, without its nine allocations."""
        ux, uy, uz = self.momenta()
        np.copyto(g, ux)
        np.multiply(g, g, out=g)
        np.add(1.0, g, out=g)
        for u in (uy, uz):
            np.copyto(t, u)
            np.multiply(t, t, out=t)
            np.add(g, t, out=g)
        np.sqrt(g, out=g)

    def gamma(self) -> np.ndarray:
        """Relativistic Lorentz factor per particle."""
        g, t = self._scratch_rows()
        self._gamma_into(g, t)
        return g.copy()

    def kinetic_energy(self) -> float:
        """Total kinetic energy: sum w m (gamma - 1) (c = 1). The
        compiled kernel, when built, writes the same per-particle terms
        the numpy fallback does; numpy sums them either way."""
        from repro.vpic import native

        if self.n == 0:
            return 0.0
        g, t = self._scratch_rows()
        lib = native.native_push_kernel()
        if lib is None or not lib.kinetic_terms(self, t):
            self._gamma_into(g, t)
            np.subtract(g, 1.0, out=g)
            np.copyto(t, self.w[:self.n])
            np.multiply(t, self.m, out=t)
            np.multiply(t, g, out=t)
        return float(t.sum())

    def momentum_total(self) -> np.ndarray:
        """Total momentum vector: sum w m u."""
        if self.n == 0:
            return np.zeros(3)
        wm, t = self._scratch_rows()
        np.copyto(wm, self.w[:self.n])
        np.multiply(wm, self.m, out=wm)
        return np.array([float(np.multiply(wm, u, out=t).sum())
                         for u in self.momenta()])

    def __repr__(self) -> str:
        return (f"Species({self.name!r}, q={self.q}, m={self.m}, "
                f"n={self.n}/{self.capacity})")
