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
        """Delete particles at *indices* by stable compaction: the
        survivors keep their relative order. That order is
        load-bearing — the deposit accumulates in particle order, so
        a backfill from the tail would change J in the last bits."""
        keep = np.ones(self.n, dtype=bool)
        keep[indices] = False
        k = int(keep.sum())
        for name in self._ARRAYS:
            arr = getattr(self, name)
            arr[:k] = arr[:self.n][keep]
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
        """Recompute voxel indices from positions."""
        if sl is None:
            sl = slice(0, self.n)
            self._voxels_stale = False
        self.voxel[sl] = self.grid.voxel_of_position(
            self.x[sl], self.y[sl], self.z[sl])

    def mark_voxels_stale(self) -> None:
        """Positions moved without a voxel refresh (fused push)."""
        self._voxels_stale = True

    def mark_voxels_fresh(self) -> None:
        """Voxels were recomputed externally (native counting sort
        refreshes them from positions before permuting)."""
        self._voxels_stale = False

    def gamma(self) -> np.ndarray:
        """Relativistic Lorentz factor per particle."""
        ux, uy, uz = self.momenta()
        return np.sqrt(1.0 + ux.astype(np.float64)**2
                       + uy.astype(np.float64)**2
                       + uz.astype(np.float64)**2)

    def kinetic_energy(self) -> float:
        """Total kinetic energy: sum w m (gamma - 1) (c = 1)."""
        if self.n == 0:
            return 0.0
        g = self.gamma()
        return float((self.w[:self.n].astype(np.float64)
                      * self.m * (g - 1.0)).sum())

    def momentum_total(self) -> np.ndarray:
        """Total momentum vector: sum w m u."""
        if self.n == 0:
            return np.zeros(3)
        w = self.w[:self.n].astype(np.float64)
        return np.array([
            float((w * self.m * self.ux[:self.n]).sum()),
            float((w * self.m * self.uy[:self.n]).sum()),
            float((w * self.m * self.uz[:self.n]).sum()),
        ])

    def __repr__(self) -> str:
        return (f"Species({self.name!r}, q={self.q}, m={self.m}, "
                f"n={self.n}/{self.capacity})")
