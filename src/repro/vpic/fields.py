"""Electromagnetic fields on the Yee grid and the FDTD solver.

Standard Yee staggering in normalized units (c = 1, Gaussian-like
rationalized units where the update is ``E += dt (curl B - J)``,
``B -= dt curl E``):

- ``ex`` lives at cell x-edge centers, ``ey``/``ez`` analogous;
- ``bx`` lives at cell x-face centers, etc.;
- ``jx, jy, jz`` are accumulated edge currents (same staggering as E).

Arrays are ghost-inclusive, stored in Kokkos Views with
``LayoutRight`` so the flat voxel index from :class:`~repro.vpic.grid.
Grid` addresses them directly. Ghost synchronization for a
single-rank run is periodic copying; distributed runs use
:mod:`repro.mpi.halo` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kokkos.view import Layout, View
from repro.vpic.grid import Grid

__all__ = ["FieldArrays", "FieldSolver"]

_FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")

@dataclass
class FieldArrays:
    """The nine field component arrays (ghost-inclusive Views)."""

    grid: Grid
    dtype: np.dtype = np.float32

    def __post_init__(self) -> None:
        shape = self.grid.shape
        for name in _FIELD_NAMES:
            setattr(self, name, View(name, shape, dtype=self.dtype,
                                     layout=Layout.RIGHT))

    def components(self) -> dict[str, View]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def clear_currents(self) -> None:
        self.jx.fill(0.0)
        self.jy.fill(0.0)
        self.jz.fill(0.0)

    def field_energy(self) -> tuple[float, float]:
        """(electric, magnetic) energy over interior cells:
        ``sum(E^2)/2 * dV`` and ``sum(B^2)/2 * dV``."""
        g = self.grid
        s = (slice(1, g.nx + 1), slice(1, g.ny + 1), slice(1, g.nz + 1))
        dv = g.cell_volume
        e2 = sum(float((getattr(self, c).data[s].astype(np.float64) ** 2).sum())
                 for c in ("ex", "ey", "ez"))
        b2 = sum(float((getattr(self, c).data[s].astype(np.float64) ** 2).sum())
                 for c in ("bx", "by", "bz"))
        return 0.5 * e2 * dv, 0.5 * b2 * dv


class FieldSolver:
    """Yee FDTD update with periodic ghost synchronization.

    The update sequence per step (leapfrog):

    1. ``advance_b(0.5 dt)`` — half B push,
    2. particle push + current deposition elsewhere,
    3. ``advance_b(0.5 dt)`` — second half B push,
    4. ``advance_e(dt)`` — full E push with the deposited current.
    """

    def __init__(self, fields: FieldArrays, external_ghosts: bool = False):
        self.fields = fields
        self.grid = fields.grid
        #: When True (distributed runs), ghost layers are filled by an
        #: external halo exchange and the solver must not overwrite
        #: them with local periodic images.
        self.external_ghosts = external_ghosts
        #: The compiled library (:mod:`repro.vpic.native`) that
        #: ``advance_b`` / ``advance_e`` / ``reduce_ghost_currents``
        #: calls run on, bit-identical to the numpy code below — or
        #: ``None``: numpy. The owning
        #: :class:`~repro.vpic.simulation.Simulation` sets it at the
        #: top of every kernel-by-kernel step from its resolved lane
        #: (``Simulation.lane``), which is what vouches for this exact
        #: solver class; a distributed run sets it on every rank's
        #: solver from the ranks' lane. The calls are marshalled
        #: once per library, so the field arrays must not be replaced
        #: while it is set (a Simulation's never are; a processes
        #: backend sets it only once the bricks live in shared memory).
        self.kernels = None
        self._prepared = None

    @property
    def native_sync(self) -> int:
        """:meth:`sync_periodic` as the native advances' ``sync``
        argument: 0 ghosts owned by a halo exchange, 1 periodic on
        all three axes."""
        return 0 if self.external_ghosts else 1

    def _native(self):
        """The pre-marshalled calls into :attr:`kernels`."""
        prepared = self._prepared
        if prepared is None or prepared.lib is not self.kernels:
            from repro.vpic.native import PreparedFieldAdvance
            prepared = self._prepared = PreparedFieldAdvance(
                self.kernels, self)
        return prepared

    # -- ghost handling -----------------------------------------------------------

    def sync_periodic(self, names=_FIELD_NAMES) -> None:
        """Copy periodic images into ghost layers for *names*.

        No-op under ``external_ghosts`` — a halo exchange owns them.
        """
        if self.external_ghosts:
            return
        g = self.grid
        for name in names:
            a = getattr(self.fields, name).data
            # x ghosts
            a[0, :, :] = a[g.nx, :, :]
            a[g.nx + 1, :, :] = a[1, :, :]
            # y ghosts
            a[:, 0, :] = a[:, g.ny, :]
            a[:, g.ny + 1, :] = a[:, 1, :]
            # z ghosts
            a[:, :, 0] = a[:, :, g.nz]
            a[:, :, g.nz + 1] = a[:, :, 1]

    def sync_currents(self) -> None:
        """Current-only ghost sync (``jx/jy/jz``).

        After deposition only the currents have changed; re-syncing
        E and B too (the old blanket ``sync_periodic()``) copies six
        unchanged components. This path refreshes just the three that
        moved — bit-identical, three fewer ghost copies per step.
        """
        self.sync_periodic(("jx", "jy", "jz"))

    def reduce_ghost_currents(self) -> None:
        """Fold ghost-cell current contributions back into the
        periodic interior (deposition scatters into ghosts)."""
        if self.kernels is not None:
            self._native().reduce_ghost_currents()
            return
        g = self.grid
        for name in ("jx", "jy", "jz"):
            a = getattr(self.fields, name).data
            a[g.nx, :, :] += a[0, :, :]
            a[1, :, :] += a[g.nx + 1, :, :]
            a[0, :, :] = 0.0
            a[g.nx + 1, :, :] = 0.0
            a[:, g.ny, :] += a[:, 0, :]
            a[:, 1, :] += a[:, g.ny + 1, :]
            a[:, 0, :] = 0.0
            a[:, g.ny + 1, :] = 0.0
            a[:, :, g.nz] += a[:, :, 0]
            a[:, :, 1] += a[:, :, g.nz + 1]
            a[:, :, 0] = 0.0
            a[:, :, g.nz + 1] = 0.0

    # -- updates ---------------------------------------------------------------------

    def advance_b(self, frac: float = 0.5, sync: bool = True) -> None:
        """B -= frac*dt * curl E over the interior.

        ``sync=False`` skips the E ghost refresh — valid (and
        bit-identical) when E has not changed since the last sync,
        e.g. the second half-B push of a step where only currents were
        deposited in between.
        """
        if self.kernels is not None:
            self._native().advance_b(frac, sync)
            return
        g = self.grid
        dt = frac * g.dt
        f = self.fields
        if sync:
            self.sync_periodic(("ex", "ey", "ez"))
        ex, ey, ez = f.ex.data, f.ey.data, f.ez.data
        i = slice(1, g.nx + 1)
        j = slice(1, g.ny + 1)
        k = slice(1, g.nz + 1)
        ip = slice(2, g.nx + 2)
        jp = slice(2, g.ny + 2)
        kp = slice(2, g.nz + 2)
        # curl E on the Yee lattice (forward differences to faces)
        dez_dy = (ez[i, jp, k] - ez[i, j, k]) / g.dy
        dey_dz = (ey[i, j, kp] - ey[i, j, k]) / g.dz
        dex_dz = (ex[i, j, kp] - ex[i, j, k]) / g.dz
        dez_dx = (ez[ip, j, k] - ez[i, j, k]) / g.dx
        dey_dx = (ey[ip, j, k] - ey[i, j, k]) / g.dx
        dex_dy = (ex[i, jp, k] - ex[i, j, k]) / g.dy
        f.bx.data[i, j, k] -= dt * (dez_dy - dey_dz)
        f.by.data[i, j, k] -= dt * (dex_dz - dez_dx)
        f.bz.data[i, j, k] -= dt * (dey_dx - dex_dy)

    def advance_e(self, frac: float = 1.0) -> None:
        """E += frac*dt * (curl B - J) over the interior."""
        if self.kernels is not None:
            self._native().advance_e(frac)
            return
        g = self.grid
        dt = frac * g.dt
        f = self.fields
        self.sync_periodic(("bx", "by", "bz"))
        bx, by, bz = f.bx.data, f.by.data, f.bz.data
        i = slice(1, g.nx + 1)
        j = slice(1, g.ny + 1)
        k = slice(1, g.nz + 1)
        im = slice(0, g.nx)
        jm = slice(0, g.ny)
        km = slice(0, g.nz)
        # curl B (backward differences to edges)
        dbz_dy = (bz[i, j, k] - bz[i, jm, k]) / g.dy
        dby_dz = (by[i, j, k] - by[i, j, km]) / g.dz
        dbx_dz = (bx[i, j, k] - bx[i, j, km]) / g.dz
        dbz_dx = (bz[i, j, k] - bz[im, j, k]) / g.dx
        dby_dx = (by[i, j, k] - by[im, j, k]) / g.dx
        dbx_dy = (bx[i, j, k] - bx[i, jm, k]) / g.dy
        f.ex.data[i, j, k] += dt * ((dbz_dy - dby_dz) - f.jx.data[i, j, k])
        f.ey.data[i, j, k] += dt * ((dbx_dz - dbz_dx) - f.jy.data[i, j, k])
        f.ez.data[i, j, k] += dt * ((dby_dx - dbx_dy) - f.jz.data[i, j, k])
