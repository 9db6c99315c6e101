"""The simulation grid: a 3-D box of cells with one ghost layer.

VPIC's grid owns the cell indexing that everything else keys on — the
``voxel`` index is the sort key of §3.2 and the gather/scatter index
of the push kernel. Cells are indexed including ghosts:
``ix, iy, iz in [0, n+2)``, interior cells in ``[1, n+1)``; the flat
voxel index is C-ordered, matching ``LayoutRight`` Views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """Geometry + indexing of the simulation box.

    ``nx, ny, nz`` interior cells of size ``dx, dy, dz``; one ghost
    layer on each side. ``x0, y0, z0`` is the corner of the interior
    region (local coordinates start there).
    """

    nx: int
    ny: int
    nz: int
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0
    x0: float = 0.0
    y0: float = 0.0
    z0: float = 0.0
    dt: float = 0.0   # resolved in __post_init__ if 0

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            check_positive(name, getattr(self, name))
        for name in ("dx", "dy", "dz"):
            check_positive(name, getattr(self, name))
        if self.dt <= 0.0:
            # Default timestep: 0.95x the 3-D Courant limit (VPIC's
            # conventional safety factor).
            courant = 1.0 / np.sqrt(
                1.0 / self.dx**2 + 1.0 / self.dy**2 + 1.0 / self.dz**2)
            object.__setattr__(self, "dt", float(0.95 * courant))
        else:
            # Keep dt a plain Python float: a np.float64 here changes
            # NEP-50 promotion in float32 field updates, breaking
            # bit-reproducible checkpoint restarts.
            object.__setattr__(self, "dt", float(self.dt))

    # -- extents -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """Cell array shape including ghosts."""
        return (self.nx + 2, self.ny + 2, self.nz + 2)

    @property
    def n_cells(self) -> int:
        """Interior cell count (the paper's 'grid points')."""
        return self.nx * self.ny * self.nz

    @property
    def n_voxels(self) -> int:
        """Total voxel count including ghosts."""
        s = self.shape
        return s[0] * s[1] * s[2]

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.nx * self.dx, self.ny * self.dy, self.nz * self.dz)

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    # -- indexing -------------------------------------------------------------

    def voxel(self, ix, iy, iz):
        """Flat C-order voxel index from (ghost-inclusive) coords."""
        _, sy, sz = self.shape
        return (np.asarray(ix) * sy + np.asarray(iy)) * sz + np.asarray(iz)

    def cell_of_position(self, x, y, z):
        """(ix, iy, iz) ghost-inclusive cell coords of positions.

        Positions are clipped into the interior box so callers can
        compute cells before boundary handling has wrapped them.
        """
        eps = 1e-9
        # float64 throughout: in float32, `n - eps` rounds back to n
        # and a particle sitting exactly on the high edge (a periodic
        # wrap artifact) would index one cell past the interior.
        xf = np.asarray(x, dtype=np.float64)
        yf = np.asarray(y, dtype=np.float64)
        zf = np.asarray(z, dtype=np.float64)
        # fmax/fmin clip like np.clip for every non-NaN input but
        # return the bound for NaN, so a blown-up position (the guard
        # reports it after the step) bins into cell 1 instead of
        # reaching the int cast as NaN.
        xi = np.fmin(np.fmax((xf - self.x0) / self.dx, 0.0), self.nx - eps)
        yi = np.fmin(np.fmax((yf - self.y0) / self.dy, 0.0), self.ny - eps)
        zi = np.fmin(np.fmax((zf - self.z0) / self.dz, 0.0), self.nz - eps)
        return (xi.astype(np.int64) + 1,
                yi.astype(np.int64) + 1,
                zi.astype(np.int64) + 1)

    def voxel_of_position(self, x, y, z):
        """Flat voxel index of positions (interior-clipped)."""
        ix, iy, iz = self.cell_of_position(x, y, z)
        return self.voxel(ix, iy, iz)

    def cell_fraction(self, x, y, z):
        """Offsets within the cell in [0, 1) per axis.

        Clipped into the interior with the same bounds as
        :meth:`cell_of_position` so the (cell, fraction) pair is
        consistent for every position. Without the shared clip, a
        particle sitting exactly on the high box edge (a float32
        periodic-wrap artifact: the low-side wrap ``x + L`` can round
        up to exactly ``x_hi``) gets cell ``n`` from the clipped index
        but fraction ``0.0`` from the raw coordinate — placing its
        whole CIC cloud one full cell inside the boundary. The
        mismatch misdeposits charge/current and misgathers fields for
        edge particles; the guard's continuity check catches it on
        charge-conserving decks as a paired +/- residual spike across
        the periodic boundary.
        """
        eps = 1e-9
        xf = np.asarray(x, dtype=np.float64)
        yf = np.asarray(y, dtype=np.float64)
        zf = np.asarray(z, dtype=np.float64)
        xi = np.clip((xf - self.x0) / self.dx, 0, self.nx - eps)
        yi = np.clip((yf - self.y0) / self.dy, 0, self.ny - eps)
        zi = np.clip((zf - self.z0) / self.dz, 0, self.nz - eps)
        return xi - np.floor(xi), yi - np.floor(yi), zi - np.floor(zi)
