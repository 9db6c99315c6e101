"""Charge-conserving current deposition (Esirkepov's method).

The CIC deposition in :mod:`repro.vpic.deposit` is simple and fast but
only approximately satisfies the continuity equation; production VPIC
uses a charge-conserving scheme so that Gauss's law, once true, stays
true without divergence cleaning. This module implements Esirkepov's
density-decomposition method (Esirkepov 2001) at first order (CIC
shape functions) for particles that move less than one cell per step
(the Courant limit guarantees this).

Per axis, the union of the old and new CIC supports spans at most
three consecutive nodes ``{b, b+1, b+2}`` with ``b = min(old_cell,
new_cell)``. The W coefficients come from the shape-factor
differences, and the current is the prefix sum

``J_a(i+1/2) = J_a(i-1/2) - q w (da/dt) W_a(i)``

along each axis (the final prefix slot sums to zero by charge
conservation and is skipped, which also keeps all writes within the
grid's single ghost layer). The discrete continuity equation

``(rho_new - rho_old)/dt + div J = 0``

then holds to floating-point accuracy for every cell — the test
suite checks the residual against CIC-deposited charge densities.

Callers must pass *unwrapped* endpoint positions (deposit before the
periodic boundary is applied); ghost spill folds back through
``FieldSolver.reduce_ghost_currents`` as usual.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.atomics import atomic_add, segment_add
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid

__all__ = ["deposit_current_esirkepov", "continuity_residual"]

#: Stencil nodes per axis (union of two adjacent CIC supports).
STENCIL = 3
#: Raised (by this kernel and its native twin) for a super-cell move.
MULTI_CELL_MOVE = ("particle endpoints span more than one cell; Esirkepov "
                   "deposition requires sub-cell moves (check dt)")


def _cells_and_fracs(grid: Grid, pos: np.ndarray, lo: float, d: float,
                     n_interior: int, interior: bool = False):
    """Ghost-based cell index and in-cell fraction along one axis.

    New endpoints may lie up to one cell outside the box (deposition
    runs before the boundary wraps positions), so cells 0 and n+1
    (the ghost layers) are valid for them. *Start* endpoints are
    post-wrap positions and must pass ``interior=True``: a particle
    sitting exactly on the high box edge (a float32 wrap artifact —
    the low-side wrap ``x + L`` can round up to exactly ``x_hi``)
    then bins into the top interior cell, matching
    :meth:`~repro.vpic.grid.Grid.cell_of_position` and hence the
    charge density every other kernel sees. Without this clamp the
    start charge lands in the high ghost (periodic image), and the
    continuity ledger shows charge crossing the boundary with no
    current — the guard's continuity check catches it as a ~1-cell
    residual spike.
    """
    coord = (np.asarray(pos, dtype=np.float64) - lo) / d
    if interior:
        coord = np.clip(coord, 0.0, n_interior - 1e-9)
    else:
        coord = np.clip(coord, -1.0 + 1e-9, n_interior + 1.0 - 1e-9)
    cell = np.floor(coord).astype(np.int64) + 1
    return cell, coord - (cell - 1)


def _stencil_shapes(cell: np.ndarray, frac: np.ndarray,
                    base: np.ndarray, n: int) -> np.ndarray:
    """CIC shape factors on the 3-node stencil {base, base+1, base+2}."""
    m = cell - base
    if m.size and (m.min() < 0 or m.max() > 1):
        raise ValueError(MULTI_CELL_MOVE)
    s = np.zeros((n, STENCIL), dtype=np.float64)
    rows = np.arange(n)
    # Each (row, col) pair is unique within a call, so plain indexed
    # assignment replaces the needlessly-atomic np.add.at scatters.
    s[rows, m] = 1.0 - frac
    s[rows, m + 1] = frac
    return s


def deposit_current_esirkepov(fields: FieldArrays,
                              x0, y0, z0, x1, y1, z1, w,
                              q: float, dt: float,
                              binned: bool = False) -> None:
    """Deposit charge-conserving current for moves (x0..z0)->(x1..z1).

    Endpoints must be within one cell of each other (Courant limit).
    Currents accumulate onto the J arrays with atomic adds — the same
    voxel-indexed scatter pattern as the standard deposition, which
    is why the paper's sorting study covers this kernel too. With
    ``binned=True`` all stencil contributions per component collapse
    into one ravel-key segment reduction accumulating in float64.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = fields.grid
    n = np.asarray(x0).shape[0]
    if n == 0:
        return

    px0, fx0 = _cells_and_fracs(g, x0, g.x0, g.dx, g.nx, interior=True)
    py0, fy0 = _cells_and_fracs(g, y0, g.y0, g.dy, g.ny, interior=True)
    pz0, fz0 = _cells_and_fracs(g, z0, g.z0, g.dz, g.nz, interior=True)
    px1, fx1 = _cells_and_fracs(g, x1, g.x0, g.dx, g.nx)
    py1, fy1 = _cells_and_fracs(g, y1, g.y0, g.dy, g.ny)
    pz1, fz1 = _cells_and_fracs(g, z1, g.z0, g.dz, g.nz)

    bx = np.minimum(px0, px1)
    by = np.minimum(py0, py1)
    bz = np.minimum(pz0, pz1)

    s0x = _stencil_shapes(px0, fx0, bx, n)
    s0y = _stencil_shapes(py0, fy0, by, n)
    s0z = _stencil_shapes(pz0, fz0, bz, n)
    dsx = _stencil_shapes(px1, fx1, bx, n) - s0x
    dsy = _stencil_shapes(py1, fy1, by, n) - s0y
    dsz = _stencil_shapes(pz1, fz1, bz, n) - s0z

    # Esirkepov W coefficients (first order):
    # W_a[i,j,k] = ds_a[i] (s0_b[j] s0_c[k] + ds_b[j] s0_c[k]/2
    #              + s0_b[j] ds_c[k]/2 + ds_b[j] ds_c[k]/3)
    def w_coeff(ds_a, s0_b, ds_b, s0_c, ds_c):
        term = (s0_b[:, :, None] * s0_c[:, None, :]
                + 0.5 * ds_b[:, :, None] * s0_c[:, None, :]
                + 0.5 * s0_b[:, :, None] * ds_c[:, None, :]
                + ds_b[:, :, None] * ds_c[:, None, :] / 3.0)
        return ds_a[:, :, None, None] * term[:, None, :, :]

    wq = np.asarray(w, dtype=np.float64) * q
    jx_fac = (wq * g.dx / dt / g.cell_volume)[:, None, None, None]
    jy_fac = (wq * g.dy / dt / g.cell_volume)[:, None, None, None]
    jz_fac = (wq * g.dz / dt / g.cell_volume)[:, None, None, None]

    wx = w_coeff(dsx, s0y, dsy, s0z, dsz)          # (n, i, j, k)
    wy = w_coeff(dsy, s0x, dsx, s0z, dsz).transpose(0, 2, 1, 3)
    wz = w_coeff(dsz, s0x, dsx, s0y, dsy).transpose(0, 2, 3, 1)

    jx_inc = -jx_fac * np.cumsum(wx, axis=1)
    jy_inc = -jy_fac * np.cumsum(wy, axis=2)
    jz_inc = -jz_fac * np.cumsum(wz, axis=3)

    sx, sy, sz = g.shape
    jx = fields.jx.data.reshape(-1)
    jy = fields.jy.data.reshape(-1)
    jz = fields.jz.data.reshape(-1)
    def nodes(base, interior):
        # A node one past the high ghost (endpoint in the high ghost
        # cell) is the periodic image of interior node 2 — deposit it
        # there directly (equivalent to a two-deep ghost fold).
        return [np.where(base + k > interior + 1, base + k - interior,
                         base + k) for k in range(STENCIL)]

    nx_i, ny_i, nz_i = nodes(bx, g.nx), nodes(by, g.ny), nodes(bz, g.nz)
    binned_keys: dict[int, list[np.ndarray]] = {0: [], 1: [], 2: []}
    binned_vals: dict[int, list[np.ndarray]] = {0: [], 1: [], 2: []}
    for a in range(STENCIL):
        for b in range(STENCIL):
            for c in range(STENCIL):
                vox = ((nx_i[a] * sy + ny_i[b]) * sz + nz_i[c])
                # The last prefix slot along each flow axis is the
                # total sum of W (zero by conservation): skip it, which
                # also keeps writes within the single ghost layer.
                slots = []
                if a < STENCIL - 1:
                    slots.append((0, jx, jx_inc[:, a, b, c]))
                if b < STENCIL - 1:
                    slots.append((1, jy, jy_inc[:, a, b, c]))
                if c < STENCIL - 1:
                    slots.append((2, jz, jz_inc[:, a, b, c]))
                for comp, target, inc in slots:
                    if binned:
                        binned_keys[comp].append(vox)
                        binned_vals[comp].append(inc.astype(target.dtype))
                    else:
                        atomic_add(target, vox, inc.astype(target.dtype))
    if binned:
        for comp, target in ((0, jx), (1, jy), (2, jz)):
            segment_add(target, np.concatenate(binned_keys[comp]),
                        np.concatenate(binned_vals[comp]))


def continuity_residual(grid: Grid, rho_old: np.ndarray,
                        rho_new: np.ndarray, fields: FieldArrays,
                        dt: float) -> np.ndarray:
    """Cell-wise residual of the discrete continuity equation.

    ``residual = (rho_new - rho_old)/dt + div J`` using the same
    backward-difference divergence the Yee update applies to E.
    Ghost contributions must already be reduced into the interior
    (``FieldSolver.reduce_ghost_currents``) and the rho arrays must
    be ghost-inclusive flat voxel arrays from
    :func:`repro.vpic.deposit.deposit_charge` with their ghost
    layers likewise folded in.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = grid
    shape = g.shape
    drho = (rho_new.reshape(shape).astype(np.float64)
            - rho_old.reshape(shape)) / dt
    jx = fields.jx.data.astype(np.float64)
    jy = fields.jy.data.astype(np.float64)
    jz = fields.jz.data.astype(np.float64)
    i = slice(1, g.nx + 1)
    j = slice(1, g.ny + 1)
    k = slice(1, g.nz + 1)
    im = slice(0, g.nx)
    jm = slice(0, g.ny)
    km = slice(0, g.nz)
    div = ((jx[i, j, k] - jx[im, j, k]) / g.dx
           + (jy[i, j, k] - jy[i, jm, k]) / g.dy
           + (jz[i, j, k] - jz[i, j, km]) / g.dz)
    return drho[i, j, k] + div
