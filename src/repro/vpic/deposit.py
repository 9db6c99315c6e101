"""Current and charge deposition: the scatter half of the push.

Every particle scatters its contribution onto the grid with atomic
adds — the access pattern of §5.4's microbenchmark with repeated keys
(many particles share a cell). CIC/trilinear weighting spreads each
particle over its cell's 8 corners; the deposition therefore performs
8 x 3 = 24 indexed accumulations per particle for current (plus 8 for
charge), all keyed by voxel.

Deposition goes through :func:`repro.kokkos.atomics.atomic_add` so
duplicate-index correctness is guaranteed and the contention
accounting the models use can observe real deposition patterns.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.atomics import atomic_add, segment_add
from repro.vpic.boris import momentum_gamma
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid

__all__ = ["deposit_current", "deposit_charge", "cic_weights"]


def cic_weights(fx, fy, fz):
    """The 8 trilinear corner weights for in-cell offsets.

    Returns a list of (di, dj, dk, weight-array) tuples.
    """
    fx = np.asarray(fx, dtype=np.float32)
    fy = np.asarray(fy, dtype=np.float32)
    fz = np.asarray(fz, dtype=np.float32)
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    return [
        (0, 0, 0, gx * gy * gz),
        (1, 0, 0, fx * gy * gz),
        (0, 1, 0, gx * fy * gz),
        (1, 1, 0, fx * fy * gz),
        (0, 0, 1, gx * gy * fz),
        (1, 0, 1, fx * gy * fz),
        (0, 1, 1, gx * fy * fz),
        (1, 1, 1, fx * fy * fz),
    ]


def _corner_keys_and_values(grid, ix, iy, iz, weights, per_particle):
    """Ravelled (8n,) corner voxel keys and weighted values."""
    sx, sy, sz = grid.shape
    keys = np.empty((8, ix.size), dtype=np.int64)
    vals = np.empty((8, ix.size), dtype=np.float32)
    for k, (di, dj, dk, wt) in enumerate(weights):
        keys[k] = ((ix + di) * sy + (iy + dj)) * sz + (iz + dk)
        vals[k] = wt * per_particle
    return keys.reshape(-1), vals.reshape(-1)


def deposit_current(fields: FieldArrays, x, y, z, ux, uy, uz, w,
                    q: float, gamma: np.ndarray | None = None,
                    binned: bool = False) -> None:
    """Scatter CIC-weighted current density ``q w v / dV`` onto J.

    Uses the velocity at the current momentum (``v = u/gamma``); the
    caller invokes this at the leapfrog half-step so the current is
    time-centered for the E update. Pass *gamma* (the factor
    :func:`~repro.vpic.boris.momentum_gamma` computes after the push)
    to avoid recomputing it per scatter. With ``binned=True`` the 24
    per-corner atomic scatters become three ravel-key
    :func:`~repro.kokkos.atomics.segment_add` reductions accumulating
    in float64 (agrees with the atomic path to float32 rounding of
    the accumulation order).
    """
    g = fields.grid
    ix, iy, iz = g.cell_of_position(x, y, z)
    fx, fy, fz = g.cell_fraction(x, y, z)
    f32 = np.float32
    if gamma is None:
        gamma = momentum_gamma(ux, uy, uz)
    inv_vol = f32(q / g.cell_volume)
    jx_p = w * ux / gamma * inv_vol
    jy_p = w * uy / gamma * inv_vol
    jz_p = w * uz / gamma * inv_vol

    sx, sy, sz = g.shape
    jx = fields.jx.data.reshape(-1)
    jy = fields.jy.data.reshape(-1)
    jz = fields.jz.data.reshape(-1)
    weights = cic_weights(fx, fy, fz)
    if binned:
        for target, jp in ((jx, jx_p), (jy, jy_p), (jz, jz_p)):
            keys, vals = _corner_keys_and_values(g, ix, iy, iz,
                                                 weights, jp)
            segment_add(target, keys, vals)
        return
    for di, dj, dk, wt in weights:
        vox = ((ix + di) * sy + (iy + dj)) * sz + (iz + dk)
        atomic_add(jx, vox, wt * jx_p)
        atomic_add(jy, vox, wt * jy_p)
        atomic_add(jz, vox, wt * jz_p)


def deposit_charge(grid: Grid, x, y, z, w, q: float,
                   out: np.ndarray | None = None,
                   binned: bool = False) -> np.ndarray:
    """Scatter CIC-weighted charge density onto a voxel array.

    Returns the flat (ghost-inclusive) density array; pass *out* to
    accumulate several species into the same array. ``binned=True``
    uses one ravel-key segment reduction instead of 8 atomic scatters.
    The atomic path runs as the compiled kernel when one is built, no
    atomics accounting is observing it and every array is contiguous
    float32 — the same float32 adds in the same order, so the same
    bytes; the numpy scatter below is the fallback and the oracle.
    """
    from repro.kokkos.atomics import accounting_enabled
    from repro.vpic import native

    if out is None:
        out = np.zeros(grid.n_voxels, dtype=np.float32)
    elif out.shape != (grid.n_voxels,):
        raise ValueError(
            f"out must be flat with {grid.n_voxels} voxels, got {out.shape}")
    rq = np.float32(q / grid.cell_volume)
    if not binned and not accounting_enabled():
        lib = native.native_push_kernel()
        if lib is not None and lib.deposit_charge(grid, x, y, z, w, rq,
                                                  out):
            return out
    ix, iy, iz = grid.cell_of_position(x, y, z)
    fx, fy, fz = grid.cell_fraction(x, y, z)
    rho_p = np.asarray(w, dtype=np.float32) * rq
    sx, sy, sz = grid.shape
    weights = cic_weights(fx, fy, fz)
    if binned:
        keys, vals = _corner_keys_and_values(grid, ix, iy, iz,
                                             weights, rho_p)
        segment_add(out, keys, vals)
        return out
    for di, dj, dk, wt in weights:
        vox = ((ix + di) * sy + (iy + dj)) * sz + (iz + dk)
        atomic_add(out, vox, wt * rho_p)
    return out
