"""The fused numpy push: the per-step PIC kernels in one pass.

One call to :func:`fused_push_species` performs the whole particle
phase — gather, Boris push, current deposition, position advance, and
the periodic wrap — for one species, in numpy: a tiled, zero-allocation
restructuring of the reference kernels. Every intermediate lives in a
:class:`~repro.vpic.scratch.ScratchArena` buffer, field values are
gathered with one ``np.take`` per component per tile, and the
deposition is a ravel-key ``np.bincount`` segment reduction
(:func:`repro.kokkos.atomics.segment_add`) accumulating in float64 and
casting once. It is the push of every fused lane whose push is not
native (no compiler, ``StepPlan.NUMPY_FUSED``, atomics accounting),
for a ``Simulation`` and for distributed ranks alike; the native lane's
push is :func:`repro.vpic.native.push_simulation`, which it is the
oracle of.

It replicates the reference float32 operation sequence, so positions
and momenta are **bit-identical** to ``StepPlan.REFERENCE``; deposited
currents accumulate in float64 and agree with a float64-accumulated
reference to 1 ulp after the final cast (the float32-accumulating
reference itself is the less accurate of the two).

Voxel indices are *not* refreshed here: the species is marked stale
and :meth:`Species.live` recomputes them on first use (sorting,
diagnostics, checkpointing) — most steps never need them.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import STEP_TILE
from repro.kokkos.atomics import segment_add
from repro.vpic.fields import FieldArrays
from repro.vpic.scratch import ScratchArena
from repro.vpic.species import Species

__all__ = ["fused_push_species", "FIELD_COMPONENTS"]

F32 = np.float32
FIELD_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz")

#: Corner order must match :func:`repro.vpic.deposit.cic_weights`:
#: (di, dj, dk) per row.
_CORNERS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def _fold_currents(fields, acc, arena):
    """Cast the float64 accumulators once and add into J."""
    acc32 = arena.buf("j_acc32", acc[0].shape, F32)
    for a, name in enumerate(("jx", "jy", "jz")):
        j = getattr(fields, name).data.reshape(-1)
        np.copyto(acc32, acc[a])
        j += acc32


def fused_push_species(fields: FieldArrays, sp: Species,
                       arena: ScratchArena, wrap: bool = True) -> None:
    """Fused gather -> Boris -> deposit -> advance (-> wrap) for one
    species in numpy, in place, with zero steady-state heap allocation.

    With ``wrap=False`` (distributed ranks) positions are left
    unwrapped for the migration phase. Voxels are marked stale rather
    than recomputed. Under atomics accounting the sampled
    ``AtomicCounters`` hook observes the real deposition keys here.
    """
    n = sp.n
    if n == 0:
        return
    g = fields.grid
    nv = g.n_voxels
    _, sy, sz = g.shape
    eps = 1e-9
    dt = g.dt
    qdt = F32(0.5 * sp.q * dt / sp.m)
    inv_vol = F32(sp.q / g.cell_volume)
    f32dt = F32(dt)
    shift = (sy + 1) * sz + 1
    offs = [(di * sy + dj) * sz + dk for di, dj, dk in _CORNERS]
    origin = (g.x0, g.y0, g.z0)
    deltas = (g.dx, g.dy, g.dz)
    ncell = (g.nx, g.ny, g.nz)
    lens = g.lengths

    T = STEP_TILE
    # Tile-sized scratch. Every name is unique per logical buffer —
    # two live intermediates must never share a key.
    P = arena.buf("idx_f64", (T,), np.float64)
    I3 = [arena.buf(f"idx_i64_{a}", (T,), np.int64) for a in range(3)]
    K8 = arena.buf("corner_keys", (8, T), np.int64)
    G8 = arena.buf("gather8", (8, T), F32)
    W8 = arena.buf("weights8", (8, T), F32)
    V8 = arena.buf("values8", (8, T), F32)
    FR = [arena.buf(f"frac{a}", (T,), F32) for a in range(3)]
    GR = [arena.buf(f"gfrac{a}", (T,), F32) for a in range(3)]
    WP = [arena.buf(f"wpair{k}", (T,), F32) for k in range(4)]
    EB = [arena.buf(f"eb{c}", (T,), F32) for c in range(6)]
    UM = [arena.buf(f"um{a}", (T,), F32) for a in range(3)]
    TV = [arena.buf(f"tvec{a}", (T,), F32) for a in range(3)]
    SV = [arena.buf(f"svec{a}", (T,), F32) for a in range(3)]
    UP = [arena.buf(f"uprime{a}", (T,), F32) for a in range(3)]
    L0 = arena.buf("lerp0", (T,), F32)
    L1 = arena.buf("lerp1", (T,), F32)
    L2 = arena.buf("lerp2", (T,), F32)
    GAM = arena.buf("gamma", (T,), F32)
    T2 = arena.buf("t_mag2", (T,), F32)
    TMP = arena.buf("tmp_f32", (T,), F32)
    JP = arena.buf("j_particle", (T,), F32)
    MSK = arena.buf("wrap_mask", (T,), bool)
    MSK2 = arena.buf("wrap_mask2", (T,), bool)
    ACC = [arena.zeros(f"j_acc{a}", (nv,), np.float64) for a in range(3)]

    x, y, z = sp.positions()
    ux_a, uy_a, uz_a = sp.momenta()
    wq = sp.live("w")
    flats = [getattr(fields, name).data.reshape(-1)
             for name in FIELD_COMPONENTS]
    jflats = [getattr(fields, name).data.reshape(-1)
              for name in ("jx", "jy", "jz")]

    for s in range(0, n, T):
        e = min(s + T, n)
        t = e - s
        xs = (x[s:e], y[s:e], z[s:e])
        us = (ux_a[s:e], uy_a[s:e], uz_a[s:e])
        ws = wq[s:e]
        # --- cell indices + in-cell fractions (one float64 chain, as
        # Grid.cell_of_position / cell_fraction: the fraction derives
        # from the SAME clipped coordinate as the cell so the pair is
        # consistent for particles sitting exactly on a box edge) ---
        for a in range(3):
            p = P[:t]
            np.copyto(p, xs[a])
            if origin[a] != 0.0:
                p -= origin[a]
            p /= deltas[a]
            np.clip(p, 0, ncell[a] - eps, out=p)
            np.copyto(I3[a][:t], p, casting="unsafe")
            # p >= 0, so the truncating int copy above IS floor(p).
            p -= I3[a][:t]
            np.copyto(FR[a][:t], p, casting="unsafe")
            np.subtract(F32(1.0), FR[a][:t], out=GR[a][:t])
        base = K8[0][:t]
        np.multiply(I3[0][:t], sy, out=base)
        base += I3[1][:t]
        base *= sz
        base += I3[2][:t]
        base += shift
        for k in range(1, 8):
            np.add(base, offs[k], out=K8[k][:t])
        fx, fy, fz = FR[0][:t], FR[1][:t], FR[2][:t]
        gx, gy, gz = GR[0][:t], GR[1][:t], GR[2][:t]
        # --- gather: one 8-row take per component + factored trilinear,
        # replicating _trilinear's exact reduction tree ---
        tmp = TMP[:t]
        l0, l1, l2 = L0[:t], L1[:t], L2[:t]
        for c in range(6):
            # Full-buffer take keeps out= contiguous; columns past t
            # hold stale-but-in-range keys (clipped) and are unused.
            np.take(flats[c], K8, out=G8, mode="clip")
            r = [G8[k][:t] for k in range(8)]
            eb = EB[c][:t]
            # z lerp: corner pairs (k, k+4) differ only in dk
            np.multiply(r[0], gz, out=l0)      # c00
            np.multiply(r[4], fz, out=tmp)
            l0 += tmp
            np.multiply(r[1], gz, out=l1)      # c10
            np.multiply(r[5], fz, out=tmp)
            l1 += tmp
            np.multiply(r[2], gz, out=l2)      # c01
            np.multiply(r[6], fz, out=tmp)
            l2 += tmp
            np.multiply(r[3], gz, out=eb)      # c11 (staged in EB)
            np.multiply(r[7], fz, out=tmp)
            eb += tmp
            # y lerp
            np.multiply(l0, gy, out=l0)        # c0 = c00*gy + c01*fy
            np.multiply(l2, fy, out=tmp)
            l0 += tmp
            np.multiply(l1, gy, out=l1)        # c1 = c10*gy + c11*fy
            np.multiply(eb, fy, out=tmp)
            l1 += tmp
            # x lerp -> final component value
            np.multiply(l0, gx, out=l0)
            np.multiply(l1, fx, out=tmp)
            np.add(l0, tmp, out=eb)
        ex_, ey_, ez_ = EB[0][:t], EB[1][:t], EB[2][:t]
        bx_, by_, bz_ = EB[3][:t], EB[4][:t], EB[5][:t]
        # --- Boris push (reference op order, in place) ---
        um = [UM[a][:t] for a in range(3)]
        for a, efld in enumerate((ex_, ey_, ez_)):
            np.multiply(qdt, efld, out=tmp)
            np.add(us[a], tmp, out=um[a])
        gam = GAM[:t]
        np.multiply(um[0], um[0], out=gam)
        np.add(F32(1.0), gam, out=gam)
        np.multiply(um[1], um[1], out=tmp)
        gam += tmp
        np.multiply(um[2], um[2], out=tmp)
        gam += tmp
        np.sqrt(gam, out=gam)
        tv = [TV[a][:t] for a in range(3)]
        for a, bfld in enumerate((bx_, by_, bz_)):
            np.multiply(qdt, bfld, out=tv[a])
            tv[a] /= gam
        t2 = T2[:t]
        np.multiply(tv[0], tv[0], out=t2)
        np.multiply(tv[1], tv[1], out=tmp)
        t2 += tmp
        np.multiply(tv[2], tv[2], out=tmp)
        t2 += tmp
        sv = [SV[a][:t] for a in range(3)]
        np.add(F32(1.0), t2, out=t2)
        for a in range(3):
            np.multiply(F32(2.0), tv[a], out=sv[a])
            sv[a] /= t2
        up = [UP[a][:t] for a in range(3)]
        # u' = u^- + u^- x t   ((a*b - c*d) + um is commutative with
        # the reference's um + (a*b - c*d) bitwise)
        np.multiply(um[1], tv[2], out=up[0])
        np.multiply(um[2], tv[1], out=tmp)
        up[0] -= tmp
        up[0] += um[0]
        np.multiply(um[2], tv[0], out=up[1])
        np.multiply(um[0], tv[2], out=tmp)
        up[1] -= tmp
        up[1] += um[1]
        np.multiply(um[0], tv[1], out=up[2])
        np.multiply(um[1], tv[0], out=tmp)
        up[2] -= tmp
        up[2] += um[2]
        # u^+ = u^- + u' x s (written into um; t2 is free as 2nd temp)
        np.multiply(up[1], sv[2], out=tmp)
        np.multiply(up[2], sv[1], out=t2)
        tmp -= t2
        um[0] += tmp
        np.multiply(up[2], sv[0], out=tmp)
        np.multiply(up[0], sv[2], out=t2)
        tmp -= t2
        um[1] += tmp
        np.multiply(up[0], sv[1], out=tmp)
        np.multiply(up[1], sv[0], out=t2)
        tmp -= t2
        um[2] += tmp
        # second half electric kick -> species arrays
        for a, efld in enumerate((ex_, ey_, ez_)):
            np.multiply(qdt, efld, out=tmp)
            np.add(um[a], tmp, out=us[a])
        # --- post-push gamma, computed once, shared by deposit+move ---
        np.multiply(us[0], us[0], out=gam)
        np.add(F32(1.0), gam, out=gam)
        np.multiply(us[1], us[1], out=tmp)
        gam += tmp
        np.multiply(us[2], us[2], out=tmp)
        gam += tmp
        np.sqrt(gam, out=gam)
        # --- CIC corner weights (cic_weights order and op order) ---
        wp = [W[:t] for W in WP]
        np.multiply(gx, gy, out=wp[0])
        np.multiply(fx, gy, out=wp[1])
        np.multiply(gx, fy, out=wp[2])
        np.multiply(fx, fy, out=wp[3])
        for k in range(8):
            zf = gz if k < 4 else fz
            np.multiply(wp[k % 4], zf, out=W8[k][:t])
        # --- deposition: ravel-key segment reduction per component ---
        jp = JP[:t]
        if t == T:
            k8flat = K8.reshape(-1)
        else:
            k8flat = K8[:, :t].ravel()
        for a in range(3):
            np.multiply(ws, us[a], out=jp)
            jp /= gam
            jp *= inv_vol
            for k in range(8):
                np.multiply(W8[k][:t], jp, out=V8[k][:t])
            v8flat = V8.reshape(-1) if t == T else V8[:, :t].ravel()
            segment_add(jflats[a], k8flat, v8flat, accumulator=ACC[a])
        # --- advance positions (shared gamma) ---
        inv = t2
        np.divide(f32dt, gam, out=inv)
        for a in range(3):
            np.multiply(us[a], inv, out=tmp)
            np.add(xs[a], tmp, out=xs[a])
        # --- periodic wrap, applied only to escaped particles: for
        # in-range x, np.mod(x, L) == x bitwise, so masking is exact ---
        if wrap:
            msk, msk2 = MSK[:t], MSK2[:t]
            for a in range(3):
                pos = xs[a]
                if origin[a] != 0.0:
                    np.subtract(pos, origin[a], out=pos)
                np.less(pos, F32(0.0), out=msk)
                np.greater_equal(pos, F32(lens[a]), out=msk2)
                msk |= msk2
                if msk.any():
                    pos[msk] = np.mod(pos[msk], F32(lens[a]))
                if origin[a] != 0.0:
                    np.add(pos, origin[a], out=pos)
    _fold_currents(fields, ACC, arena)
    sp.mark_voxels_stale()
