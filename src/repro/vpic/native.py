"""Compiled native lane: fused push, whole-step, and batched stepping.

The paper's §5.3 comparison point is hand-tuned native code; this
module provides that lane for the hot loop at two scopes:

- **push scope** (PR 5): a single-pass C kernel for the fused
  particle phase (gather -> Boris -> deposit -> advance -> wrap),
  one trip through memory per particle — and its charge-conserving
  twin (gather -> Boris -> advance -> first-order Esirkepov deposit,
  no wrap) for the decks that step kernel by kernel. Both are the one
  ``push_tiles`` body, whose CIC deposit works per *cell run*
  (consecutive particles in one cell): after a sort the eight corner
  accumulators of a cell are loaded once, summed into in registers
  for all its particles and stored once; on unsorted input a run is
  one particle and the traffic is the old per-particle traffic;
- **step scope** (this PR): one C entry per *timestep* that also
  performs the Yee field solve (half ``advance_b``, ``advance_e``,
  half ``advance_b``), periodic ghost sync, the ghost-current fold,
  and the in-place counting sort when the sort policy says so — so
  the residual numpy passes of the push-only lane
  (``step/field_solve``, ``step/sort/*``) disappear from the
  per-step budget;
- **kernel scope**: the step that stays Python (per-step sources, an
  absorbing x boundary, Esirkepov deposition) calls the same Yee
  cores phase by phase from ``FieldSolver``'s own methods — plus the
  y/z-only ghost sync and the first-order Mur update an absorbing x
  boundary needs — and the same counting sort from
  ``SortStep.apply``, so only the sources stay numpy there.

On top of the step scope sits :func:`step_batch`: N independent
decks advanced in one native call over their packed arenas (the
``run-deck --batch`` surface), round-robin per step.

Everything keeps the strict-IEEE bit-identity contract: the C code
performs the *same float32 operations in the same order* as the
reference numpy kernels, built with ``-fno-fast-math
-ffp-contract=off`` so nothing is contracted into FMAs. The build
also passes ``-fno-math-errno``: with errno-setting enabled the
compiler must treat every ``sqrtf``/``floorf`` call as potentially
writing errno and cannot vectorize the surrounding loop; disabling
it changes *no* IEEE results (the bit-identity tests pin this), only
an error-reporting channel nobody reads. CIC current deposition
accumulates in float64 (particle-major instead of numpy's
corner-major, so the folded float32 currents agree to 1 ulp; holding
a run's accumulators in registers changes when they are stored, not
what is added to them or in which order, so J does not depend on how
the particles fall into runs); the
Esirkepov deposit stages its increments and accumulates them in
numpy's own slot-major order, so its currents are bit-identical. The
counting sort is stable, so it reproduces
``np.argsort(voxels, kind="stable")`` — the ``SortKind.STANDARD``
permutation — exactly.

Everything degrades gracefully: no compiler, no writable cache
directory, or a failed build simply mean the kernel getters return
``None`` and callers fall back (step scope -> push scope -> numpy).
Build products are cached on disk keyed by a hash of source + flags
+ compiler; :func:`native_status` always reports the *most recent*
build attempt, including that cache key.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

__all__ = [
    "native_push_kernel",
    "native_available",
    "native_status",
    "native_build_key",
    "rebuild",
    "step_simulation",
    "step_batch",
    "field_advance_b",
    "field_advance_e",
    "PreparedSpeciesPush",
    "PreparedFieldAdvance",
]

_SOURCE = r"""
/* Native step lane: fused CIC push + Yee solve + ghost handling +
 * counting sort, one translation unit.
 *
 * Float sequence matches the numpy reference kernels exactly (IEEE
 * single ops in reference order; build with -fno-fast-math
 * -ffp-contract=off so the compiler contracts nothing into FMAs;
 * -fno-math-errno only unblocks vectorization of sqrtf/floorf and
 * changes no values). The push is staged over tiles of 1024
 * particles. The elementwise stages (index, Boris, weights, advance,
 * wrap test) auto-vectorize across the tile; the gather is an SLP
 * trilinear over padded 8-float field-table rows, per particle; the
 * deposit walks the tile by cell runs — consecutive particles in one
 * cell, which is what the STANDARD sort produces — and keeps the
 * run's interleaved 4-double corner accumulators in registers,
 * loading and storing them once per run instead of once per
 * particle. Runs regroup memory traffic only: each accumulator
 * element still sums the same addends in particle order (see
 * push_tiles), so J is the same bytes on sorted and unsorted input.
 */
#include <stdint.h>
#include <string.h>
#include <math.h>
#include <time.h>
#if defined(__AVX__)
#include <immintrin.h>
#endif

#define TILE 1024
#define WRAP_CHUNK 64

typedef struct {
    float *x, *y, *z, *ux, *uy, *uz, *w;
    int64_t *voxel, *tag;
    int64_t n;
    float qdt, inv_vol;
    /* per-call telemetry (reset by the host before each drive) */
    int64_t pushed, crossings;
    double t_push;
} NSpecies;

typedef struct {
    /* geometry */
    int64_t nx, ny, nz, sy, sz, nv;
    double hx, hy, hz;              /* index clip highs: n - 1e-9 */
    double x0, y0, z0, dx, dy, dz;  /* f64 origin/cell for indexing */
    float fx0, fy0, fz0, fdx, fdy, fdz, flx, fly, flz;
    float fdt, fdt_hb, fdt_e;       /* f32 dt, 0.5*dt, 1.0*dt */
    /* fields (ghost-inclusive C-order flats) */
    float *ex, *ey, *ez, *bx, *by, *bz, *jx, *jy, *jz;
    /* species */
    NSpecies *species;
    int64_t n_species;
    /* sort policy: interval 0 = never sort natively */
    int64_t sort_interval, step_count, sorts_done;
    /* scratch */
    float *tab;        /* (nv, 8) padded field table */
    double *acc;       /* (nv, 4) interleaved f64 current accumulator */
    int64_t *counts;   /* (nv + 1) */
    int64_t *perm, *scr_i;  /* (max particles) */
    float *scr_f;           /* (max particles) */
    /* accumulated phase seconds (field / push / sort) */
    double t_field, t_push, t_sort;
    /* per-call telemetry counters (reset by the host before each
     * drive): particles pushed, periodic boundary crossings, ghost
     * current folds, per-species sort passes */
    int64_t particles_pushed, crossings, ghost_folds, sort_events;
} NDeck;

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static inline float wrapf_(float v, float L) {
    /* np.mod (floored) for positive modulus */
    float r = fmodf(v, L);
    if (r != 0.0f && (r < 0.0f) != (L < 0.0f))
        r += L;
    return r;
}

/* ---- Esirkepov (charge-conserving) deposition stage --------------- */

/* Per-species staging for the first-order Esirkepov deposit. The tile
 * stage writes every particle's float32 current increments slot-major
 * ((component, stencil slot) rows of n); esk_replay then accumulates
 * them row by row, which is exactly the order numpy's per-component
 * bincount sees them in deposit_current_esirkepov(binned=True) — so
 * the float64 sums, and J after the single float32 fold, come out
 * bit-identical rather than merely within an ulp. */
typedef struct {
    int64_t nx, ny, nz;
    double q, dt, vol;   /* f64 charge, timestep, cell volume */
    float *inc;          /* (3, 18, n) increments: jx, jy, jz rows */
    int32_t *node;       /* (3, n) stencil base node per axis */
    int64_t ld;          /* row stride of inc / node (>= n) */
    int err;             /* a move spanned more than one cell */
} EskStage;

/* One (b, c) entry of the W coefficient's transverse factor, in
 * w_coeff's operation order. */
static inline double esk_term(double s0b, double dsb, double s0c,
                              double dsc)
{
    return s0b * s0c + 0.5 * dsb * s0c + 0.5 * s0b * dsc
           + dsb * dsc / 3.0;
}

/* Stencil shapes, W coefficients and prefix sums for one tile, all in
 * float64 like the numpy kernel. pc holds the tile's clipped
 * pre-advance cell coordinates (the interior=True start endpoints);
 * p1 the advanced, not yet wrapped float32 positions. */
static void esk_stage(const NDeck *g, EskStage *e,
                      double (*restrict pc)[TILE],
                      float *restrict const p1[3],
                      const float *restrict w, int64_t s, int64_t t)
{
    const double o[3] = { g->x0, g->y0, g->z0 };
    const double d[3] = { g->dx, g->dy, g->dz };
    const int64_t nc[3] = { e->nx, e->ny, e->nz };
    const int64_t n = e->ld;
    for (int64_t i = 0; i < t; i++) {
        double s0[3][3] = {{ 0.0 }}, ds[3][3];
        int bad = 0;
        for (int a = 0; a < 3; a++) {
            /* endpoints may sit up to one cell outside the box */
            const double lo = -1.0 + 1e-9;
            const double hi = (double)nc[a] + 1.0 - 1e-9;
            double c0 = pc[a][i];
            double c1 = ((double)p1[a][i] - o[a]) / d[a];
            c1 = c1 < lo ? lo : (c1 > hi ? hi : c1);
            int64_t cell0 = (int64_t)floor(c0) + 1;
            int64_t cell1 = (int64_t)floor(c1) + 1;
            int64_t b = cell0 < cell1 ? cell0 : cell1;
            int64_t m0 = cell0 - b, m1 = cell1 - b;
            if (m0 > 1 || m1 > 1) {
                bad = 1;
                break;
            }
            double f0 = c0 - (double)(cell0 - 1);
            double f1 = c1 - (double)(cell1 - 1);
            double s1[3] = { 0.0, 0.0, 0.0 };
            s0[a][m0] = 1.0 - f0;
            s0[a][m0 + 1] = f0;
            s1[m1] = 1.0 - f1;
            s1[m1 + 1] = f1;
            for (int k = 0; k < 3; k++)
                ds[a][k] = s1[k] - s0[a][k];
            e->node[a * n + s + i] = (int32_t)b;
        }
        if (bad) {
            e->err = 1;
            continue;
        }
        const double wq = (double)w[i] * e->q;
        const double fx = -(wq * g->dx / e->dt / e->vol);
        const double fy = -(wq * g->dy / e->dt / e->vol);
        const double fz = -(wq * g->dz / e->dt / e->vol);
        float *restrict ix = e->inc + s + i;
        float *restrict iy = ix + 18 * n;
        float *restrict iz = iy + 18 * n;
        /* The third prefix slot along the flow axis is the total of W
         * (zero by conservation) and is never stored. */
        for (int b = 0; b < 3; b++)
            for (int c = 0; c < 3; c++) {
                double tm = esk_term(s0[1][b], ds[1][b],
                                     s0[2][c], ds[2][c]);
                double w0 = ds[0][0] * tm, w1 = ds[0][1] * tm;
                ix[(b * 3 + c) * n] = (float)(fx * w0);
                ix[(9 + b * 3 + c) * n] = (float)(fx * (w0 + w1));
            }
        for (int a = 0; a < 3; a++)
            for (int c = 0; c < 3; c++) {
                double tm = esk_term(s0[0][a], ds[0][a],
                                     s0[2][c], ds[2][c]);
                double w0 = ds[1][0] * tm, w1 = ds[1][1] * tm;
                iy[(a * 6 + c) * n] = (float)(fy * w0);
                iy[(a * 6 + 3 + c) * n] = (float)(fy * (w0 + w1));
            }
        for (int a = 0; a < 3; a++)
            for (int b = 0; b < 3; b++) {
                double tm = esk_term(s0[0][a], ds[0][a],
                                     s0[1][b], ds[1][b]);
                double w0 = ds[2][0] * tm, w1 = ds[2][1] * tm;
                iz[(a * 6 + b * 2) * n] = (float)(fz * w0);
                iz[(a * 6 + b * 2 + 1) * n] = (float)(fz * (w0 + w1));
            }
    }
}

/* Accumulate the staged increments into acc, slot-major. A node one
 * past the high ghost is the periodic image of interior node 2 and is
 * deposited there directly (the numpy kernel's wrap()); every other
 * ghost write folds through reduce_ghost_currents as usual. */
static void esk_replay(const NDeck *g, const EskStage *e, int64_t n,
                       double *restrict acc)
{
    const int64_t ld = e->ld, sy = g->sy, sz = g->sz;
    const int32_t *restrict nbx = e->node, *restrict nby = nbx + ld,
                  *restrict nbz = nby + ld;
    const float *ix = e->inc, *iy = ix + 18 * ld, *iz = iy + 18 * ld;
    for (int a = 0; a < 3; a++)
        for (int b = 0; b < 3; b++)
            for (int c = 0; c < 3; c++) {
                const float *rx = a < 2 ? ix + (a * 9 + b * 3 + c) * ld
                                        : 0;
                const float *ry = b < 2 ? iy + (a * 6 + b * 3 + c) * ld
                                        : 0;
                const float *rz = c < 2 ? iz + (a * 6 + b * 2 + c) * ld
                                        : 0;
                for (int64_t i = 0; i < n; i++) {
                    int64_t jx = nbx[i] + a, jy = nby[i] + b,
                            jz = nbz[i] + c;
                    if (jx > e->nx + 1) jx -= e->nx;
                    if (jy > e->ny + 1) jy -= e->ny;
                    if (jz > e->nz + 1) jz -= e->nz;
                    double *restrict v = acc
                        + ((jx * sy + jy) * sz + jz) * 4;
                    if (rx) v[0] += (double)rx[i];
                    if (ry) v[1] += (double)ry[i];
                    if (rz) v[2] += (double)rz[i];
                }
            }
}

/* ---- fused particle push (tiled, cell-run deposit) -------------- */

/* The deposit's vectors, in the generic spelling the compiler lowers
 * to whatever the target has (one ymm op, two xmm ops, ...): every
 * operation on them is an elementwise IEEE op, so the values do not
 * depend on the lowering. Loads and stores go through memcpy — numpy
 * buffers are not 32-byte aligned. */
typedef float v4f __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

/* float -> double of four lanes. Same conversion either way; GCC 12
 * lowers the generic form to two half converts and an insert under
 * AVX, which costs the deposit more than the runs save. */
#if defined(__AVX__)
#define CVT4D(v) ((v4d)_mm256_cvtps_pd((__m128)(v)))
#else
#define CVT4D(v) __builtin_convertvector((v), v4d)
#endif

/* Cell indices + in-cell fractions of one tile from ONE clipped f64
 * chain (Grid.cell_of_position / cell_fraction): the fraction derives
 * from the same coordinate as the cell so the pair stays consistent
 * for particles sitting exactly on a box edge (float32 wrap
 * artifact). The clip is two sequential selects — no nested branch —
 * and pc (the Esirkepov start endpoints) is a compile-time NULL or
 * not at each call site, so the loop is straight-line and vectorizes. */
static inline __attribute__((always_inline)) void tile_index(
    const NDeck *g, const float *restrict xs0, const float *restrict xs1,
    const float *restrict xs2, int64_t t, int64_t *restrict base,
    float (*restrict fr)[TILE], float (*restrict gr)[TILE],
    double (*restrict pc)[TILE])
{
    const int64_t gsy = g->sy, gsz = g->sz;
    const int64_t shift = (gsy + 1) * gsz + 1;
    const double hx = g->hx, hy = g->hy, hz = g->hz;
    const double x0 = g->x0, y0 = g->y0, z0 = g->z0;
    const double dx = g->dx, dy = g->dy, dz = g->dz;
    for (int64_t i = 0; i < t; i++) {
        double px = ((double)xs0[i] - x0) / dx;
        double py = ((double)xs1[i] - y0) / dy;
        double pz = ((double)xs2[i] - z0) / dz;
        px = px < 0.0 ? 0.0 : px; px = px > hx ? hx : px;
        py = py < 0.0 ? 0.0 : py; py = py > hy ? hy : py;
        pz = pz < 0.0 ? 0.0 : pz; pz = pz > hz ? hz : pz;
        int64_t cx = (int64_t)px, cy = (int64_t)py, cz = (int64_t)pz;
        base[i] = ((cx * gsy + cy) * gsz + cz) + shift;
        fr[0][i] = (float)(px - (double)cx);
        fr[1][i] = (float)(py - (double)cy);
        fr[2][i] = (float)(pz - (double)cz);
        gr[0][i] = 1.0f - fr[0][i];
        gr[1][i] = 1.0f - fr[1][i];
        gr[2][i] = 1.0f - fr[2][i];
        if (pc) {
            pc[0][i] = px; pc[1][i] = py; pc[2][i] = pz;
        }
    }
}

/* The tiled push behind both deposition schemes. esk == NULL (a
 * compile-time constant in push_core, so that instantiation carries
 * no trace of the other) runs the CIC weight + deposit stages;
 * otherwise the index stage also keeps its float64 cell coordinates
 * and esk_stage runs on the advanced, unwrapped positions instead.
 *
 * The CIC deposit walks each tile by *cell runs*: maximal stretches
 * of consecutive particles in one cell (equal base[i]). A run loads
 * its eight corner accumulators once, adds its particles in order
 * into registers, and stores once — no store-to-load chain from one
 * particle to the next. After a STANDARD sort a run is a whole cell's
 * worth of particles; on unsorted input runs have length 1 and the
 * traffic is the per-particle traffic. Either way every accumulator
 * element receives the same (double)(wk * jp) addends in the same
 * particle order as a particle-at-a-time loop (a run's eight corners
 * are eight distinct voxels, and a run stores before the next one
 * loads), so J does not depend on how the input falls into runs.
 * (The gather stays per particle: it is bound by its 21 8-lane
 * multiply/adds, and hoisting the row loads per run bought nothing.)
 * Everything else is elementwise over the tile and auto-vectorizes.
 *
 * Returns the number of periodic wrap events (particles that left
 * the domain on an axis) — pure counting in the escape fix-up, so the
 * float op sequence is untouched. */
static inline __attribute__((always_inline)) int64_t push_tiles(
                         const NDeck *g,
                         float *restrict x, float *restrict y,
                         float *restrict z, float *restrict ux,
                         float *restrict uy, float *restrict uz,
                         const float *restrict w, int64_t n,
                         float qdt, float inv_vol,
                         const float *restrict tab,
                         double *restrict acc, int do_wrap,
                         EskStage *esk)
{
    int64_t wraps = 0;
    const int64_t gsy = g->sy, gsz = g->sz;
    const float fdt = g->fdt;
    const int64_t coff[8] = {
        0, gsy * gsz, gsz, gsy * gsz + gsz,
        1, gsy * gsz + 1, gsz + 1, gsy * gsz + gsz + 1 };
    int64_t base[TILE];
    float fr[3][TILE], gr[3][TILE];
    float ebaos[TILE][8] __attribute__((aligned(64)));
    float eb[6][TILE];
    float rg[TILE];
    float wt8[8][TILE];
    float jp[3][TILE];
    double pc[3][TILE];

    for (int64_t s = 0; s < n; s += TILE) {
        int64_t t = n - s < TILE ? n - s : TILE;
        float *restrict xs0 = x + s, *restrict xs1 = y + s,
              *restrict xs2 = z + s;
        float *restrict u0 = ux + s, *restrict u1 = uy + s,
              *restrict u2 = uz + s;
        const float *restrict ws = w + s;
        /* cell indices + in-cell fractions */
        tile_index(g, xs0, xs1, xs2, t, base, fr, gr, esk ? pc : 0);
        /* gather + factored trilinear: 8-lane row ops (lanes 6,7 pad) */
        for (int64_t i = 0; i < t; i++) {
            int64_t b8 = base[i] * 8;
            const float *restrict t000 = tab + b8;
            const float *restrict t001 = tab + b8 + 8;
            const float *restrict t010 = tab + b8 + gsz * 8;
            const float *restrict t011 = tab + b8 + gsz * 8 + 8;
            const float *restrict t100 = tab + b8 + gsy * gsz * 8;
            const float *restrict t101 = tab + b8 + gsy * gsz * 8 + 8;
            const float *restrict t110 = tab + b8 + (gsy * gsz + gsz) * 8;
            const float *restrict t111 = tab + b8
                                         + (gsy * gsz + gsz) * 8 + 8;
            float fx = fr[0][i], fy = fr[1][i], fz = fr[2][i];
            float gx = gr[0][i], gy = gr[1][i], gz = gr[2][i];
            float c00[8], c01[8], c10[8], c11[8], c0[8], c1[8];
            for (int c = 0; c < 8; c++) {
                c00[c] = t000[c] * gz + t001[c] * fz;
                c01[c] = t010[c] * gz + t011[c] * fz;
                c10[c] = t100[c] * gz + t101[c] * fz;
                c11[c] = t110[c] * gz + t111[c] * fz;
            }
            for (int c = 0; c < 8; c++) {
                c0[c] = c00[c] * gy + c01[c] * fy;
                c1[c] = c10[c] * gy + c11[c] * fy;
            }
            for (int c = 0; c < 8; c++)
                ebaos[i][c] = c0[c] * gx + c1[c] * fx;
        }
        /* AoS -> SoA transpose of the six live components */
        for (int c = 0; c < 6; c++) {
            float *restrict dst = eb[c];
            for (int64_t i = 0; i < t; i++)
                dst[i] = ebaos[i][c];
        }
        /* Boris push + post-push gamma + per-particle current */
        {
            const float *restrict exv = eb[0], *restrict eyv = eb[1],
                        *restrict ezv = eb[2];
            const float *restrict bxv = eb[3], *restrict byv = eb[4],
                        *restrict bzv = eb[5];
            float *restrict jp0 = jp[0], *restrict jp1 = jp[1],
                  *restrict jp2 = jp[2];
            for (int64_t i = 0; i < t; i++) {
                float umx = u0[i] + qdt * exv[i];
                float umy = u1[i] + qdt * eyv[i];
                float umz = u2[i] + qdt * ezv[i];
                float gam = sqrtf(1.0f + umx * umx + umy * umy
                                  + umz * umz);
                float tx = qdt * bxv[i] / gam;
                float ty = qdt * byv[i] / gam;
                float tz = qdt * bzv[i] / gam;
                float t2 = tx * tx + ty * ty + tz * tz;
                float svx = 2.0f * tx / (1.0f + t2);
                float svy = 2.0f * ty / (1.0f + t2);
                float svz = 2.0f * tz / (1.0f + t2);
                float upx = umx + (umy * tz - umz * ty);
                float upy = umy + (umz * tx - umx * tz);
                float upz = umz + (umx * ty - umy * tx);
                float plx = umx + (upy * svz - upz * svy);
                float ply = umy + (upz * svx - upx * svz);
                float plz = umz + (upx * svy - upy * svx);
                float nux = plx + qdt * exv[i];
                float nuy = ply + qdt * eyv[i];
                float nuz = plz + qdt * ezv[i];
                u0[i] = nux; u1[i] = nuy; u2[i] = nuz;
                float gam2 = sqrtf(1.0f + nux * nux + nuy * nuy
                                   + nuz * nuz);
                /* the advance's dt / gamma, divided once for the
                 * three axes */
                rg[i] = fdt / gam2;
                float wi = ws[i];
                jp0[i] = wi * nux / gam2 * inv_vol;
                jp1[i] = wi * nuy / gam2 * inv_vol;
                jp2[i] = wi * nuz / gam2 * inv_vol;
            }
        }
        /* CIC corner weights (cic_weights order) */
        if (!esk)
        for (int64_t i = 0; i < t; i++) {
            float fx = fr[0][i], fy = fr[1][i], fz = fr[2][i];
            float gx = gr[0][i], gy = gr[1][i], gz = gr[2][i];
            float w0 = gx * gy, w1 = fx * gy, w2 = gx * fy,
                  w3 = fx * fy;
            wt8[0][i] = w0 * gz; wt8[1][i] = w1 * gz;
            wt8[2][i] = w2 * gz; wt8[3][i] = w3 * gz;
            wt8[4][i] = w0 * fz; wt8[5][i] = w1 * fz;
            wt8[6][i] = w2 * fz; wt8[7][i] = w3 * fz;
        }
        /* deposit: 4-lane f64 accumulate per corner (lane 3 pads and
         * is never read), the eight corners in registers for the run */
        if (!esk)
        for (int64_t i = 0; i < t; ) {
            const int64_t b = base[i];
            double *restrict ab = acc + b * 4;
            v4d a[8];
            for (int k = 0; k < 8; k++)
                memcpy(&a[k], ab + coff[k] * 4, sizeof(v4d));
            do {
                const v4f jv = { jp[0][i], jp[1][i], jp[2][i], 0.0f };
                for (int k = 0; k < 8; k++)
                    a[k] += CVT4D(jv * wt8[k][i]);
                i++;
            } while (i < t && base[i] == b);
            for (int k = 0; k < 8; k++)
                memcpy(ab + coff[k] * 4, &a[k], sizeof(v4d));
        }
        /* advance + (optional) periodic wrap */
        {
            float *restrict ps[3] = { xs0, xs1, xs2 };
            float *restrict us[3] = { u0, u1, u2 };
            for (int a = 0; a < 3; a++) {
                float *restrict p = ps[a];
                const float *restrict u = us[a];
                for (int64_t i = 0; i < t; i++)
                    p[i] += u[i] * rg[i];
            }
            if (esk)
                esk_stage(g, esk, pc, ps, ws, s, t);
            if (do_wrap) {
                /* fmodf only for escaped particles: for 0 <= r < L
                 * the reference's mod is the identity, so skipping
                 * it is bit-exact (callers guarantee a zero origin).
                 * The escape test is a vector compare over a chunk;
                 * only a chunk with an escapee takes the scalar pass. */
                const float L[3] = { g->flx, g->fly, g->flz };
                const float o[3] = { g->fx0, g->fy0, g->fz0 };
                for (int a = 0; a < 3; a++) {
                    float *restrict p = ps[a];
                    const float oo = o[a], len = L[a];
                    for (int64_t c = 0; c < t; c += WRAP_CHUNK) {
                        const int64_t ce = c + WRAP_CHUNK < t
                                           ? c + WRAP_CHUNK : t;
                        int esc = 0;
                        for (int64_t i = c; i < ce; i++) {
                            float r = p[i] - oo;
                            esc |= (r < 0.0f) | (r >= len);
                        }
                        if (!esc)
                            continue;
                        for (int64_t i = c; i < ce; i++) {
                            float r = p[i] - oo;
                            if (r < 0.0f || r >= len) {
                                p[i] = wrapf_(r, len) + oo;
                                wraps++;
                            }
                        }
                    }
                }
            }
        }
    }
    return wraps;
}

static int64_t push_core(const NDeck *g,
                         float *restrict x, float *restrict y,
                         float *restrict z, float *restrict ux,
                         float *restrict uy, float *restrict uz,
                         const float *restrict w, int64_t n,
                         float qdt, float inv_vol,
                         const float *restrict tab,
                         double *restrict acc, int do_wrap)
{
    return push_tiles(g, x, y, z, ux, uy, uz, w, n, qdt, inv_vol,
                      tab, acc, do_wrap, 0);
}

static void fold_core(const NDeck *g) {
    /* single f32 cast per element, then add — matches the numpy
     * per-species fold (cast once, then J += acc32) elementwise */
    const int64_t nv = g->nv;
    const double *restrict acc = g->acc;
    float *restrict jx = g->jx, *restrict jy = g->jy,
          *restrict jz = g->jz;
    for (int64_t v = 0; v < nv; v++) {
        jx[v] += (float)acc[v * 4 + 0];
        jy[v] += (float)acc[v * 4 + 1];
        jz[v] += (float)acc[v * 4 + 2];
    }
}

void build_table(const float *ex, const float *ey, const float *ez,
                 const float *bx, const float *by, const float *bz,
                 float *tab, int64_t nv)
{
    for (int64_t v = 0; v < nv; v++) {
        float *r = tab + v * 8;
        r[0] = ex[v]; r[1] = ey[v]; r[2] = ez[v];
        r[3] = bx[v]; r[4] = by[v]; r[5] = bz[v];
        r[6] = 0.0f; r[7] = 0.0f;
    }
}

/* Push-scope entry: zero the accumulator, push one species, fold
 * into J. Flat-argument twin of the in-step species loop. */
void fused_push(
    float *x, float *y, float *z, float *ux, float *uy, float *uz,
    const float *w, int64_t n, const float *tab, double *acc,
    float *jx, float *jy, float *jz,
    int64_t nv, int64_t sy, int64_t sz,
    double hx, double hy, double hz,
    double x0, double y0, double z0,
    double dx, double dy, double dz,
    float fx0, float fy0, float fz0,
    float fdx, float fdy, float fdz,
    float flx, float fly, float flz,
    float qdt, float fdt, float inv_vol, int do_wrap)
{
    NDeck g;
    memset(&g, 0, sizeof(g));
    g.sy = sy; g.sz = sz; g.nv = nv;
    g.hx = hx; g.hy = hy; g.hz = hz;
    g.x0 = x0; g.y0 = y0; g.z0 = z0;
    g.dx = dx; g.dy = dy; g.dz = dz;
    g.fx0 = fx0; g.fy0 = fy0; g.fz0 = fz0;
    g.fdx = fdx; g.fdy = fdy; g.fdz = fdz;
    g.flx = flx; g.fly = fly; g.flz = flz;
    g.fdt = fdt;
    g.jx = jx; g.jy = jy; g.jz = jz;
    g.acc = acc;
    memset(acc, 0, (size_t)nv * 4 * sizeof(double));
    push_core(&g, x, y, z, ux, uy, uz, w, n, qdt, inv_vol, tab, acc,
              do_wrap);
    fold_core(&g);
}

/* Esirkepov twin of fused_push: same index / gather / Boris / advance
 * stages, then the charge-conserving deposit of the move. Positions
 * are left unwrapped (the caller's boundary pass runs next, as after
 * the numpy kernel). Returns nonzero — with J untouched — when a
 * particle moved more than one cell. */
int fused_push_esirkepov(
    float *x, float *y, float *z, float *ux, float *uy, float *uz,
    const float *w, int64_t n, const float *tab, double *acc,
    float *jx, float *jy, float *jz,
    int64_t nx, int64_t ny, int64_t nz,
    double x0, double y0, double z0,
    double dx, double dy, double dz,
    double q, double dt, double vol, float qdt, float fdt,
    float *inc, int32_t *node, int64_t ld)
{
    NDeck g;
    EskStage e = { nx, ny, nz, q, dt, vol, inc, node, ld, 0 };
    memset(&g, 0, sizeof(g));
    g.sy = ny + 2; g.sz = nz + 2; g.nv = (nx + 2) * g.sy * g.sz;
    g.hx = (double)nx - 1e-9;
    g.hy = (double)ny - 1e-9;
    g.hz = (double)nz - 1e-9;
    g.x0 = x0; g.y0 = y0; g.z0 = z0;
    g.dx = dx; g.dy = dy; g.dz = dz;
    g.fdt = fdt;
    g.jx = jx; g.jy = jy; g.jz = jz;
    g.acc = acc;
    memset(acc, 0, (size_t)g.nv * 4 * sizeof(double));
    push_tiles(&g, x, y, z, ux, uy, uz, w, n, qdt, 0.0f, tab, acc, 0,
               &e);
    if (e.err)
        return 1;
    esk_replay(&g, &e, n, acc);
    fold_core(&g);
    return 0;
}

/* ---- Yee field solve + ghost handling ---------------------------- */

/* The y and z ghost planes of sync_periodic, over every x plane
 * (ghosts included). On its own this is AbsorbingFieldSolver's sync
 * for axes=(0,): the x ghost planes belong to the Mur update. */
static void sync_yz_core(float *restrict a, int64_t nx, int64_t ny,
                         int64_t nz)
{
    const int64_t sy = ny + 2, sz = nz + 2, ps = sy * sz;
    for (int64_t ix = 0; ix < nx + 2; ix++) {
        float *row = a + ix * ps;
        memcpy(row, row + ny * sz, (size_t)sz * sizeof(float));
        memcpy(row + (ny + 1) * sz, row + sz,
               (size_t)sz * sizeof(float));
    }
    for (int64_t ix = 0; ix < nx + 2; ix++)
        for (int64_t iy = 0; iy < sy; iy++) {
            float *row = a + (ix * sy + iy) * sz;
            row[0] = row[nz];
            row[nz + 1] = row[1];
        }
}

static void sync_core(float *restrict a, int64_t nx, int64_t ny,
                      int64_t nz)
{
    /* FieldSolver.sync_periodic order: x planes, then y, then z */
    const int64_t ps = (ny + 2) * (nz + 2);
    memcpy(a, a + nx * ps, (size_t)ps * sizeof(float));
    memcpy(a + (nx + 1) * ps, a + ps, (size_t)ps * sizeof(float));
    sync_yz_core(a, nx, ny, nz);
}

void field_sync(float *a, int64_t nx, int64_t ny, int64_t nz) {
    sync_core(a, nx, ny, nz);
}

/* The exported advances' sync argument: 0 ghosts are owned elsewhere
 * (halo exchange, or unchanged since the last sync), 1 periodic on
 * all three axes, 2 periodic in y and z only (absorbing x). */
static void sync3(float *a, float *b, float *c, int64_t nx, int64_t ny,
                  int64_t nz, int sync)
{
    float *comp[3] = { a, b, c };
    for (int i = 0; i < 3; i++) {
        if (sync == 1)
            sync_core(comp[i], nx, ny, nz);
        else if (sync == 2)
            sync_yz_core(comp[i], nx, ny, nz);
    }
}

/* First-order Mur update of one component's two x ghost planes
 * (MurBoundary._apply_components, axis 0): ghost = prev + k *
 * (boundary - ghost) in float32, then prev = boundary. prev holds the
 * low-side plane followed by the high-side one and is updated in
 * place. */
static void mur_apply_core(float *restrict a, float *restrict prev,
                           int64_t nx, int64_t ps, float k)
{
    const int64_t ghost[2] = { 0, nx + 1 }, inner[2] = { 1, nx };
    for (int side = 0; side < 2; side++) {
        float *restrict gh = a + ghost[side] * ps;
        const float *restrict bd = a + inner[side] * ps;
        float *restrict pv = prev + side * ps;
        for (int64_t i = 0; i < ps; i++) {
            float b = bd[i];
            gh[i] = pv[i] + k * (b - gh[i]);
            pv[i] = b;
        }
    }
}

/* Both tangential components of one table (E after advance_e, B after
 * each advance_b); prev is their (2 components, 2 sides, plane)
 * history. */
void mur_apply(float *a0, float *a1, float *prev,
               int64_t nx, int64_t ny, int64_t nz, float k)
{
    const int64_t ps = (ny + 2) * (nz + 2);
    mur_apply_core(a0, prev, nx, ps, k);
    mur_apply_core(a1, prev + 2 * ps, nx, ps, k);
}

static void advance_b_core(
    const float *restrict ex, const float *restrict ey,
    const float *restrict ez, float *restrict bx,
    float *restrict by, float *restrict bz,
    int64_t nx, int64_t ny, int64_t nz,
    float fdt, float fdx, float fdy, float fdz)
{
    /* B -= dt * curl E, forward differences. Elementwise fusion of
     * the numpy whole-array expression is bit-exact: every read is
     * from E, every write to B (disjoint arrays). */
    const int64_t sy = ny + 2, sz = nz + 2, ps = sy * sz;
    for (int64_t ix = 1; ix <= nx; ix++)
        for (int64_t iy = 1; iy <= ny; iy++) {
            const int64_t v0 = (ix * sy + iy) * sz;
            for (int64_t iz = 1; iz <= nz; iz++) {
                const int64_t v = v0 + iz;
                float dez_dy = (ez[v + sz] - ez[v]) / fdy;
                float dey_dz = (ey[v + 1] - ey[v]) / fdz;
                float dex_dz = (ex[v + 1] - ex[v]) / fdz;
                float dez_dx = (ez[v + ps] - ez[v]) / fdx;
                float dey_dx = (ey[v + ps] - ey[v]) / fdx;
                float dex_dy = (ex[v + sz] - ex[v]) / fdy;
                bx[v] -= fdt * (dez_dy - dey_dz);
                by[v] -= fdt * (dex_dz - dez_dx);
                bz[v] -= fdt * (dey_dx - dex_dy);
            }
        }
}

void field_advance_b(float *ex, float *ey, float *ez,
                     float *bx, float *by, float *bz,
                     int64_t nx, int64_t ny, int64_t nz,
                     float fdt, float fdx, float fdy, float fdz,
                     int sync)
{
    sync3(ex, ey, ez, nx, ny, nz, sync);
    advance_b_core(ex, ey, ez, bx, by, bz, nx, ny, nz,
                   fdt, fdx, fdy, fdz);
}

static void advance_e_core(
    float *restrict ex, float *restrict ey, float *restrict ez,
    const float *restrict bx, const float *restrict by,
    const float *restrict bz, const float *restrict jx,
    const float *restrict jy, const float *restrict jz,
    int64_t nx, int64_t ny, int64_t nz,
    float fdt, float fdx, float fdy, float fdz)
{
    /* E += dt * (curl B - J), backward differences */
    const int64_t sy = ny + 2, sz = nz + 2, ps = sy * sz;
    for (int64_t ix = 1; ix <= nx; ix++)
        for (int64_t iy = 1; iy <= ny; iy++) {
            const int64_t v0 = (ix * sy + iy) * sz;
            for (int64_t iz = 1; iz <= nz; iz++) {
                const int64_t v = v0 + iz;
                float dbz_dy = (bz[v] - bz[v - sz]) / fdy;
                float dby_dz = (by[v] - by[v - 1]) / fdz;
                float dbx_dz = (bx[v] - bx[v - 1]) / fdz;
                float dbz_dx = (bz[v] - bz[v - ps]) / fdx;
                float dby_dx = (by[v] - by[v - ps]) / fdx;
                float dbx_dy = (bx[v] - bx[v - sz]) / fdy;
                ex[v] += fdt * ((dbz_dy - dby_dz) - jx[v]);
                ey[v] += fdt * ((dbx_dz - dbz_dx) - jy[v]);
                ez[v] += fdt * ((dby_dx - dbx_dy) - jz[v]);
            }
        }
}

void field_advance_e(float *ex, float *ey, float *ez,
                     float *bx, float *by, float *bz,
                     float *jx, float *jy, float *jz,
                     int64_t nx, int64_t ny, int64_t nz,
                     float fdt, float fdx, float fdy, float fdz,
                     int sync)
{
    sync3(bx, by, bz, nx, ny, nz, sync);
    advance_e_core(ex, ey, ez, bx, by, bz, jx, jy, jz, nx, ny, nz,
                   fdt, fdx, fdy, fdz);
}

static void reduce_one(float *restrict a, int64_t nx, int64_t ny,
                       int64_t nz)
{
    /* FieldSolver.reduce_ghost_currents order: x fold+zero, then y,
     * then z (the x fold feeds the y fold's edge ghosts). */
    const int64_t sy = ny + 2, sz = nz + 2, ps = sy * sz;
    for (int64_t k = 0; k < ps; k++) a[nx * ps + k] += a[k];
    for (int64_t k = 0; k < ps; k++) a[ps + k] += a[(nx + 1) * ps + k];
    memset(a, 0, (size_t)ps * sizeof(float));
    memset(a + (nx + 1) * ps, 0, (size_t)ps * sizeof(float));
    for (int64_t ix = 0; ix < nx + 2; ix++) {
        float *row = a + ix * ps;
        for (int64_t k = 0; k < sz; k++) row[ny * sz + k] += row[k];
        for (int64_t k = 0; k < sz; k++)
            row[sz + k] += row[(ny + 1) * sz + k];
        memset(row, 0, (size_t)sz * sizeof(float));
        memset(row + (ny + 1) * sz, 0, (size_t)sz * sizeof(float));
    }
    for (int64_t ix = 0; ix < nx + 2; ix++)
        for (int64_t iy = 0; iy < sy; iy++) {
            float *row = a + (ix * sy + iy) * sz;
            row[nz] += row[0];
            row[1] += row[nz + 1];
            row[0] = 0.0f;
            row[nz + 1] = 0.0f;
        }
}

void reduce_ghost_currents(float *jx, float *jy, float *jz,
                           int64_t nx, int64_t ny, int64_t nz)
{
    reduce_one(jx, nx, ny, nz);
    reduce_one(jy, nx, ny, nz);
    reduce_one(jz, nx, ny, nz);
}

/* ---- stable counting sort (== np.argsort(voxels, kind="stable")) - */

static void sort_one(NDeck *dk, NSpecies *sp) {
    const int64_t n = sp->n, nv = dk->nv;
    const int64_t gsy = dk->sy, gsz = dk->sz;
    int64_t *restrict vox = sp->voxel;
    int64_t *restrict counts = dk->counts;
    int64_t *restrict perm = dk->perm;
    /* voxel refresh from post-push positions (Grid.voxel_of_position
     * f64 chain, interior-clipped) */
    {
        const float *restrict px = sp->x, *restrict py = sp->y,
                    *restrict pz = sp->z;
        for (int64_t i = 0; i < n; i++) {
            double cx = ((double)px[i] - dk->x0) / dk->dx;
            double cy = ((double)py[i] - dk->y0) / dk->dy;
            double cz = ((double)pz[i] - dk->z0) / dk->dz;
            cx = cx < 0.0 ? 0.0 : (cx > dk->hx ? dk->hx : cx);
            cy = cy < 0.0 ? 0.0 : (cy > dk->hy ? dk->hy : cy);
            cz = cz < 0.0 ? 0.0 : (cz > dk->hz ? dk->hz : cz);
            vox[i] = (((int64_t)cx + 1) * gsy + ((int64_t)cy + 1)) * gsz
                     + ((int64_t)cz + 1);
        }
    }
    memset(counts, 0, (size_t)(nv + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) counts[vox[i]]++;
    int64_t total = 0;
    for (int64_t v = 0; v < nv; v++) {
        int64_t c = counts[v];
        counts[v] = total;
        total += c;
    }
    for (int64_t i = 0; i < n; i++) perm[counts[vox[i]]++] = i;
    /* apply the permutation through the scratch buffers */
    float *farr[7] = { sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz,
                       sp->w };
    for (int c = 0; c < 7; c++) {
        float *restrict a = farr[c];
        float *restrict s = dk->scr_f;
        for (int64_t j = 0; j < n; j++) s[j] = a[perm[j]];
        memcpy(a, s, (size_t)n * sizeof(float));
    }
    int64_t *iarr[2] = { sp->voxel, sp->tag };
    for (int c = 0; c < 2; c++) {
        int64_t *restrict a = iarr[c];
        int64_t *restrict s = dk->scr_i;
        for (int64_t j = 0; j < n; j++) s[j] = a[perm[j]];
        memcpy(a, s, (size_t)n * sizeof(int64_t));
    }
}

/* Flat-argument entry for SortStep.apply's STANDARD ordering: one
 * species, scratch owned by the caller. */
void sort_species(
    float *x, float *y, float *z, float *ux, float *uy, float *uz,
    float *w, int64_t *voxel, int64_t *tag, int64_t n,
    int64_t nx, int64_t ny, int64_t nz,
    double x0, double y0, double z0,
    double dx, double dy, double dz,
    int64_t *counts, int64_t *perm, int64_t *scr_i, float *scr_f)
{
    NDeck dk;
    NSpecies sp;
    memset(&dk, 0, sizeof(dk));
    memset(&sp, 0, sizeof(sp));
    dk.sy = ny + 2; dk.sz = nz + 2; dk.nv = (nx + 2) * dk.sy * dk.sz;
    dk.hx = (double)nx - 1e-9;
    dk.hy = (double)ny - 1e-9;
    dk.hz = (double)nz - 1e-9;
    dk.x0 = x0; dk.y0 = y0; dk.z0 = z0;
    dk.dx = dx; dk.dy = dy; dk.dz = dz;
    dk.counts = counts; dk.perm = perm;
    dk.scr_i = scr_i; dk.scr_f = scr_f;
    sp.x = x; sp.y = y; sp.z = z;
    sp.ux = ux; sp.uy = uy; sp.uz = uz; sp.w = w;
    sp.voxel = voxel; sp.tag = tag; sp.n = n;
    sort_one(&dk, &sp);
}

/* ---- the whole step ---------------------------------------------- */

static void step_one(NDeck *dk) {
    const int64_t nx = dk->nx, ny = dk->ny, nz = dk->nz, nv = dk->nv;
    double t0 = now_s();
    /* half B advance (E ghosts synced first, as the numpy solver) */
    sync_core(dk->ex, nx, ny, nz);
    sync_core(dk->ey, nx, ny, nz);
    sync_core(dk->ez, nx, ny, nz);
    advance_b_core(dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                   nx, ny, nz, dk->fdt_hb, dk->fdx, dk->fdy, dk->fdz);
    memset(dk->jx, 0, (size_t)nv * sizeof(float));
    memset(dk->jy, 0, (size_t)nv * sizeof(float));
    memset(dk->jz, 0, (size_t)nv * sizeof(float));
    dk->t_field += now_s() - t0;
    /* fused push per species against the half-advanced B / pre-push
     * synced E, exactly like the numpy fast path's field table */
    t0 = now_s();
    build_table(dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                dk->tab, nv);
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        if (sp->n == 0)
            continue;
        double ts = now_s();
        memset(dk->acc, 0, (size_t)nv * 4 * sizeof(double));
        int64_t wraps = push_core(
            dk, sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz,
            sp->w, sp->n, sp->qdt, sp->inv_vol, dk->tab,
            dk->acc, 1);
        fold_core(dk);
        sp->t_push += now_s() - ts;
        sp->pushed += sp->n;
        sp->crossings += wraps;
        dk->particles_pushed += sp->n;
        dk->crossings += wraps;
        dk->ghost_folds++;
    }
    dk->t_push += now_s() - t0;
    /* field completion. The second half-B advance skips the E ghost
     * re-sync: E has not changed since the sync above, so the copies
     * it would redo are byte-identical no-ops (the current-only-sync
     * optimization, mirrored by FieldSolver.advance_b(sync=False)). */
    t0 = now_s();
    reduce_one(dk->jx, nx, ny, nz);
    reduce_one(dk->jy, nx, ny, nz);
    reduce_one(dk->jz, nx, ny, nz);
    advance_b_core(dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                   nx, ny, nz, dk->fdt_hb, dk->fdx, dk->fdy, dk->fdz);
    sync_core(dk->bx, nx, ny, nz);
    sync_core(dk->by, nx, ny, nz);
    sync_core(dk->bz, nx, ny, nz);
    advance_e_core(dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                   dk->jx, dk->jy, dk->jz, nx, ny, nz,
                   dk->fdt_e, dk->fdx, dk->fdy, dk->fdz);
    dk->t_field += now_s() - t0;
    dk->step_count++;
    if (dk->sort_interval > 0
            && dk->step_count % dk->sort_interval == 0) {
        t0 = now_s();
        for (int64_t s = 0; s < dk->n_species; s++)
            if (dk->species[s].n > 0) {
                sort_one(dk, &dk->species[s]);
                dk->sort_events++;
            }
        dk->t_sort += now_s() - t0;
        dk->sorts_done++;
    }
}

void step_decks(NDeck *decks, int64_t n_decks, int64_t n_steps) {
    for (int64_t s = 0; s < n_steps; s++)
        for (int64_t d = 0; d < n_decks; d++)
            step_one(&decks[d]);
}
"""

#: Strict-IEEE core: no fast-math value changes, no FMA contraction
#: (an FMA would skip the intermediate rounding the numpy reference
#: performs and break bit-identity). ``-fno-math-errno`` changes no
#: values either — it only stops libm calls from being treated as
#: memory clobbers, which is what lets the sqrtf/floorf loops
#: vectorize.
_STRICT_FLAGS = ("-O3", "-fno-fast-math", "-fno-math-errno",
                 "-ffp-contract=off", "-fPIC", "-shared")
#: Preferred build adds host tuning; values are identical (IEEE ops
#: are value-stable across vector widths) but not every compiler
#: accepts the flags, so the plain strict set is the fallback.
_CFLAGS = _STRICT_FLAGS + ("-march=native", "-funroll-loops")
_PORTABLE_CFLAGS = _STRICT_FLAGS

_f32 = ctypes.c_float
_f64 = ctypes.c_double
_i64 = ctypes.c_int64
_pf = ctypes.POINTER(ctypes.c_float)
_pd = ctypes.POINTER(ctypes.c_double)
_pi = ctypes.POINTER(ctypes.c_int64)


class _CSpecies(ctypes.Structure):
    _fields_ = [("x", _pf), ("y", _pf), ("z", _pf),
                ("ux", _pf), ("uy", _pf), ("uz", _pf), ("w", _pf),
                ("voxel", _pi), ("tag", _pi),
                ("n", _i64),
                ("qdt", _f32), ("inv_vol", _f32),
                ("pushed", _i64), ("crossings", _i64),
                ("t_push", _f64)]


class _CDeck(ctypes.Structure):
    _fields_ = [("nx", _i64), ("ny", _i64), ("nz", _i64),
                ("sy", _i64), ("sz", _i64), ("nv", _i64),
                ("hx", _f64), ("hy", _f64), ("hz", _f64),
                ("x0", _f64), ("y0", _f64), ("z0", _f64),
                ("dx", _f64), ("dy", _f64), ("dz", _f64),
                ("fx0", _f32), ("fy0", _f32), ("fz0", _f32),
                ("fdx", _f32), ("fdy", _f32), ("fdz", _f32),
                ("flx", _f32), ("fly", _f32), ("flz", _f32),
                ("fdt", _f32), ("fdt_hb", _f32), ("fdt_e", _f32),
                ("ex", _pf), ("ey", _pf), ("ez", _pf),
                ("bx", _pf), ("by", _pf), ("bz", _pf),
                ("jx", _pf), ("jy", _pf), ("jz", _pf),
                ("species", ctypes.POINTER(_CSpecies)),
                ("n_species", _i64),
                ("sort_interval", _i64), ("step_count", _i64),
                ("sorts_done", _i64),
                ("tab", _pf), ("acc", _pd),
                ("counts", _pi), ("perm", _pi), ("scr_i", _pi),
                ("scr_f", _pf),
                ("t_field", _f64), ("t_push", _f64), ("t_sort", _f64),
                ("particles_pushed", _i64), ("crossings", _i64),
                ("ghost_folds", _i64), ("sort_events", _i64)]


#: Address-keyed cache of float32 pointers. The ctypes pointer value
#: is a pure function of the data address, so a cached entry is
#: byte-identical to a fresh cast even if the original array was freed
#: and a new one landed at the same address. Saves ~1 us per call —
#: material for distributed rank workers making ~40 casts per step.
_fptr_cache: dict = {}


def _fptr(a):
    addr = a.__array_interface__["data"][0]
    p = _fptr_cache.get(addr)
    if p is None:
        if len(_fptr_cache) >= 65536:
            _fptr_cache.clear()
        p = _fptr_cache[addr] = ctypes.cast(addr, _pf)
    return p


class _NativeLib:
    """ctypes binding of the compiled native translation unit."""

    def __init__(self, lib_path: Path, key: str):
        lib = ctypes.CDLL(str(lib_path))
        lib.fused_push.argtypes = (
            [_pf] * 6 + [_pf, _i64, _pf, _pd] + [_pf] * 3
            + [_i64] * 3 + [_f64] * 9 + [_f32] * 12 + [ctypes.c_int])
        lib.fused_push.restype = None
        lib.fused_push_esirkepov.argtypes = (
            [_pf] * 6 + [_pf, _i64, _pf, _pd] + [_pf] * 3
            + [_i64] * 3 + [_f64] * 9 + [_f32] * 2
            + [_pf, ctypes.POINTER(ctypes.c_int32), _i64])
        lib.fused_push_esirkepov.restype = ctypes.c_int
        lib.build_table.argtypes = [_pf] * 7 + [_i64]
        lib.build_table.restype = None
        lib.field_sync.argtypes = [_pf] + [_i64] * 3
        lib.field_sync.restype = None
        lib.field_advance_b.argtypes = ([_pf] * 6 + [_i64] * 3
                                        + [_f32] * 4 + [ctypes.c_int])
        lib.field_advance_b.restype = None
        lib.field_advance_e.argtypes = ([_pf] * 9 + [_i64] * 3
                                        + [_f32] * 4 + [ctypes.c_int])
        lib.field_advance_e.restype = None
        lib.reduce_ghost_currents.argtypes = [_pf] * 3 + [_i64] * 3
        lib.reduce_ghost_currents.restype = None
        lib.mur_apply.argtypes = [_pf] * 3 + [_i64] * 3 + [_f32]
        lib.mur_apply.restype = None
        lib.sort_species.argtypes = ([_pf] * 7 + [_pi] * 2 + [_i64] * 4
                                     + [_f64] * 6 + [_pi] * 3 + [_pf])
        lib.sort_species.restype = None
        lib.step_decks.argtypes = [ctypes.POINTER(_CDeck), _i64, _i64]
        lib.step_decks.restype = None
        self._lib = lib
        self.path = lib_path
        self.key = key

    # -- push scope --------------------------------------------------

    def push_species(self, fields, sp, arena, wrap: bool) -> None:
        """Fused push for one species: build the padded field table,
        zero the accumulator, push, and fold into J — all native.

        The ctypes call runs under a ``native_push`` tracer span
        (region-qualified in kernel timings and Chrome traces) and
        reports its wall time into the ``native/step_seconds``
        histogram — the compiled lane is the one piece of the step
        Python-level timers cannot see inside.
        """
        from repro.kokkos.profiling import record_kernel
        from repro.observability.metrics import default_registry

        g = sp.grid
        nv = g.n_voxels
        _, sy, sz = g.shape
        eps = 1e-9
        tab = arena.buf("field_table8", (nv, 8), np.float32)
        acc = arena.buf("j_acc4", (nv, 4), np.float64)
        x, y, z = sp.positions()
        ux, uy, uz = sp.momenta()
        w = sp.live("w")
        lx, ly, lz = g.lengths
        t0 = time.perf_counter()
        with record_kernel("native_push"):
            self._lib.build_table(
                _fptr(fields.ex.data), _fptr(fields.ey.data),
                _fptr(fields.ez.data), _fptr(fields.bx.data),
                _fptr(fields.by.data), _fptr(fields.bz.data),
                _fptr(tab), _i64(nv))
            self._lib.fused_push(
                _fptr(x), _fptr(y), _fptr(z),
                _fptr(ux), _fptr(uy), _fptr(uz), _fptr(w),
                _i64(x.size), _fptr(tab), acc.ctypes.data_as(_pd),
                _fptr(fields.jx.data), _fptr(fields.jy.data),
                _fptr(fields.jz.data),
                _i64(nv), _i64(sy), _i64(sz),
                _f64(g.nx - eps), _f64(g.ny - eps), _f64(g.nz - eps),
                _f64(g.x0), _f64(g.y0), _f64(g.z0),
                _f64(g.dx), _f64(g.dy), _f64(g.dz),
                _f32(g.x0), _f32(g.y0), _f32(g.z0),
                _f32(g.dx), _f32(g.dy), _f32(g.dz),
                _f32(lx), _f32(ly), _f32(lz),
                _f32(np.float32(0.5 * sp.q * g.dt / sp.m)),
                _f32(np.float32(g.dt)),
                _f32(np.float32(sp.q / g.cell_volume)),
                ctypes.c_int(1 if wrap else 0))
        default_registry().histogram("native/step_seconds").observe(
            time.perf_counter() - t0)

    def push_species_esirkepov(self, fields, sp, arena) -> None:
        """Charge-conserving twin of :meth:`push_species`: gather ->
        Boris -> advance -> first-order Esirkepov deposit of the move,
        all native. Positions are left unwrapped for the caller's
        boundary pass.

        Positions, momenta and J are bit-identical to the numpy
        kernel-by-kernel sequence with ``binned=True`` (the deposit
        replays its increments in bincount order). Raises the numpy
        kernel's ``ValueError`` when a particle moved more than one
        cell; the momenta and positions are already advanced then,
        J is untouched.
        """
        g = sp.grid
        nv = g.n_voxels
        n = sp.n
        tab = arena.buf("field_table8", (nv, 8), np.float32)
        acc = arena.buf("j_acc4", (nv, 4), np.float64)
        # Row stride of the staging buffers: 16 floats past a multiple
        # of 1024, so the 54 rows a particle writes land in 54
        # different cache sets (a power-of-two capacity would alias
        # them all onto one). Per-species names: two species of
        # different capacity must not evict each other every step.
        ld = (sp.capacity | 1023) + 17
        inc = arena.buf(f"esirkepov_inc/{sp.name}", (54 * ld,),
                        np.float32)
        node = arena.buf(f"esirkepov_node/{sp.name}", (3 * ld,),
                         np.int32)
        x, y, z = sp.positions()
        ux, uy, uz = sp.momenta()
        self._lib.build_table(
            _fptr(fields.ex.data), _fptr(fields.ey.data),
            _fptr(fields.ez.data), _fptr(fields.bx.data),
            _fptr(fields.by.data), _fptr(fields.bz.data),
            _fptr(tab), _i64(nv))
        err = self._lib.fused_push_esirkepov(
            _fptr(x), _fptr(y), _fptr(z),
            _fptr(ux), _fptr(uy), _fptr(uz), _fptr(sp.live("w")),
            _i64(n), _fptr(tab), acc.ctypes.data_as(_pd),
            _fptr(fields.jx.data), _fptr(fields.jy.data),
            _fptr(fields.jz.data),
            _i64(g.nx), _i64(g.ny), _i64(g.nz),
            _f64(g.x0), _f64(g.y0), _f64(g.z0),
            _f64(g.dx), _f64(g.dy), _f64(g.dz),
            _f64(sp.q), _f64(g.dt), _f64(g.cell_volume),
            _f32(np.float32(0.5 * sp.q * g.dt / sp.m)),
            _f32(np.float32(g.dt)),
            _fptr(inc), node.ctypes.data_as(
                ctypes.POINTER(ctypes.c_int32)), _i64(ld))
        if err:
            from repro.vpic.esirkepov import MULTI_CELL_MOVE
            raise ValueError(MULTI_CELL_MOVE)

    # -- field scope (per-rank use and the Yee bit-identity tests) ---

    def advance_b(self, solver, frac: float) -> None:
        f = solver.fields
        g = f.grid
        self._lib.field_advance_b(
            _fptr(f.ex.data), _fptr(f.ey.data), _fptr(f.ez.data),
            _fptr(f.bx.data), _fptr(f.by.data), _fptr(f.bz.data),
            _i64(g.nx), _i64(g.ny), _i64(g.nz),
            _f32(np.float32(frac * g.dt)),
            _f32(g.dx), _f32(g.dy), _f32(g.dz),
            ctypes.c_int(solver.native_sync))

    def advance_e(self, solver, frac: float) -> None:
        f = solver.fields
        g = f.grid
        self._lib.field_advance_e(
            _fptr(f.ex.data), _fptr(f.ey.data), _fptr(f.ez.data),
            _fptr(f.bx.data), _fptr(f.by.data), _fptr(f.bz.data),
            _fptr(f.jx.data), _fptr(f.jy.data), _fptr(f.jz.data),
            _i64(g.nx), _i64(g.ny), _i64(g.nz),
            _f32(np.float32(frac * g.dt)),
            _f32(g.dx), _f32(g.dy), _f32(g.dz),
            ctypes.c_int(solver.native_sync))

    # -- sort scope --------------------------------------------------

    def sort_species(self, sp, arena) -> np.ndarray:
        """Native ``SortKind.STANDARD`` sort of one species: voxel
        refresh from positions, stable counting sort, all nine arrays
        permuted in place. Returns the permutation — a view of arena
        scratch, valid until the next sort."""
        g = sp.grid
        n = sp.n
        counts = arena.buf("sort_counts", (g.n_voxels + 1,), np.int64)
        perm = arena.at_least("sort_perm", sp.capacity, np.int64)
        scr_i = arena.at_least("sort_scr_i", sp.capacity, np.int64)
        scr_f = arena.at_least("sort_scr_f", sp.capacity, np.float32)
        self._lib.sort_species(
            _fptr(sp.x), _fptr(sp.y), _fptr(sp.z),
            _fptr(sp.ux), _fptr(sp.uy), _fptr(sp.uz), _fptr(sp.w),
            sp.voxel.ctypes.data_as(_pi), sp.tag.ctypes.data_as(_pi),
            _i64(n), _i64(g.nx), _i64(g.ny), _i64(g.nz),
            _f64(g.x0), _f64(g.y0), _f64(g.z0),
            _f64(g.dx), _f64(g.dy), _f64(g.dz),
            counts.ctypes.data_as(_pi), perm.ctypes.data_as(_pi),
            scr_i.ctypes.data_as(_pi), _fptr(scr_f))
        sp.mark_voxels_fresh()
        return perm[:n]

    # -- step scope --------------------------------------------------

    def step_decks(self, decks, n_steps: int) -> None:
        self._lib.step_decks(decks, _i64(len(decks)), _i64(n_steps))


# -- prepared per-rank calls ------------------------------------------
#
# Distributed rank workers call the same kernels every step with
# identical pointers: species arrays live at fixed capacity in the
# shared arena, field bricks and the scratch table/accumulator never
# reallocate, and live views (``sp.x[:n]``) share their base address
# with the full array. Marshalling the argument tuples once drops the
# per-call work to a single int64 conversion for the live count.


class PreparedSpeciesPush:
    """Pre-marshalled ``build_table`` + ``fused_push`` for one species
    whose backing storage never moves.

    Bit-identical to :meth:`_NativeLib.push_species` — same argument
    values, same kernel — minus its tracer span and histogram, which
    in a worker process are discarded anyway (the shared stats row is
    the telemetry channel back to the parent).
    """

    __slots__ = ("_lib", "_sp", "_table_args", "_pre", "_post", "_keep")

    def __init__(self, lib: "_NativeLib", fields, sp, arena,
                 wrap: bool = False):
        g = sp.grid
        nv = g.n_voxels
        _, sy, sz = g.shape
        eps = 1e-9
        tab = arena.buf("field_table8", (nv, 8), np.float32)
        acc = arena.buf("j_acc4", (nv, 4), np.float64)
        lx, ly, lz = g.lengths
        self._lib = lib._lib
        self._sp = sp
        # The ctypes tuples hold raw addresses; the arrays they point
        # into must outlive this object.
        self._keep = (fields, sp, tab, acc)
        self._table_args = (
            _fptr(fields.ex.data), _fptr(fields.ey.data),
            _fptr(fields.ez.data), _fptr(fields.bx.data),
            _fptr(fields.by.data), _fptr(fields.bz.data),
            _fptr(tab), _i64(nv))
        self._pre = (
            _fptr(sp.x), _fptr(sp.y), _fptr(sp.z),
            _fptr(sp.ux), _fptr(sp.uy), _fptr(sp.uz), _fptr(sp.w))
        self._post = (
            _fptr(tab), acc.ctypes.data_as(_pd),
            _fptr(fields.jx.data), _fptr(fields.jy.data),
            _fptr(fields.jz.data),
            _i64(nv), _i64(sy), _i64(sz),
            _f64(g.nx - eps), _f64(g.ny - eps), _f64(g.nz - eps),
            _f64(g.x0), _f64(g.y0), _f64(g.z0),
            _f64(g.dx), _f64(g.dy), _f64(g.dz),
            _f32(g.x0), _f32(g.y0), _f32(g.z0),
            _f32(g.dx), _f32(g.dy), _f32(g.dz),
            _f32(lx), _f32(ly), _f32(lz),
            _f32(np.float32(0.5 * sp.q * g.dt / sp.m)),
            _f32(np.float32(g.dt)),
            _f32(np.float32(sp.q / g.cell_volume)),
            ctypes.c_int(1 if wrap else 0))

    def __call__(self) -> None:
        n = self._sp.n
        if n == 0:
            return
        self._lib.build_table(*self._table_args)
        self._lib.fused_push(*self._pre, _i64(n), *self._post)
        self._sp.mark_voxels_stale()


class PreparedFieldAdvance:
    """Pre-marshalled field-solver calls for a solver whose field
    bricks never move: the Yee advances, and for the kernel-by-kernel
    step's solver (``FieldSolver.kernels``) the ghost-current fold and
    the absorbing-x Mur updates. The advances are bit-identical to
    :meth:`_NativeLib.advance_b` / :meth:`_NativeLib.advance_e` —
    same argument values, same kernels — and default to the step's
    own fractions (the distributed step only ever calls
    ``advance_b()`` and ``advance_e()``)."""

    __slots__ = ("lib", "_lib", "_solver", "_eb", "_j", "_dims",
                 "_steps", "_args", "_mur")

    def __init__(self, lib: "_NativeLib", solver):
        f = solver.fields
        g = f.grid
        for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"):
            a = getattr(f, name).data
            if (a.dtype != np.float32 or a.shape != g.shape
                    or not a.flags.c_contiguous):
                raise ValueError(
                    f"native field kernels need C-contiguous float32 "
                    f"{g.shape} arrays; {name} is {a.dtype} {a.shape}")
        #: The library these calls were marshalled for.
        self.lib = lib
        self._lib = lib._lib
        # The argument tuples hold raw addresses; the solver keeps the
        # arrays they point into (fields, Mur history) alive.
        self._solver = solver
        self._eb = (_fptr(f.ex.data), _fptr(f.ey.data), _fptr(f.ez.data),
                    _fptr(f.bx.data), _fptr(f.by.data), _fptr(f.bz.data))
        self._j = (_fptr(f.jx.data), _fptr(f.jy.data), _fptr(f.jz.data))
        self._dims = (_i64(g.nx), _i64(g.ny), _i64(g.nz))
        self._steps = (_f32(g.dx), _f32(g.dy), _f32(g.dz))
        # (advance_e?, frac, sync) / magnetic? -> argument tuple,
        # built on first use.
        self._args: dict = {}
        self._mur: dict = {}

    def _advance_args(self, with_j: bool, frac: float, sync: bool):
        key = (with_j, frac, sync)
        args = self._args.get(key)
        if args is None:
            dt = _f32(np.float32(frac * self._solver.grid.dt))
            mode = ctypes.c_int(self._solver.native_sync if sync else 0)
            args = self._args[key] = (
                self._eb + (self._j if with_j else ()) + self._dims
                + (dt,) + self._steps + (mode,))
        return args

    def advance_b(self, frac: float = 0.5, sync: bool = True) -> None:
        self._lib.field_advance_b(*self._advance_args(False, frac, sync))

    def advance_e(self, frac: float = 1.0) -> None:
        self._lib.field_advance_e(*self._advance_args(True, frac, True))

    def reduce_ghost_currents(self) -> None:
        self._lib.reduce_ghost_currents(*self._j, *self._dims)

    def mur_apply(self, magnetic: bool) -> None:
        """The solver's Mur update (``mur.apply_b()`` when *magnetic*,
        else ``mur.apply()``); the history block is fixed storage."""
        args = self._mur.get(magnetic)
        if args is None:
            a0, a1, prev, k = self._solver.mur.native_args(magnetic)
            args = self._mur[magnetic] = (
                _fptr(a0), _fptr(a1), _fptr(prev), *self._dims,
                _f32(k))
        self._lib.mur_apply(*args)


# -- build + cache ----------------------------------------------------

_lock = threading.Lock()
_libs: "dict[tuple[str, ...], _NativeLib | None]" = {}
_status = "not initialized"
_last_key: "str | None" = None
_default: "_NativeLib | None" = None
_default_resolved = False


def _find_compiler() -> "str | None":
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> "Path | None":
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    # <repo>/build/_native when running from a source checkout;
    # site-packages installs land next to the package instead.
    root = Path(__file__).resolve().parents[3]
    return root / "build" / "_native"


def _build_locked(flags: tuple) -> "_NativeLib | None":
    """Build (or reuse) the library for *flags*; always refreshes the
    module status so :func:`native_status` reports this — the most
    recent — attempt, cache key included."""
    global _status, _last_key
    if flags in _libs:
        lib = _libs[flags]
        if lib is not None:
            _status = (f"compiled ({' '.join(flags)}) -> {lib.path} "
                       f"[key {lib.key}]")
            _last_key = lib.key
        return lib
    cc = _find_compiler()
    if cc is None:
        _status = "no C compiler on PATH (set CC to override)"
        _last_key = None
        _libs[flags] = None
        return None
    cache = _cache_dir()
    if cache is None:
        _status = "no writable cache directory"
        _last_key = None
        _libs[flags] = None
        return None
    tag = hashlib.sha256(
        (_SOURCE + " ".join(flags) + cc).encode()).hexdigest()[:16]
    _last_key = tag
    lib_path = cache / f"step_{tag}.so"
    if not lib_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            src = cache / f"step_{tag}.c"
            src.write_text(_SOURCE)
            tmp = cache / f"step_{tag}.so.tmp"
            proc = subprocess.run(
                [cc, *flags, str(src), "-o", str(tmp), "-lm"],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                _status = (f"compile failed [key {tag}]: "
                           f"{proc.stderr.strip()[:400]}")
                _libs[flags] = None
                return None
            os.replace(tmp, lib_path)
        except OSError as exc:
            _status = f"build error [key {tag}]: {exc}"
            _libs[flags] = None
            return None
        except subprocess.TimeoutExpired:
            _status = f"compile timed out [key {tag}]"
            _libs[flags] = None
            return None
    try:
        lib = _NativeLib(lib_path, tag)
    except OSError as exc:
        _status = f"dlopen failed [key {tag}]: {exc}"
        _libs[flags] = None
        return None
    _status = (f"compiled with {cc} ({' '.join(flags)}) -> {lib_path} "
               f"[key {tag}]")
    _libs[flags] = lib
    return lib


def native_push_kernel() -> "_NativeLib | None":
    """The compiled native library, building it on first call.

    Tries the host-tuned flag set first and falls back to the plain
    strict-IEEE set; returns ``None`` (and remembers why — see
    :func:`native_status`) whenever compilation is impossible, in
    which case callers fall back to the portable numpy fast path.
    """
    global _default, _default_resolved
    if _default_resolved:
        return _default
    with _lock:
        if not _default_resolved:
            lib = _build_locked(_CFLAGS)
            if lib is None and _CFLAGS != _PORTABLE_CFLAGS:
                lib = _build_locked(_PORTABLE_CFLAGS)
            _default = lib
            _default_resolved = True
    return _default


def rebuild(cflags=None) -> "_NativeLib | None":
    """Force a fresh build attempt (with *cflags* when given) and make
    it the default library on success.

    Exists for flag experiments and for the status contract: every
    attempt — wherever it lands in the fallback chain — updates
    :func:`native_status` and :func:`native_build_key`.
    """
    global _default, _default_resolved
    flags = tuple(cflags) if cflags is not None else _CFLAGS
    with _lock:
        _libs.pop(flags, None)
        lib = _build_locked(flags)
        if lib is not None:
            _default = lib
            _default_resolved = True
    return lib


def native_available() -> bool:
    return native_push_kernel() is not None


def native_status() -> str:
    """Human-readable availability: where the kernel came from (and
    its cache key), or why the most recent build attempt failed."""
    native_push_kernel()
    return _status


def native_build_key() -> "str | None":
    """Cache key (source+flags+compiler hash) of the most recent
    build attempt, or ``None`` when no attempt got as far as hashing
    (e.g. no compiler on PATH)."""
    native_push_kernel()
    return _last_key


# -- field helpers (distributed ranks, Yee bit-identity tests) --------

def field_advance_b(solver, frac: float = 0.5) -> bool:
    """Native ``FieldSolver.advance_b`` (bit-identical). Returns
    False when no kernel is available: caller should use numpy."""
    lib = native_push_kernel()
    if lib is None:
        return False
    lib.advance_b(solver, frac)
    return True


def field_advance_e(solver, frac: float = 1.0) -> bool:
    """Native ``FieldSolver.advance_e`` (bit-identical). Returns
    False when no kernel is available: caller should use numpy."""
    lib = native_push_kernel()
    if lib is None:
        return False
    lib.advance_e(solver, frac)
    return True


# -- step scope: packing + drivers ------------------------------------

def _fill_deck(dk: _CDeck, sim, sort_interval: int) -> tuple:
    """Pack one simulation into a deck descriptor; returns the
    keep-alive tuple of backing buffers (arena-owned, but the ctypes
    struct holds raw pointers, so references must outlive the call)."""
    g = sim.grid
    f = sim.fields
    arena = sim._arena
    nv = g.n_voxels
    _, sy, sz = g.shape
    eps = 1e-9
    tab = arena.buf("field_table8", (nv, 8), np.float32)
    acc = arena.buf("j_acc4", (nv, 4), np.float64)
    counts = arena.buf("sort_counts", (nv + 1,), np.int64)
    max_n = max((sp.capacity for sp in sim.species), default=1)
    perm = arena.buf("sort_perm", (max_n,), np.int64)
    scr_i = arena.buf("sort_scr_i", (max_n,), np.int64)
    scr_f = arena.buf("sort_scr_f", (max_n,), np.float32)

    dk.nx, dk.ny, dk.nz = g.nx, g.ny, g.nz
    dk.sy, dk.sz, dk.nv = sy, sz, nv
    dk.hx, dk.hy, dk.hz = g.nx - eps, g.ny - eps, g.nz - eps
    dk.x0, dk.y0, dk.z0 = g.x0, g.y0, g.z0
    dk.dx, dk.dy, dk.dz = g.dx, g.dy, g.dz
    dk.fx0 = np.float32(g.x0)
    dk.fy0 = np.float32(g.y0)
    dk.fz0 = np.float32(g.z0)
    dk.fdx = np.float32(g.dx)
    dk.fdy = np.float32(g.dy)
    dk.fdz = np.float32(g.dz)
    lx, ly, lz = g.lengths
    dk.flx = np.float32(lx)
    dk.fly = np.float32(ly)
    dk.flz = np.float32(lz)
    dk.fdt = np.float32(g.dt)
    dk.fdt_hb = np.float32(0.5 * g.dt)
    dk.fdt_e = np.float32(1.0 * g.dt)
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"):
        setattr(dk, name, _fptr(getattr(f, name).data))
    n_sp = len(sim.species)
    spp = (_CSpecies * max(n_sp, 1))()
    for i, sp in enumerate(sim.species):
        cs = spp[i]
        for arr_name in ("x", "y", "z", "ux", "uy", "uz", "w"):
            setattr(cs, arr_name, _fptr(getattr(sp, arr_name)))
        cs.voxel = sp.voxel.ctypes.data_as(_pi)
        cs.tag = sp.tag.ctypes.data_as(_pi)
        cs.n = sp.n
        cs.qdt = np.float32(0.5 * sp.q * g.dt / sp.m)
        cs.inv_vol = np.float32(sp.q / g.cell_volume)
        cs.pushed = cs.crossings = 0
        cs.t_push = 0.0
    dk.species = ctypes.cast(spp, ctypes.POINTER(_CSpecies))
    dk.n_species = n_sp
    dk.sort_interval = sort_interval
    dk.step_count = sim.step_count
    dk.sorts_done = 0
    dk.tab = _fptr(tab)
    dk.acc = acc.ctypes.data_as(_pd)
    dk.counts = counts.ctypes.data_as(_pi)
    dk.perm = perm.ctypes.data_as(_pi)
    dk.scr_i = scr_i.ctypes.data_as(_pi)
    dk.scr_f = scr_f.ctypes.data_as(_pf)
    dk.t_field = dk.t_push = dk.t_sort = 0.0
    dk.particles_pushed = dk.crossings = 0
    dk.ghost_folds = dk.sort_events = 0
    return (tab, acc, counts, perm, scr_i, scr_f, spp)


def _pack_identity(sim) -> tuple:
    """The objects a packed deck holds raw pointers into. While every
    one is the *same object*, the cached pack is still valid (arrays
    mutate in place; capacity growth and checkpoint restores replace
    them, which invalidates by identity)."""
    parts = [getattr(sim.fields, name).data
             for name in ("ex", "ey", "ez", "bx", "by", "bz",
                          "jx", "jy", "jz")]
    for sp in sim.species:
        parts.extend(getattr(sp, a) for a in
                     ("x", "y", "z", "ux", "uy", "uz", "w",
                      "voxel", "tag"))
    return tuple(parts)


def _pack_cached(sim, sort_interval: int):
    """One-deck pack with per-sim reuse: repacking costs ~0.2 ms of
    ctypes traffic, a visible fraction of a small-deck step, so the
    descriptor is cached on the sim and only the per-step fields are
    refreshed while the underlying arrays are unchanged."""
    cached = getattr(sim, "_native_pack", None)
    ident = _pack_identity(sim)
    if cached is not None:
        decks, keep, old_ident = cached
        if len(old_ident) == len(ident) and all(
                a is b for a, b in zip(old_ident, ident)):
            dk = decks[0]
            dk.sort_interval = sort_interval
            dk.step_count = sim.step_count
            dk.sorts_done = 0
            dk.t_field = dk.t_push = dk.t_sort = 0.0
            dk.particles_pushed = dk.crossings = 0
            dk.ghost_folds = dk.sort_events = 0
            spp = keep[-1]
            for i, sp in enumerate(sim.species):
                spp[i].n = sp.n
                spp[i].pushed = spp[i].crossings = 0
                spp[i].t_push = 0.0
            return decks
    decks = (_CDeck * 1)()
    keep = _fill_deck(decks[0], sim, sort_interval)
    sim._native_pack = (decks, keep, ident)
    return decks


def _deck_stats(dk, spp, n_species: int) -> dict:
    """Drain one packed deck's telemetry struct into a plain dict —
    the per-phase seconds the callers always consumed plus the new
    counters and per-species push stats (ISSUE 8). Reading is the
    only side effect; the struct is reset at the next pack."""
    return {
        "field": dk.t_field, "push": dk.t_push, "sort": dk.t_sort,
        "sorted": dk.sorts_done > 0, "sorts_done": dk.sorts_done,
        "counters": {
            "particles_pushed": dk.particles_pushed,
            "crossings": dk.crossings,
            "ghost_folds": dk.ghost_folds,
            "sort_events": dk.sort_events,
        },
        "species": [
            {"seconds": spp[i].t_push, "pushed": spp[i].pushed,
             "crossings": spp[i].crossings}
            for i in range(n_species)],
    }


def step_simulation(sim, sort_interval: int = 0) -> "dict | None":
    """Advance *sim* by one whole native step.

    ``sort_interval`` > 0 hands the counting sort to the C lane (the
    caller has checked the policy is ``SortKind.STANDARD`` with no
    detail-mode gauges due); 0 leaves any sorting to the caller.
    Returns the drained telemetry struct — per-phase seconds,
    whether the lane sorted, event counters, and measured per-species
    push stats — or ``None`` when no kernel is available.
    """
    lib = native_push_kernel()
    if lib is None:
        return None
    decks = _pack_cached(sim, sort_interval)
    lib.step_decks(decks, 1)
    spp = sim._native_pack[1][-1]
    return _deck_stats(decks[0], spp, len(sim.species))


def step_batch(sims, num_steps: int) -> "list[dict] | None":
    """Advance N independent simulations ``num_steps`` each in ONE
    native call, round-robin per step over their packed arenas.

    Decks never interact, so the interleaving is byte-identical to
    running them back to back. Callers have verified every sim is
    native-step eligible with a natively sortable (or disabled) sort
    policy. Returns per-sim phase/sort summaries, or ``None`` when no
    kernel is available.
    """
    from repro.core.sorting import SortKind

    lib = native_push_kernel()
    if lib is None:
        return None
    decks = (_CDeck * len(sims))()
    keeps = []
    for dk, sim in zip(decks, sims):
        interval = sim.sort_step.interval
        if sim.sort_step.kind is not SortKind.STANDARD:
            interval = 0
        keeps.append(_fill_deck(dk, sim, interval))
    lib.step_decks(decks, num_steps)
    return [_deck_stats(dk, keep[-1], len(sim.species))
            for dk, keep, sim in zip(decks, keeps, sims)]
