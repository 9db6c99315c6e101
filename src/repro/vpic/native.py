"""Compiled native lane: fused push, whole-step, and batched stepping.

The paper's §5.3 comparison point is hand-tuned native code; this
module provides that lane for the hot loop at two scopes:

- **push scope** (PR 5): a single-pass C kernel for the fused
  particle phase (gather -> Boris -> deposit -> advance -> wrap),
  one trip through memory per particle — the whole step's push phase
  alone (:func:`push_simulation`, every species in one ``push_deck``
  call), the one native push entry for a step that stays Python and
  for a distributed rank's brick. On an Esirkepov deck the same call
  takes each species through the charge-conserving twin (gather ->
  Boris -> advance -> first-order Esirkepov deposit, then the wrap on
  a zero-origin deck). Both are the one ``push_tiles`` body, whose CIC
  deposit works per *cell run*
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
  boundary needs — the same counting sort from ``SortStep.apply``,
  and one window phase from ``MovingWindow.shift``
  (:func:`shift_window`: field shift, Mur history refresh, particle
  drop and compaction, reload column), so only the laser antenna and
  the reload column's RNG stay numpy there. Outside
  the step, the three passes the guard and the diagnostics make over
  freshly pushed particles run here too, each from inside its public
  function with numpy as fallback and oracle: the CIC charge deposit
  (``deposit_charge``'s atomic path — the Gauss-law and continuity
  checks and the Gauss repair), the kinetic-energy terms
  (``Species.kinetic_energy`` off the step scope; numpy sums them
  there) and the voxel refresh (``Species.update_voxels`` — deck
  build, ``live("voxel")``). On the step scope the tools that read a
  step ask the packed deck for what they read, and the step measures
  it where the state already is. A guard asks for its screen:
  ``step_one`` counts non-finite particle values and takes the
  NaN-skipping min/max of every final position axis as it pushes,
  then counts non-finite field values in one pass at the end, and
  returns that :class:`StepVerdict` with its telemetry; the checks
  skip their numpy scans when it proves them clean. The detail gauge,
  a recorder's energy sample, the guard's drift check and
  ``Simulation.run``'s diagnostic ask for the energy: after the call's
  last step (its sort included, since particle order fixes the
  summation order) one pass computes the six field sums and each
  species' kinetic sum as numpy's pairwise ``np.sum`` does, its top
  subtrees on the step team, so ``(electric, magnetic, kinetic)`` is
  bit-identical to ``FieldArrays.field_energy`` and
  ``Species.kinetic_energy`` for any team size. Detail mode asks for
  the disorder: a sort counts the descents of the voxels it is about
  to refresh, so the ``sort/disorder_*`` gauges need no numpy scan
  and the detail-mode sort stays in the step. Decks nothing observes
  run the code they ran without any of this.

The step scope takes several steps per call when nothing observes the
individual steps: ``Simulation.run`` hands :func:`step_simulation` a
chunk of ``steps=k`` between its diagnostic samples, and
:func:`step_batch` advances N independent decks in one native call
over their packed arenas (``Simulation.step_many``, the ``run-deck
--batch`` surface), round-robin per step.

The step scope, and the push scope's push phase, run on a persistent
team of threads, one per CPU of the process's affinity mask
(:func:`step_team_size`; capped at the C source's ``TEAM_MAX``), each
worker pinned to a CPU of its own. In the
push, threads claim the next 1024-particle tile as they come free, the
per-particle stages run concurrently, and each tile's deposit waits on
an acquire/release ticket for the tile before it. Deposits are
therefore taken in tile order, every accumulator element sums the same
addends in the same order as on one thread, and x, u and J are the
same bytes for any team size — ``taskset -c 0`` gives a one-thread run
with the same result. A due counting sort splits the particles into
contiguous chunks with per-thread histograms and a thread-major prefix
sum, which is the one-thread stable permutation. A second Python
thread stepping while the team is busy runs the one-thread loop; a
forked child starts its own team. A distributed rank's push — the same
``push_deck`` on its brick's deck — runs on the thread that steps the
rank, one per rank, without the team; the Esirkepov push, the
per-call sort and the guard's passes stay on one thread.

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
Esirkepov deposit stages its increments — 64 particles at a time,
vectorized across particles, in the numpy kernel's float64 operation
order — and accumulates them in numpy's own slot-major order, so its
currents are bit-identical. The
counting sort is stable, so it reproduces
``np.argsort(voxels, kind="stable")`` — the ``SortKind.STANDARD``
permutation — exactly. The charge deposit adds in ``np.add.at``'s
corner-major, particle order, so it too is bit-identical, and the
clips of ``Grid``'s index chain are compare-selects with numpy's NaN
semantics (a NaN position bins into cell 1).

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
import re
import shutil
import subprocess
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "native_push_kernel",
    "native_available",
    "native_status",
    "native_build_key",
    "step_team_size",
    "rebuild",
    "step_simulation",
    "push_simulation",
    "push_wraps",
    "step_batch",
    "field_advance_b",
    "field_advance_e",
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
 *
 * The whole step pushes and sorts, and the push-scope step pushes, on a
 * persistent team of threads (see "the step team"; a distributed
 * rank's deck pushes on its caller's thread): tiles are split
 * across the team, but deposits are
 * taken in tile order, one tile at a time, so every accumulator element
 * gets the same addends in the same order whatever the team size — x,
 * u and J do not depend on how many threads ran.
 *
 * NSpecies and NDeck carry per-call telemetry beside their inputs, and
 * a deck with its screen set (a guard is attached) also gets the
 * guard's verdict on the state the step leaves (see "the guard's
 * screen"); one that asks for energy or disorder gets those (see "the
 * step's reductions for the tools"); new fields go at the end of both
 * structs.
 */
#define _GNU_SOURCE             /* CPU_COUNT, sched_getaffinity */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <time.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>
#if defined(__AVX__)
#include <immintrin.h>
#endif

#define TILE 1024
#define WRAP_CHUNK 64

/* A screened push's verdict on one species (see "the guard's screen"):
 * how many of its x, y, z, ux, uy, uz, w values are not finite, and the
 * NaN-skipping min and max of each final position axis (+inf / -inf
 * when the axis holds no number). */
typedef struct {
    int64_t nonfinite;
    float lo[3], hi[3];
} Screen;

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
    /* the guard's screen: when set, step_one writes every species'
     * verdict to parts[0 .. n_species - 1] and the count of non-finite
     * values over the nine field arrays after the step to
     * field_nonfinite; parts is (TEAM_MAX, n_species) — one row of
     * partials per thread, reduced into the first */
    int64_t screen, field_nonfinite;
    Screen *parts;
    /* what the tools that read the step ask of it (see "the step's
     * reductions"): energy asks for the energy pass after the call's
     * last step, into sums, which holds 6 + n_species totals and then
     * PW_PARTS subtree sums per total; mass is each species' m.
     * disorder asks each sort for the descents of the voxels it
     * refreshes, per species into descents. t_energy: the pass's
     * seconds */
    int64_t energy, disorder;
    const double *mass;
    double *sums;
    int64_t *descents;
    double t_energy;
    /* a distributed rank's brick (its ghosts are the halo exchange's):
     * push_deck leaves its positions unwrapped for the migration and
     * pushes on the calling thread, one per rank, without the team */
    int64_t external_ghosts;
    /* push_deck's deposition and wrap: with esirkepov set every species
     * takes the Esirkepov stage and replay (esk_push) on the calling
     * thread, with charge[s], dt and the cell volume vol in float64,
     * staging in esk_inc — (3, 18, n) increments: jx, jy, jz rows —
     * and esk_base — (4, n) flat stencil base, then the x, y, z wrap
     * corrections — with row stride esk_ld, sized from the largest
     * species; wrap: push_deck wraps the positions.
     * esk_failed: 1 + the species whose move spanned more than one
     * cell (its J untouched, the species after it not pushed), else 0 */
    int64_t esirkepov, wrap, esk_failed;
    double dt, vol;
    const double *charge;
    float *esk_inc;
    int32_t *esk_base;
    int64_t esk_ld;
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

/* Staging for the first-order Esirkepov deposit (the deck's one pair,
 * reused species after species). The tile stage writes every
 * particle's float32 current increments slot-major
 * ((component, stencil slot) rows of n) and, per particle, the flat
 * offset of its stencil's base node with one wrap correction per axis;
 * esk_replay then accumulates the increments row by row, which is
 * exactly the order numpy's per-component bincount sees them in
 * deposit_current_esirkepov(binned=True) — so the float64 sums, and J
 * after the single float32 fold, come out bit-identical rather than
 * merely within an ulp.
 *
 * The stage runs over chunks of ESK_CHUNK particles in
 * struct-of-arrays form, vectorized across particles as Beck et al.
 * vectorize Smilei's projector: per axis one loop computes the chunk's
 * shape rows s0 and ds with compare-selects (no store indexed by the
 * particle's slot), then each of the 54 increment rows is one
 * contiguous loop. The float64 operations, and their order, are the
 * scalar ones of the numpy kernel.
 *
 * Why a flat base: the base node b of an axis is at most n, since c0
 * is clipped to [0, n - 1e-9], so the stencil node b + k lies past the
 * high ghost only for b == n and slot k == 2 — and is then the periodic
 * image of interior node 2, b + k - n. The stage stores that shift as
 * the axis's correction (zero otherwise), and each replay pass computes
 * base + off(a, b, c) minus the corrections of its slot-2 axes, with no
 * compare. Two other replays measured slower and were not kept:
 * holding runs of equal base in registers, as the CIC deposit holds
 * its cell runs (five steps after a sort a run is about two particles
 * long, and the replay took 1.7x as long), and replaying through a
 * stable counting-sort permutation by base. A pass still stalls where
 * consecutive particles hit one element (each add waits for the
 * previous store), which is why it is faster on unsorted input. The
 * offsets are int32: a grid with 2^31 voxels would need a 64 GiB
 * accumulator. */
#define ESK_CHUNK 64

typedef struct {
    double q;            /* f64 charge of the species */
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

/* (int64_t)floor(c) for a c that is finite or NaN: the truncation,
 * one lower for a negative non-integer. A NaN converts to INT64_MIN
 * either way, so it keeps its node. floor itself would keep the loop
 * from vectorizing under these flags. */
static inline int64_t esk_floor(double c)
{
    const int64_t t = (int64_t)c;
    return t - (c < (double)t);
}

/* Two increment rows of one component over a chunk: slot 0 of the
 * flow axis (W0) and the prefix sum of slots 0 and 1 (W0 + W1). The
 * third prefix slot is the total of W (zero by conservation) and is
 * never stored. */
static inline __attribute__((always_inline)) void esk_rows(
    float *restrict r0, float *restrict r1, const double *restrict f,
    const double *restrict d0, const double *restrict d1,
    const double *restrict s0b, const double *restrict dsb,
    const double *restrict s0c, const double *restrict dsc, int64_t k)
{
    for (int64_t i = 0; i < k; i++) {
        double tm = esk_term(s0b[i], dsb[i], s0c[i], dsc[i]);
        double w0 = d0[i] * tm, w1 = d1[i] * tm;
        r0[i] = (float)(f[i] * w0);
        r1[i] = (float)(f[i] * (w0 + w1));
    }
}

/* Stencil shapes, W coefficients and prefix sums for one tile, all in
 * float64 like the numpy kernel. pc holds the tile's clipped
 * pre-advance cell coordinates (the interior=True start endpoints);
 * p1 the advanced, not yet wrapped float32 positions. The node keeps
 * the int64 floor and its int32 narrowing, so a NaN coordinate lands
 * on node 1 as it always has. */
static inline __attribute__((always_inline)) void esk_stage(
    const NDeck *g, EskStage *e, double (*restrict pc)[TILE],
    float *restrict const p1[3], const float *restrict w, int64_t s,
    int64_t t)
{
    const double o[3] = { g->x0, g->y0, g->z0 };
    const double d[3] = { g->dx, g->dy, g->dz };
    const int64_t nc[3] = { g->nx, g->ny, g->nz };
    const int64_t sy = g->sy, sz = g->sz;
    const int64_t shift[3] = { g->nx * sy * sz, g->ny * sz, g->nz };
    const int64_t ld = g->esk_ld;
    double s0[3][3][ESK_CHUNK], ds[3][3][ESK_CHUNK];
    double fq[3][ESK_CHUNK];
    int64_t nb[3][ESK_CHUNK];
    if (e->err)
        return;             /* nothing staged will be replayed */
    for (int64_t c = 0; c < t; c += ESK_CHUNK) {
        const int64_t k = t - c < ESK_CHUNK ? t - c : ESK_CHUNK;
        int64_t bad = 0;
        for (int a = 0; a < 3; a++) {
            /* endpoints may sit up to one cell outside the box */
            const double lo = -1.0 + 1e-9;
            const double hi = (double)nc[a] + 1.0 - 1e-9;
            const double oa = o[a], da = d[a];
            const int64_t na = nc[a], sa = shift[a];
            const double *restrict c0s = pc[a] + c;
            const float *restrict x1 = p1[a] + c;
            double *restrict s00 = s0[a][0], *restrict s01 = s0[a][1],
                   *restrict s02 = s0[a][2];
            double *restrict d00 = ds[a][0], *restrict d01 = ds[a][1],
                   *restrict d02 = ds[a][2];
            int64_t *restrict nba = nb[a];
            int32_t *restrict corr = g->esk_base + (a + 1) * ld + s + c;
            for (int64_t i = 0; i < k; i++) {
                double c0 = c0s[i];
                double c1 = ((double)x1[i] - oa) / da;
                c1 = c1 < lo ? lo : c1;     /* two selects, as tile_index */
                c1 = c1 > hi ? hi : c1;
                int64_t cell0 = esk_floor(c0) + 1;
                int64_t cell1 = esk_floor(c1) + 1;
                int64_t b = cell0 < cell1 ? cell0 : cell1;
                int64_t m0 = cell0 - b, m1 = cell1 - b;
                bad |= (m0 > 1) | (m1 > 1);
                double f0 = c0 - (double)(cell0 - 1);
                double f1 = c1 - (double)(cell1 - 1);
                double g0 = 1.0 - f0, g1 = 1.0 - f1;
                /* s0 = (1-f0, f0, 0) or (0, 1-f0, f0) by m0; s1 by m1 */
                double a0 = m0 ? 0.0 : g0, a1 = m0 ? g0 : f0,
                       a2 = m0 ? f0 : 0.0;
                double b0 = m1 ? 0.0 : g1, b1 = m1 ? g1 : f1,
                       b2 = m1 ? f1 : 0.0;
                s00[i] = a0; s01[i] = a1; s02[i] = a2;
                d00[i] = b0 - a0; d01[i] = b1 - a1; d02[i] = b2 - a2;
                const int64_t node = (int32_t)b;
                nba[i] = node;
                corr[i] = (int32_t)(node == na ? sa : 0);
            }
        }
        if (bad) {
            e->err = 1;
            return;
        }
        {
            const double q = e->q, dt = g->dt, vol = g->vol;
            const double dx = g->dx, dy = g->dy, dz = g->dz;
            const float *restrict ws = w + c;
            int32_t *restrict fb = g->esk_base + s + c;
            for (int64_t i = 0; i < k; i++) {
                const double wq = (double)ws[i] * q;
                fq[0][i] = -(wq * dx / dt / vol);
                fq[1][i] = -(wq * dy / dt / vol);
                fq[2][i] = -(wq * dz / dt / vol);
                fb[i] = (int32_t)((nb[0][i] * sy + nb[1][i]) * sz
                                  + nb[2][i]);
            }
        }
        float *ix = g->esk_inc + s + c, *iy = ix + 18 * ld,
              *iz = iy + 18 * ld;
        for (int b = 0; b < 3; b++)
            for (int cc = 0; cc < 3; cc++)
                esk_rows(ix + (b * 3 + cc) * ld, ix + (9 + b * 3 + cc) * ld,
                         fq[0], ds[0][0], ds[0][1], s0[1][b], ds[1][b],
                         s0[2][cc], ds[2][cc], k);
        for (int a = 0; a < 3; a++)
            for (int cc = 0; cc < 3; cc++)
                esk_rows(iy + (a * 6 + cc) * ld, iy + (a * 6 + 3 + cc) * ld,
                         fq[1], ds[1][0], ds[1][1], s0[0][a], ds[0][a],
                         s0[2][cc], ds[2][cc], k);
        for (int a = 0; a < 3; a++)
            for (int b = 0; b < 3; b++)
                esk_rows(iz + (a * 6 + b * 2) * ld,
                         iz + (a * 6 + b * 2 + 1) * ld,
                         fq[2], ds[2][0], ds[2][1], s0[0][a], ds[0][a],
                         s0[1][b], ds[1][b], k);
    }
}

/* One replay pass: stencil slot (a, b, c), node off(a, b, c) from each
 * particle's base. wx, wy, wz (compile-time constants at every call)
 * say which slots are 2: that axis subtracts its wrap correction and
 * has no increment row (the prefix slot never stored). */
static inline __attribute__((always_inline)) void esk_pass(
    double *restrict acc, const int32_t *restrict base,
    const float *restrict inc, int64_t ld, int64_t n, int64_t off,
    int a, int b, int c, const int wx, const int wy, const int wz)
{
    const int32_t *restrict fb = base, *restrict kx = base + ld,
                  *restrict ky = base + 2 * ld, *restrict kz = base + 3 * ld;
    const float *restrict rx = inc + (a * 9 + b * 3 + c) * ld;
    const float *restrict ry = inc + (18 + a * 6 + b * 3 + c) * ld;
    const float *restrict rz = inc + (36 + a * 6 + b * 2 + c) * ld;
    for (int64_t i = 0; i < n; i++) {
        int64_t el = (int64_t)fb[i] + off;
        if (wx) el -= kx[i];
        if (wy) el -= ky[i];
        if (wz) el -= kz[i];
        double *restrict v = acc + el * 4;
        if (!wx) v[0] += (double)rx[i];
        if (!wy) v[1] += (double)ry[i];
        if (!wz) v[2] += (double)rz[i];
    }
}

/* Accumulate the staged increments into acc, slot-major. A node one
 * past the high ghost is the periodic image of interior node 2 and is
 * deposited there directly (the numpy kernel's wrap()); every other
 * ghost write folds through reduce_ghost_currents as usual. Slot
 * (2, 2, 2) has no row in any component and is skipped. */
static inline __attribute__((always_inline)) void esk_replay(
    const NDeck *g, int64_t n, double *restrict acc)
{
    const int64_t ld = g->esk_ld, sy = g->sy, sz = g->sz;
    const int32_t *base = g->esk_base;
    const float *inc = g->esk_inc;
    for (int a = 0; a < 3; a++)
        for (int b = 0; b < 3; b++)
            for (int c = 0; c < 3; c++) {
                const int64_t off = (a * sy + b) * sz + c;
                switch ((a == 2) << 2 | (b == 2) << 1 | (c == 2)) {
#define ESK_PASS(wx, wy, wz) \
    esk_pass(acc, base, inc, ld, n, off, a, b, c, wx, wy, wz); break
                case 0: ESK_PASS(0, 0, 0);
                case 1: ESK_PASS(0, 0, 1);
                case 2: ESK_PASS(0, 1, 0);
                case 3: ESK_PASS(0, 1, 1);
                case 4: ESK_PASS(1, 0, 0);
                case 5: ESK_PASS(1, 0, 1);
                case 6: ESK_PASS(1, 1, 0);
#undef ESK_PASS
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

/* ---- the guard's screen ------------------------------------------- */

/* With NDeck.screen set, step_one also reports what the guard's
 * finiteness and bounds checks would find: per species a Screen, and
 * one non-finite count over the nine ghost-inclusive field arrays after
 * the step. The particle partials ride in push_tiles (scr != NULL):
 * the Boris loop counts non-finite u and w as it writes and reads them,
 * and each final position axis is scanned once more while the tile is
 * in L1. Min, max and counts are order-free, so the verdict does not
 * depend on the team size: each thread keeps its own partials, one row
 * of dk->parts, and the caller reduces them into the first row.
 * NSpecies does not carry them: a larger stride would change the
 * machine code of every loop over the species. "Not finite" is
 * !(|v| <= FLT_MAX), true for NaN and both infinities; the min and max
 * are selects that keep the running value for a NaN v, as np.fmin and
 * np.fmax skip it. The screened functions live in a section of their
 * own, after all of .text, so the unscreened step keeps its addresses. */
static inline __attribute__((always_inline)) int32_t nonfinite_f(float v)
{
    return !(__builtin_fabsf(v) <= __FLT_MAX__);
}

static inline __attribute__((always_inline)) void screen_clear(Screen *s)
{
    s->nonfinite = 0;
    for (int a = 0; a < 3; a++) {
        s->lo[a] = __builtin_inff();
        s->hi[a] = -__builtin_inff();
    }
}

static inline __attribute__((always_inline)) void screen_merge(
    Screen *restrict to, const Screen *restrict s)
{
    to->nonfinite += s->nonfinite;
    for (int a = 0; a < 3; a++) {
        to->lo[a] = s->lo[a] < to->lo[a] ? s->lo[a] : to->lo[a];
        to->hi[a] = s->hi[a] > to->hi[a] ? s->hi[a] : to->hi[a];
    }
}

/* One final position axis of a tile into s, eight lanes at a time in
 * GCC vector types: GCC does not vectorize a loop-carried select, lane
 * array or not. A compare is -1 where it holds and 0 where it does not,
 * NaN included, so the selects below are v < lo ? v : lo exactly, and
 * subtracting the "not <= FLT_MAX" mask counts the non-finite lanes. */
typedef float v8f __attribute__((vector_size(32)));
typedef int32_t v8i __attribute__((vector_size(32)));

static inline __attribute__((always_inline)) void screen_axis(
    const float *restrict p, int64_t t, Screen *restrict s, int a)
{
    const v8i mag = { 0x7fffffff, 0x7fffffff, 0x7fffffff, 0x7fffffff,
                      0x7fffffff, 0x7fffffff, 0x7fffffff, 0x7fffffff };
    const v8f big = (v8f){ 0 } + __FLT_MAX__;
    v8f lo = (v8f){ 0 } + s->lo[a], hi = (v8f){ 0 } + s->hi[a];
    v8i bad = { 0 };
    int64_t i = 0;
    for (; i + 8 <= t; i += 8) {
        v8f v;
        memcpy(&v, p + i, sizeof v);
        const v8i below = v < lo, above = v > hi;
        lo = (v8f)((below & (v8i)v) | (~below & (v8i)lo));
        hi = (v8f)((above & (v8i)v) | (~above & (v8i)hi));
        bad -= ~((v8f)((v8i)v & mag) <= big);
    }
    for (int k = 0; k < 8; k++) {
        s->lo[a] = lo[k] < s->lo[a] ? lo[k] : s->lo[a];
        s->hi[a] = hi[k] > s->hi[a] ? hi[k] : s->hi[a];
        s->nonfinite += bad[k];
    }
    for (; i < t; i++) {
        const float v = p[i];
        s->lo[a] = v < s->lo[a] ? v : s->lo[a];
        s->hi[a] = v > s->hi[a] ? v : s->hi[a];
        s->nonfinite += nonfinite_f(v);
    }
}

/* ---- the step team ------------------------------------------------ */

/* The push phase — of step_one, and alone in push_deck for a step that
 * stays Python — runs on a persistent team of T threads, the caller
 * included: the CPUs in the process's affinity mask, counted when the
 * team starts (once per process; again in a forked child, whose
 * workers the fork did not copy), capped at TEAM_MAX. The tiles of all
 * species form one sequence per dispatch, and each thread claims the
 * next unclaimed tile whenever it is free, so a thread that starts
 * late or loses its CPU takes fewer tiles instead of holding the
 * others up. The stages before and after the deposit are per particle
 * and run concurrently; the deposit of a tile waits on the dispatch's
 * ticket until every tile before it in the sequence — earlier species,
 * their folds included — has stored. So each accumulator element
 * receives the same addends in the same particle order as on one
 * thread, and the bytes of x, u and J depend neither on T nor on which
 * thread took which tile. A due sort in step_one is a second dispatch
 * (team_sort), which builds sort_one's permutation exactly. An idle
 * worker polls long enough to span the Python a push-scope step runs
 * between two pushes (~0.4 ms), so it is not put to sleep and woken
 * every step. */
#define TEAM_MAX 8
#define TEAM_IDLE_S 2e-3        /* an idle worker polls this long, then sleeps */
#define TEAM_PAUSES 64          /* a waiting thread pauses this often, then yields */

typedef struct {
    pthread_mutex_t mu;         /* with cv: where idle workers sleep */
    pthread_cond_t cv;
    int64_t pid;                /* process the workers run in; 0 none yet */
    int64_t size;               /* threads, the caller included */
    int64_t gen;                /* dispatches so far (atomic) */
    int64_t busy;               /* workers still on this dispatch (atomic) */
    int64_t next;               /* next unclaimed tile of the dispatch (atomic) */
    int64_t ticket;             /* tiles deposited this dispatch (atomic) */
    int64_t bar_in, bar_gen;    /* team_sync: arrivals, rounds (atomic) */
    void (*job)(NDeck *, int64_t);  /* what the dispatch runs, per thread */
    NDeck *dk;                  /* the deck it runs on */
    double t_mark;              /* when the previous species' fold ended */
    int64_t *hist;              /* team_sort's (size, nv + 1) histograms */
    int64_t hist_len;
} Team;

static Team team;
/* The team's trylock: 0, or the pid of the process in which a
 * step_decks call holds the team. A claim inherited through fork()
 * names the parent; its holder does not exist in the child. */
static int64_t team_owner;

/* One thread in one species: its tiles are numbers base .. base +
 * tiles - 1 of the dispatch's sequence; *claim is the tile this thread
 * holds (possibly one of a later species). */
typedef struct {
    int64_t base, tiles;
    int64_t *claim;
    NDeck *dk;
    NSpecies *sp;
} TeamTiles;

static void fold_core(const NDeck *g);

/* One round of waiting: a pause, or after TEAM_PAUSES of them a yield
 * (if the thread being waited for shares this CPU, it runs). */
static inline void team_relax(int64_t *spins)
{
    if (++*spins < TEAM_PAUSES) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        *spins = 0;
        sched_yield();
    }
}

/* The first particle of the tile this thread holds in tt's species,
 * or n when its claim lies beyond the species. */
static inline int64_t team_tile(const TeamTiles *tt, int64_t n)
{
    const int64_t k = *tt->claim - tt->base;
    return k < tt->tiles ? k * TILE : n;
}

/* Claim the next tile of the dispatch; then as team_tile. */
static inline int64_t team_next(const TeamTiles *tt, int64_t n)
{
    *tt->claim = __atomic_fetch_add(&team.next, 1, __ATOMIC_RELAXED);
    return team_tile(tt, n);
}

/* Before tile k's deposit: wait for the tiles ahead of it. A species'
 * first tile then zeroes the accumulator, as the one-thread loop does
 * before each species. The asm is a compiler barrier: acc is restrict
 * in push_tiles, and neither it nor the fold may move across the
 * hand-over. */
static inline void team_wait(const TeamTiles *tt, int64_t k,
                             double *restrict acc)
{
    int64_t spins = 0;
    while (__atomic_load_n(&team.ticket, __ATOMIC_ACQUIRE) != tt->base + k)
        team_relax(&spins);
    __asm__ __volatile__("" ::: "memory");
    if (k == 0)
        memset(acc, 0, (size_t)tt->dk->nv * 4 * sizeof(double));
}

/* After it: the species' last tile folds into J; then the next tile
 * in deposit order may go. */
static inline void team_done(const TeamTiles *tt, int64_t k)
{
    __asm__ __volatile__("" ::: "memory");
    if (k == tt->tiles - 1) {
        fold_core(tt->dk);
        double t = now_s();
        tt->sp->t_push += t - team.t_mark;
        team.t_mark = t;
    }
    __atomic_store_n(&team.ticket, tt->base + k + 1, __ATOMIC_RELEASE);
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
 * tt == NULL (again a compile-time constant outside the team) walks
 * every tile; otherwise the tiles this thread claims, each deposit
 * taken in its turn (team_wait / team_done). scr == NULL (a constant
 * everywhere but the screened instantiations) skips the guard's
 * screen; otherwise the partials of the tiles pushed here are added
 * into *scr.
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
                         EskStage *esk, const TeamTiles *tt,
                         Screen *restrict scr)
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

    for (int64_t s = tt ? team_tile(tt, n) : 0; s < n;
         s = tt ? team_next(tt, n) : s + TILE) {
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
            int32_t bad = 0;
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
                if (scr)
                    bad += nonfinite_f(nux) + nonfinite_f(nuy)
                           + nonfinite_f(nuz) + nonfinite_f(wi);
            }
            if (scr)
                scr->nonfinite += bad;
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
        if (!esk) {
            if (tt)
                team_wait(tt, s / TILE, acc);
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
            if (tt)
                team_done(tt, s / TILE);
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
            if (scr)
                for (int a = 0; a < 3; a++)
                    screen_axis(ps[a], t, scr, a);
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
                      tab, acc, do_wrap, 0, 0, 0);
}

/* push_core on one species of the step, wrapped, with the guard's
 * screen: its partials into *out. */
__attribute__((noinline, section(".text.screen")))
static int64_t push_core_screened(const NDeck *g, const NSpecies *sp,
                                  Screen *out)
{
    Screen part;
    screen_clear(&part);
    const int64_t wraps = push_tiles(
        g, sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz, sp->w, sp->n,
        sp->qdt, sp->inv_vol, g->tab, g->acc, 1, 0, 0, &part);
    *out = part;
    return wraps;
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

/* ---- the step team: dispatch -------------------------------------- */

/* One thread's part of a push dispatch: claim tiles until the
 * sequence is exhausted, pushing each in the species it belongs to.
 * row (NULL, or never NULL, at compile time) takes this thread's screen
 * partials, one per species. */
static inline __attribute__((always_inline)) void team_push_tiles(
    NDeck *dk, Screen *row)
{
    int64_t claim = __atomic_fetch_add(&team.next, 1, __ATOMIC_RELAXED);
    int64_t base = 0;
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        const int64_t tiles = (sp->n + TILE - 1) / TILE;
        Screen part;            /* on the stack: rows share cache lines */
        if (row)
            screen_clear(&part);
        if (claim < base + tiles) {
            const TeamTiles tt = { base, tiles, &claim, dk, sp };
            int64_t wraps = push_tiles(
                dk, sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz, sp->w,
                sp->n, sp->qdt, sp->inv_vol, dk->tab, dk->acc, 1, 0, &tt,
                row ? &part : 0);
            __atomic_fetch_add(&sp->crossings, wraps, __ATOMIC_RELAXED);
            __atomic_fetch_add(&dk->crossings, wraps, __ATOMIC_RELAXED);
        }
        if (row)
            row[s] = part;
        base += tiles;
    }
}

static void team_push(NDeck *dk, int64_t id)
{
    (void)id;
    team_push_tiles(dk, 0);
}

__attribute__((noinline, section(".text.screen")))
static void team_push_screened(NDeck *dk, int64_t id)
{
    Screen *row = dk->parts + id * dk->n_species;
    if (!row)
        __builtin_unreachable();
    team_push_tiles(dk, row);
}

/* Wait until every thread of the team has arrived. */
static void team_sync(void)
{
    const int64_t round = __atomic_load_n(&team.bar_gen, __ATOMIC_ACQUIRE);
    if (__atomic_add_fetch(&team.bar_in, 1, __ATOMIC_ACQ_REL) == team.size) {
        __atomic_store_n(&team.bar_in, 0, __ATOMIC_RELAXED);
        __atomic_store_n(&team.bar_gen, round + 1, __ATOMIC_RELEASE);
        return;
    }
    int64_t spins = 0;
    while (__atomic_load_n(&team.bar_gen, __ATOMIC_ACQUIRE) == round)
        team_relax(&spins);
}

/* Thread id's part of sort_one over every species of dk: the same
 * voxel refresh and the same stable permutation, from per-thread
 * histograms over contiguous chunks of the particles and a
 * thread-major prefix sum (a voxel's slots go to thread 0's particles
 * first, in order, then thread 1's, ...), then the permutation applied
 * chunk by chunk of the destination. */
static void team_sort(NDeck *dk, int64_t id)
{
    const int64_t T = team.size, nv = dk->nv;
    const int64_t gsy = dk->sy, gsz = dk->sz;
    int64_t *restrict hist = team.hist + id * (nv + 1);
    int64_t *restrict perm = dk->perm;
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        const int64_t n = sp->n, lo = n * id / T, hi = n * (id + 1) / T;
        if (n == 0)
            continue;
        int64_t *restrict vox = sp->voxel;
        const float *restrict px = sp->x, *restrict py = sp->y,
                    *restrict pz = sp->z;
        for (int64_t i = lo; i < hi; i++) {     /* sort_one's refresh */
            double cx = ((double)px[i] - dk->x0) / dk->dx;
            double cy = ((double)py[i] - dk->y0) / dk->dy;
            double cz = ((double)pz[i] - dk->z0) / dk->dz;
            cx = cx < 0.0 ? 0.0 : (cx > dk->hx ? dk->hx : cx);
            cy = cy < 0.0 ? 0.0 : (cy > dk->hy ? dk->hy : cy);
            cz = cz < 0.0 ? 0.0 : (cz > dk->hz ? dk->hz : cz);
            vox[i] = (((int64_t)cx + 1) * gsy + ((int64_t)cy + 1)) * gsz
                     + ((int64_t)cz + 1);
        }
        memset(hist, 0, (size_t)(nv + 1) * sizeof(int64_t));
        for (int64_t i = lo; i < hi; i++) hist[vox[i]]++;
        team_sync();
        if (id == 0) {
            int64_t total = 0;
            for (int64_t v = 0; v < nv; v++)
                for (int64_t t = 0; t < T; t++) {
                    int64_t *c = team.hist + t * (nv + 1) + v;
                    const int64_t k = *c;
                    *c = total;
                    total += k;
                }
        }
        team_sync();
        for (int64_t i = lo; i < hi; i++) perm[hist[vox[i]]++] = i;
        team_sync();
        /* each array: gather this chunk, wait until nobody still reads
         * the array, store the chunk back */
        float *farr[7] = { sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz,
                           sp->w };
        for (int c = 0; c < 7; c++) {
            float *restrict a = farr[c];
            float *restrict sc = dk->scr_f;
            for (int64_t j = lo; j < hi; j++) sc[j] = a[perm[j]];
            team_sync();
            memcpy(a + lo, sc + lo, (size_t)(hi - lo) * sizeof(float));
        }
        int64_t *iarr[2] = { sp->voxel, sp->tag };
        for (int c = 0; c < 2; c++) {
            int64_t *restrict a = iarr[c];
            int64_t *restrict sc = dk->scr_i;
            for (int64_t j = lo; j < hi; j++) sc[j] = a[perm[j]];
            team_sync();
            memcpy(a + lo, sc + lo, (size_t)(hi - lo) * sizeof(int64_t));
        }
    }
}

static void *team_worker(void *arg)
{
    const int64_t id = (int64_t)(intptr_t)arg;
    int64_t seen = 0;
    for (;;) {
        const double t0 = now_s();
        int64_t spins = 0, polls = 0;
        while (__atomic_load_n(&team.gen, __ATOMIC_ACQUIRE) == seen) {
            if ((++polls & 255) == 0 && now_s() - t0 > TEAM_IDLE_S) {
                pthread_mutex_lock(&team.mu);
                while (__atomic_load_n(&team.gen, __ATOMIC_ACQUIRE) == seen)
                    pthread_cond_wait(&team.cv, &team.mu);
                pthread_mutex_unlock(&team.mu);
                break;
            }
            team_relax(&spins);
        }
        seen++;     /* the caller waits for every worker before the next */
        team.job(team.dk, id);
        __atomic_fetch_sub(&team.busy, 1, __ATOMIC_RELEASE);
    }
    return 0;
}

/* (Re)start the team in this process. The caller holds the claim, so
 * nothing else touches the team; in a forked child the parent's
 * workers are gone and their mutex may have been copied mid-use. */
static void team_start(void)
{
    int64_t n = 1;
    pthread_mutex_init(&team.mu, 0);
    pthread_cond_init(&team.cv, 0);
    team.pid = getpid();
    team.gen = 0;
    team.size = 1;
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
#ifdef CPU_COUNT
    cpu_set_t cpus;
    const int here = sched_getcpu();
    int cpu = -1;
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
        n = CPU_COUNT(&cpus);
#endif
    n = n < TEAM_MAX ? n : TEAM_MAX;
    /* workers take no signals: Python handles them on its own threads */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (int64_t i = 1; i < n; i++) {
#ifdef CPU_COUNT
        /* Each worker on its own CPU of the mask, not the caller's: a
         * kernel that does not balance load (cpuset sched_load_balance
         * 0) leaves a new thread on its creator's CPU for good. */
        do
            cpu++;
        while (cpu < CPU_SETSIZE && (!CPU_ISSET(cpu, &cpus) || cpu == here));
        if (cpu < CPU_SETSIZE) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_attr_setaffinity_np(&attr, sizeof one, &one);
        }
#endif
        pthread_t tid;
        if (pthread_create(&tid, &attr, team_worker, (void *)(intptr_t)i))
            break;
        team.size++;
    }
    pthread_attr_destroy(&attr);
    pthread_sigmask(SIG_SETMASK, &old, 0);
}

/* Trylock on the team: 1 when this call holds it (started for this
 * process), 0 when another thread of this process does — that caller
 * then steps on its own thread. */
static int team_claim(void)
{
    const int64_t me = getpid();
    int64_t seen = 0;
    if (!__atomic_compare_exchange_n(&team_owner, &seen, me, 0,
                                     __ATOMIC_ACQUIRE, __ATOMIC_RELAXED)
            && (seen == me
                || !__atomic_compare_exchange_n(&team_owner, &seen, me, 0,
                                                __ATOMIC_ACQUIRE,
                                                __ATOMIC_RELAXED)))
        return 0;
    if (team.pid != me)
        team_start();
    return 1;
}

static void team_release(void)
{
    __atomic_store_n(&team_owner, 0, __ATOMIC_RELEASE);
}

/* Whether splitting the deck's push buys anything: a second thread,
 * and a second tile for it. */
static int team_worth(const NDeck *dk)
{
    int64_t tiles = 0;
    for (int64_t s = 0; s < dk->n_species; s++)
        tiles += (dk->species[s].n + TILE - 1) / TILE;
    return team.size > 1 && tiles > 1;
}

/* One dispatch: job(dk, id) on every thread of the team, the caller
 * as id 0; returns when all are done. Inlined, as GCC did before the
 * screened push gave it a second job: out of line it moved every
 * kernel after it. */
static inline __attribute__((always_inline)) void team_run(
    NDeck *dk, void (*job)(NDeck *, int64_t))
{
    team.job = job;
    team.dk = dk;
    team.next = 0;
    team.ticket = 0;
    team.t_mark = now_s();
    __atomic_store_n(&team.busy, team.size - 1, __ATOMIC_RELAXED);
    pthread_mutex_lock(&team.mu);
    __atomic_store_n(&team.gen, team.gen + 1, __ATOMIC_RELEASE);
    pthread_cond_broadcast(&team.cv);
    pthread_mutex_unlock(&team.mu);
    job(dk, 0);
    int64_t spins = 0;
    while (__atomic_load_n(&team.busy, __ATOMIC_ACQUIRE) != 0)
        team_relax(&spins);
}

/* Whether the team sorts dk: a second thread, and histogram room. */
static int team_sorts(const NDeck *dk)
{
    const int64_t len = team.size * (dk->nv + 1);
    if (team.size < 2)
        return 0;
    if (team.hist_len < len) {
        int64_t *h = realloc(team.hist, (size_t)len * sizeof(int64_t));
        if (h == 0)
            return 0;
        team.hist = h;
        team.hist_len = len;
    }
    return 1;
}

/* ---- the whole step ---------------------------------------------- */

/* The screen's reduction in the caller: rows 1 .. rows - 1 of
 * dk->parts (one per thread that pushed) into row 0, the verdict. */
__attribute__((noinline, section(".text.screen")))
static void screen_reduce(NDeck *dk, int64_t rows)
{
    const int64_t ns = dk->n_species;
    for (int64_t s = 0; s < ns; s++) {
        Screen *v = &dk->parts[s];
        if (dk->species[s].n == 0)
            screen_clear(v);
        else
            for (int64_t r = 1; r < rows; r++)
                screen_merge(v, &dk->parts[r * ns + s]);
    }
}

/* The screen's field count: non-finite values over the nine
 * ghost-inclusive arrays, one pass at the end of the step. */
__attribute__((noinline, section(".text.screen")))
static int64_t screen_fields(const NDeck *dk)
{
    const float *const f[9] = { dk->ex, dk->ey, dk->ez, dk->bx, dk->by,
                                dk->bz, dk->jx, dk->jy, dk->jz };
    int64_t bad = 0;
    for (int c = 0; c < 9; c++) {
        const float *restrict a = f[c];
        int32_t k = 0;
        for (int64_t v = 0; v < dk->nv; v++)
            k += nonfinite_f(a[v]);
        bad += k;
    }
    return bad;
}

int64_t esk_push(const NDeck *dk, const NSpecies *sp, int64_t s, int wrap);

/* The push phase of a step, for step_one and push_deck: the field
 * table from the current E and B, then every species pushed, wrapped
 * when wrap is set, and folded into J (which the caller has zeroed).
 * On the team when the caller holds it and the deck has a second tile
 * (the team always wraps); otherwise one species after another on this
 * thread: zero the accumulator, push_core (esk_push when esk is set),
 * fold_core. A species whose Esirkepov move fails is not folded and
 * ends the phase (esk_failed). step_one passes esk as the constant 0,
 * so its push carries no trace of the other deposition. Inlined into
 * both callers: as a function of its own it would sit among the local
 * functions and move every entry after it. */
static inline __attribute__((always_inline)) void push_phase(
    NDeck *dk, int teamed, const int screened, const int wrap,
    const int esk) {
    const int64_t nv = dk->nv;
    const double t0 = now_s();
    build_table(dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                dk->tab, nv);
    const int split = teamed && team_worth(dk);
    if (split)                      /* push, fold, seconds and wraps */
        team_run(dk, screened ? team_push_screened : team_push);
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        if (sp->n == 0)
            continue;
        if (!split) {
            double ts = now_s();
            memset(dk->acc, 0, (size_t)nv * 4 * sizeof(double));
            int64_t wraps = esk
                ? esk_push(dk, sp, s, wrap)
                : screened
                ? push_core_screened(dk, sp, dk->parts + s)
                : push_core(dk, sp->x, sp->y, sp->z, sp->ux, sp->uy,
                            sp->uz, sp->w, sp->n, sp->qdt, sp->inv_vol,
                            dk->tab, dk->acc, wrap);
            if (esk && wraps < 0) {
                dk->esk_failed = s + 1;
                break;
            }
            fold_core(dk);
            sp->t_push += now_s() - ts;
            sp->crossings += wraps;
            dk->crossings += wraps;
        }
        sp->pushed += sp->n;
        dk->particles_pushed += sp->n;
        dk->ghost_folds++;
    }
    if (screened)
        screen_reduce(dk, split ? team.size : 1);
    dk->t_push += now_s() - t0;
}

/* For NDeck.disorder (see "the step's reductions"): ahead of a sort,
 * each species' voxels refreshed exactly as sort_one and team_sort
 * refresh them, and the descents among them — voxel[i] < voxel[i - 1]
 * — into descents[s]. The sort then recomputes the same voxels: a
 * second pass over the positions, but the sort's code stays as it is. */
__attribute__((noinline, section(".text.tools")))
static void count_descents(NDeck *dk)
{
    const int64_t gsy = dk->sy, gsz = dk->sz;
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        int64_t *restrict vox = sp->voxel;
        const float *restrict px = sp->x, *restrict py = sp->y,
                    *restrict pz = sp->z;
        int64_t descents = 0;
        for (int64_t i = 0; i < sp->n; i++) {   /* sort_one's refresh */
            double cx = ((double)px[i] - dk->x0) / dk->dx;
            double cy = ((double)py[i] - dk->y0) / dk->dy;
            double cz = ((double)pz[i] - dk->z0) / dk->dz;
            cx = cx < 0.0 ? 0.0 : (cx > dk->hx ? dk->hx : cx);
            cy = cy < 0.0 ? 0.0 : (cy > dk->hy ? dk->hy : cy);
            cz = cz < 0.0 ? 0.0 : (cz > dk->hz ? dk->hz : cz);
            vox[i] = (((int64_t)cx + 1) * gsy + ((int64_t)cy + 1)) * gsz
                     + ((int64_t)cz + 1);
        }
        for (int64_t i = 1; i < sp->n; i++)
            descents += vox[i] < vox[i - 1];
        dk->descents[s] = descents;
    }
}

/* observed (a compile-time constant) also fills the guard's verdict
 * when the deck's screen is set, and counts the sort's descents when
 * its disorder is. */
static inline __attribute__((always_inline)) void step_body(
    NDeck *dk, int teamed, const int observed) {
    const int screened = observed && dk->screen;
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
    push_phase(dk, teamed, screened, 1, 0);
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
    if (screened)
        dk->field_nonfinite = screen_fields(dk);
    dk->t_field += now_s() - t0;
    dk->step_count++;
    if (dk->sort_interval > 0
            && dk->step_count % dk->sort_interval == 0) {
        t0 = now_s();
        if (observed && dk->disorder)
            count_descents(dk);
        const int split_sort = teamed && team_sorts(dk);
        if (split_sort)
            team_run(dk, team_sort);
        for (int64_t s = 0; s < dk->n_species; s++)
            if (dk->species[s].n > 0) {
                if (!split_sort)
                    sort_one(dk, &dk->species[s]);
                dk->sort_events++;
            }
        dk->t_sort += now_s() - t0;
        dk->sorts_done++;
    }
}

static void step_one(NDeck *dk, int teamed)
{
    step_body(dk, teamed, 0);
}

/* A deck with its screen or its disorder set steps here, out of the
 * unobserved step's way. */
__attribute__((noinline, section(".text.screen")))
static void step_one_screened(NDeck *dk, int teamed)
{
    step_body(dk, teamed, 1);
}

/* ---- the step's reductions for the tools -------------------------- */

/* Besides the guard's screen, a tool that reads a step may ask it for
 * two numbers it would otherwise get from numpy passes afterwards.
 *
 * NDeck.energy: after the call's last step — after its sort, since the
 * particle order fixes the summation order — sums[0 .. 5] get
 * sum(E_c^2) and sum(B_c^2) over the interior cells and
 * sums[6 + s] species s's sum of w m (gamma - 1), each the float64 that
 * np.sum returns for FieldArrays.field_energy's and
 * Species.kinetic_energy's terms: 0.0 plus numpy's pairwise sum. Below
 * PW_BLOCK + 1 terms that is eight strided accumulators, combined as a
 * tree, then the tail (a plain running sum below eight terms); above,
 * the two halves, split at n / 2 rounded down to a multiple of eight.
 * The terms are computed on the fly, a block at a time, in the float64
 * operations of the numpy code; the caller combines the totals as
 * those two functions do. The top PW_TOP levels of every tree are
 * split into at most PW_PARTS subtrees, which the team's threads claim
 * as they come free, and the caller adds the subtree sums as the tree
 * does: the bytes are the same for any team size.
 *
 * NDeck.disorder: ahead of each sort, count_descents counts the
 * descents of the voxels the sort will refresh into descents[s]:
 * disorder_fraction's numerator before the sort; after it the count
 * is 0.
 *
 * Everything here, count_descents included, sits in .text.tools,
 * which the linker places after .text.screen: the unobserved step and
 * the screened functions keep their places (only step_decks grows, by
 * the call to energy_passes). */
#define PW_BLOCK 128            /* numpy's PW_BLOCKSIZE */
#define PW_TOP 3
#define PW_PARTS (1 << PW_TOP)

/* Terms in sum a: interior cells for a field, particles for a species. */
static inline __attribute__((always_inline)) int64_t pw_count(
    const NDeck *dk, int64_t a)
{
    return a < 6 ? dk->nx * dk->ny * dk->nz : dk->species[a - 6].n;
}

/* Terms k0 .. k0 + n - 1 of sum a into v: the squares of a field's
 * interior values in C order, or a species' w m (gamma - 1) with gamma
 * in Species._gamma_into's order. */
static inline __attribute__((always_inline)) void pw_terms(
    const NDeck *dk, int64_t a, int64_t k0, int64_t n, double *restrict v)
{
    if (a < 6) {
        const float *const f[6] = { dk->ex, dk->ey, dk->ez,
                                    dk->bx, dk->by, dk->bz };
        const int64_t ny = dk->ny, nz = dk->nz;
        int64_t iz = k0 % nz, iy = k0 / nz % ny, ix = k0 / nz / ny;
        for (int64_t j = 0; j < n; iz = 0) {      /* row by row */
            const float *restrict row =
                f[a] + ((ix + 1) * dk->sy + iy + 1) * dk->sz + 1 + iz;
            const int64_t len = nz - iz < n - j ? nz - iz : n - j;
            for (int64_t i = 0; i < len; i++) {
                const double e = (double)row[i];
                v[j + i] = e * e;
            }
            j += len;
            if (++iy == ny) {
                iy = 0;
                ix++;
            }
        }
    } else {
        const NSpecies *sp = &dk->species[a - 6];
        const float *restrict ux = sp->ux + k0, *restrict uy = sp->uy + k0,
                    *restrict uz = sp->uz + k0, *restrict w = sp->w + k0;
        const double m = dk->mass[a - 6];
        for (int64_t i = 0; i < n; i++) {
            const double p = (double)ux[i], q = (double)uy[i],
                         r = (double)uz[i];
            double g = 1.0 + p * p;
            g = g + q * q;
            g = g + r * r;
            v[i] = (double)w[i] * m * (sqrt(g) - 1.0);
        }
    }
}

/* numpy's pairwise sum of terms k0 .. k0 + n - 1 of sum a. */
__attribute__((noinline, section(".text.tools")))
static double pw_sum(const NDeck *dk, int64_t a, int64_t k0, int64_t n)
{
    if (n > PW_BLOCK) {
        const int64_t n2 = n / 2 - n / 2 % 8;
        const double lo = pw_sum(dk, a, k0, n2);
        return lo + pw_sum(dk, a, k0 + n2, n - n2);
    }
    double v[PW_BLOCK];
    pw_terms(dk, a, k0, n, v);
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += v[i];
        return res;
    }
    double r[8];
    for (int j = 0; j < 8; j++)
        r[j] = v[j];
    int64_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += v[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += v[i];
    return res;
}

/* The subtrees of the top depth levels of the tree over n terms from
 * k0, in order, as (first term, terms) into part; returns how many. */
__attribute__((noinline, section(".text.tools")))
static int pw_split(int64_t k0, int64_t n, int depth, int64_t (*part)[2])
{
    if (depth == 0 || n <= PW_BLOCK) {
        part[0][0] = k0;
        part[0][1] = n;
        return 1;
    }
    const int64_t n2 = n / 2 - n / 2 % 8;
    const int k = pw_split(k0, n2, depth - 1, part);
    return k + pw_split(k0 + n2, n - n2, depth - 1, part + k);
}

/* The sum of that tree from its subtree sums r[*k ..], in the tree's
 * order of adds. */
__attribute__((noinline, section(".text.tools")))
static double pw_join(int64_t n, int depth, const double *r, int *k)
{
    if (depth == 0 || n <= PW_BLOCK)
        return r[(*k)++];
    const int64_t n2 = n / 2 - n / 2 % 8;
    const double lo = pw_join(n2, depth - 1, r, k);
    return lo + pw_join(n - n2, depth - 1, r, k);
}

/* The subtree sums of every total, on the team (teamed, a compile-time
 * constant: claiming subtrees as push_tiles claims tiles) or all of
 * them on this thread. */
static inline __attribute__((always_inline)) void energy_parts(
    NDeck *dk, const int teamed)
{
    const int64_t totals = 6 + dk->n_species;
    double *restrict r = dk->sums + totals;
    int64_t claim = teamed
        ? __atomic_fetch_add(&team.next, 1, __ATOMIC_RELAXED) : 0;
    for (int64_t a = 0, g = 0; a < totals; a++) {
        int64_t part[PW_PARTS][2];
        const int np = pw_split(0, pw_count(dk, a), PW_TOP, part);
        for (int p = 0; p < np; p++, g++)
            if (g == claim) {
                r[a * PW_PARTS + p] = pw_sum(dk, a, part[p][0], part[p][1]);
                claim = teamed
                    ? __atomic_fetch_add(&team.next, 1, __ATOMIC_RELAXED)
                    : claim + 1;
            }
    }
}

__attribute__((noinline, section(".text.tools")))
static void team_energy(NDeck *dk, int64_t id)
{
    (void)id;
    energy_parts(dk, 1);
}

/* The energy pass of one deck, timed into t_energy. */
__attribute__((noinline, section(".text.tools")))
static void energy_pass(NDeck *dk, int teamed)
{
    const double t0 = now_s();
    const int64_t totals = 6 + dk->n_species;
    if (teamed && team_worth(dk))
        team_run(dk, team_energy);
    else
        energy_parts(dk, 0);
    for (int64_t a = 0; a < totals; a++) {
        int k = 0;
        dk->sums[a] = 0.0 + pw_join(pw_count(dk, a), PW_TOP,
                                    dk->sums + totals + a * PW_PARTS, &k);
    }
    dk->t_energy += now_s() - t0;
}

/* The energy pass of every deck that asked for one: its own function,
 * so step_decks grows by a call. */
__attribute__((noinline, section(".text.tools")))
static void energy_passes(NDeck *decks, int64_t n_decks, int teamed)
{
    for (int64_t d = 0; d < n_decks; d++)
        if (decks[d].energy)
            energy_pass(&decks[d], teamed);
}

/* On a 64-byte line, as it was before the Esirkepov entry moved to the
 * end of the file and took 0x4250 bytes from in front of it: unaligned
 * it started 48 bytes into a line and small-step ran 7 % slower. */
__attribute__((aligned(64)))
void step_decks(NDeck *decks, int64_t n_decks, int64_t n_steps) {
    const int teamed = team_claim();
    for (int64_t s = 0; s < n_steps; s++)
        for (int64_t d = 0; d < n_decks; d++) {
            if (decks[d].screen | decks[d].disorder)
                step_one_screened(&decks[d], teamed);
            else
                step_one(&decks[d], teamed);
        }
    energy_passes(decks, n_decks, teamed);
    if (teamed)
        team_release();
}

/* ---- guard and diagnostics passes -------------------------------- */

/* What the guard checks and the detail metrics compute over particles
 * the step has just pushed, each the same float operations in the
 * same order as its numpy original. The clips are compare-selects:
 * fmin/fmax would be libm calls under these flags, and the selects
 * keep numpy's NaN semantics. Nothing here calls into libc either —
 * scratch comes from the caller — so the library's PLT, and with it
 * the address of every kernel above, is what it was without them. */

/* Grid.cell_of_position along one axis, 0-based (the ghost-inclusive
 * index is one more), from the cell coordinate c: np.fmax(c, 0) sends
 * NaN to 0, np.fmin(c, h) caps +inf. */
static inline int64_t grid_cell(double c, double h)
{
    c = c > 0.0 ? c : 0.0;
    c = c < h ? c : h;
    return (int64_t)c;
}

/* Grid.cell_fraction along one axis, cast to float32 as cic_weights
 * does: np.clip(c, 0, h) minus its floor, NaN kept. cell is
 * grid_cell(c, h), which equals that floor for every clipped value but
 * NaN, and NaN - cell is NaN; floor itself would keep the loop from
 * vectorizing under these flags, and so would a nested select. The low
 * clip is <= so -0.0 becomes +0.0: numpy keeps -0.0 there, but its
 * fraction -0.0 - floor(-0.0) is +0.0 as well. */
static inline float grid_fraction(double c, double h, int64_t cell)
{
    c = c <= 0.0 ? 0.0 : c;
    c = c > h ? h : c;
    return (float)(c - (double)cell);
}

/* deposit_charge's atomic path: CIC charge w * rq onto out, corner by
 * corner and, within a corner, in particle order — np.add.at's order
 * of float32 adds. base (n) and fr (4 n) are scratch. */
void deposit_rho(const float *restrict x, const float *restrict y,
                 const float *restrict z, const float *restrict w,
                 int64_t n, float rq, float *restrict out,
                 int64_t nx, int64_t ny, int64_t nz,
                 double x0, double y0, double z0,
                 double dx, double dy, double dz,
                 int64_t *restrict base, float *restrict fr)
{
    const int64_t sy = ny + 2, sz = nz + 2;
    const double hx = (double)nx - 1e-9, hy = (double)ny - 1e-9,
                 hz = (double)nz - 1e-9;
    float *restrict fx = fr, *restrict fy = fr + n, *restrict fz = fr + 2 * n,
          *restrict rho = fr + 3 * n;
    for (int64_t i = 0; i < n; i++) {
        double cx = ((double)x[i] - x0) / dx;
        double cy = ((double)y[i] - y0) / dy;
        double cz = ((double)z[i] - z0) / dz;
        int64_t ix = grid_cell(cx, hx), iy = grid_cell(cy, hy),
                iz = grid_cell(cz, hz);
        base[i] = ((ix + 1) * sy + iy + 1) * sz + iz + 1;
        fx[i] = grid_fraction(cx, hx, ix);
        fy[i] = grid_fraction(cy, hy, iy);
        fz[i] = grid_fraction(cz, hz, iz);
        rho[i] = w[i] * rq;
    }
    /* corner k = (di, dj, dk) in cic_weights order: bit 0 di, 1 dj,
     * 2 dk; weight (a * b) * c with a = fx or 1 - fx, ... */
    for (int k = 0; k < 8; k++) {
        const int ox = k & 1, oy = (k >> 1) & 1, oz = (k >> 2) & 1;
        const int64_t off = (ox * sy + oy) * sz + oz;
        for (int64_t i = 0; i < n; i++) {
            float a = ox ? fx[i] : 1.0f - fx[i];
            float b = oy ? fy[i] : 1.0f - fy[i];
            float c = oz ? fz[i] : 1.0f - fz[i];
            out[base[i] + off] += a * b * c * rho[i];
        }
    }
}

/* Species.kinetic_energy's terms w m (gamma - 1) in float64, gamma in
 * _gamma_into's order; the caller sums t. */
void kinetic_terms(const float *restrict ux, const float *restrict uy,
                   const float *restrict uz, const float *restrict w,
                   int64_t n, double m, double *restrict t)
{
    for (int64_t i = 0; i < n; i++) {
        double a = (double)ux[i], b = (double)uy[i], c = (double)uz[i];
        double g = 1.0 + a * a;
        g = g + b * b;
        g = g + c * c;
        t[i] = (double)w[i] * m * (sqrt(g) - 1.0);
    }
}

/* Grid.voxel_of_position of particle i: the ghost-inclusive voxel of
 * its cell, hx = nx - 1e-9 and so on capping the cell index. */
static inline __attribute__((always_inline)) int64_t voxel_of(
    const float *x, const float *y, const float *z, int64_t i,
    double x0, double y0, double z0, double dx, double dy, double dz,
    double hx, double hy, double hz, int64_t sy, int64_t sz)
{
    return ((grid_cell(((double)x[i] - x0) / dx, hx) + 1) * sy
            + grid_cell(((double)y[i] - y0) / dy, hy) + 1) * sz
           + grid_cell(((double)z[i] - z0) / dz, hz) + 1;
}

/* Grid.voxel_of_position into voxel. */
void voxel_refresh(const float *restrict x, const float *restrict y,
                   const float *restrict z, int64_t *restrict voxel,
                   int64_t n, int64_t nx, int64_t ny, int64_t nz,
                   double x0, double y0, double z0,
                   double dx, double dy, double dz)
{
    const int64_t sy = ny + 2, sz = nz + 2;
    const double hx = (double)nx - 1e-9, hy = (double)ny - 1e-9,
                 hz = (double)nz - 1e-9;
    for (int64_t i = 0; i < n; i++)
        voxel[i] = voxel_of(x, y, z, i, x0, y0, z0, dx, dy, dz,
                            hx, hy, hz, sy, sz);
}

/* ---- the push-scope step ------------------------------------------ */

/* The push phase alone, one call per step for every species, the one
 * native push entry of both depositions: for a step whose field solve,
 * sources and sort stay in Python (Simulation.push_step), a CIC deck
 * on the team when this call can claim it, as step_decks; for a
 * distributed rank's brick (external_ghosts), and for every Esirkepov
 * deck (whose stage and replay run on one thread), on the calling
 * thread. The positions are wrapped when the deck's wrap is set. */
void push_deck(NDeck *dk)
{
    const int teamed = !dk->external_ghosts && !dk->esirkepov
                       && team_claim();
    dk->esk_failed = 0;
    push_phase(dk, teamed, 0, dk->wrap != 0, dk->esirkepov != 0);
    if (teamed)
        team_release();
}

/* ---- the moving window -------------------------------------------- */

/* MovingWindow.shift's one-cell slide of the box in +x, on the packed
 * deck, leaving the bytes of the numpy shift (its fallback and oracle):
 *
 * 1. each of the nine ghost-inclusive field arrays moves one x plane
 *    down (arr[:-1] = arr[1:]) and its last two planes are zeroed;
 * 2. a Mur history block (absorbing x; NULL otherwise) re-reads its
 *    eight planes as MurBoundary.refresh_history does: for ey, ez, by
 *    and bz, the low boundary plane (x index 1), then the high (nx);
 * 3. per species, x -= dx over the live particles in float32, then the
 *    particles with x < x0 are dropped and the rest compacted stably
 *    over all nine arrays, as Species.remove's boolean mask does: NaN
 *    is not < x0 and stays, and the slots past the new count keep what
 *    they held, the subtracted x included;
 * 4. the species' reload column, when it fits its capacity, is
 *    appended as MovingWindow._load_column does from the same random
 *    draws, staged by the caller: per particle j of the ny * nz * ppc,
 *    in cell c = j / ppc of the face (iy = c / nz, iz = c % nz),
 *    x = x0 + ((nx - 1) + u0) * dx, y = y0 + (iy + u1) * dy and
 *    z = z0 + (iz + u2) * dz in float64, each cast to float32; momenta
 *    the float32 casts of the three normal rows of a warm column, else
 *    zero; the weight; tag -1 and voxel_refresh's voxels. A column
 *    that does not fit is left to the caller, which grows the arrays
 *    as Species.append does;
 * 5. every species' n is written back.
 *
 * The compaction lists the runs of survivors after the first dropped
 * particle in dk->perm (the sort's scratch, one slot per particle; a
 * run takes two and follows a drop), then moves them array by array,
 * one memmove per run: this is the phase's memory traffic, since the
 * trailing column sits at the head of sorted arrays and every survivor
 * moves. The phase sits in .text.window, after .text.tools. */

typedef struct {
    const double *draws; /* (3 or 6, n) uniforms, normals; NULL: none */
    int64_t n, ppc;      /* particles in the column, per cell */
    int64_t warm;        /* momenta from the normal rows, else zero */
    double weight;
    int64_t capacity;    /* length of the species' arrays */
    int64_t loaded;      /* out: the column was appended */
} NColumn;

/* Move the listed runs of one array of elements of size bytes down to
 * k on. */
static inline __attribute__((always_inline)) void window_move(
    char *a, const size_t size, const int64_t *runs, int64_t n_runs,
    int64_t k)
{
    for (int64_t r = 0; r < n_runs; r++) {
        const int64_t i = runs[2 * r], end = runs[2 * r + 1];
        memmove(a + k * size, a + i * size, (size_t)(end - i) * size);
        k += end - i;
    }
}

/* The first index from i on whose x is behind x0, or n: whole blocks
 * of eight survivors are skipped with one vector compare (GCC does not
 * vectorize the scalar loop's compare under these flags). */
static inline __attribute__((always_inline)) int64_t window_next_drop(
    const float *restrict x, int64_t i, const int64_t n, const float fx0)
{
    const v8f lim = (v8f){ 0 } + fx0;
    for (; i + 8 <= n; i += 8) {
        v8f v;
        int64_t q[4];
        memcpy(&v, x + i, sizeof v);
        const v8i behind = v < lim;
        memcpy(q, &behind, sizeof q);
        if (q[0] | q[1] | q[2] | q[3])
            break;
    }
    while (i < n && !(x[i] < fx0))
        i++;
    return i;
}

/* The window phase, on the calling thread. */
__attribute__((noinline, section(".text.window")))
static void window_core(NDeck *dk, NColumn *cols, float *history)
{
    const int64_t nx = dk->nx, ps = dk->sy * dk->sz;
    const size_t plane = (size_t)ps * sizeof(float);
    float *fields[9] = { dk->ex, dk->ey, dk->ez, dk->bx, dk->by, dk->bz,
                         dk->jx, dk->jy, dk->jz };
    for (int f = 0; f < 9; f++) {
        memmove(fields[f], fields[f] + ps, (size_t)(nx + 1) * plane);
        memset(fields[f] + nx * ps, 0, 2 * plane);
    }
    if (history) {
        const float *mur[4] = { dk->ey, dk->ez, dk->by, dk->bz };
        for (int c = 0; c < 4; c++) {
            memcpy(history + (2 * c) * ps, mur[c] + ps, plane);
            memcpy(history + (2 * c + 1) * ps, mur[c] + nx * ps, plane);
        }
    }
    const float fdx = dk->fdx, fx0 = dk->fx0;
    for (int64_t s = 0; s < dk->n_species; s++) {
        NSpecies *sp = &dk->species[s];
        NColumn *col = &cols[s];
        float *x = sp->x;
        const int64_t n = sp->n;
        for (int64_t i = 0; i < n; i++)
            x[i] -= fdx;
        const int64_t first = window_next_drop(x, 0, n, fx0);
        int64_t *runs = dk->perm, n_runs = 0, k = first;
        for (int64_t i = first + 1; i < n;) {
            if (x[i] < fx0) {
                i++;
                continue;
            }
            const int64_t start = i;
            i = window_next_drop(x, i, n, fx0);
            runs[2 * n_runs] = start;
            runs[2 * n_runs + 1] = i;
            n_runs++;
            k += i - start;
        }
        char *arrays[9] = { (char *)x, (char *)sp->y, (char *)sp->z,
                            (char *)sp->ux, (char *)sp->uy, (char *)sp->uz,
                            (char *)sp->w, (char *)sp->voxel,
                            (char *)sp->tag };
        for (int a = 0; a < 9; a++)
            window_move(arrays[a], a < 7 ? sizeof(float) : sizeof(int64_t),
                        runs, n_runs, first);
        const int64_t m = col->n;
        col->loaded = col->draws != NULL && k + m <= col->capacity;
        if (col->loaded) {
            const double *u = col->draws;
            const double xa = (double)(nx - 1);
            const float w = (float)col->weight;
            for (int64_t j = 0; j < m; j++) {
                const int64_t c = j / col->ppc, i = k + j;
                x[i] = (float)(dk->x0 + (xa + u[j]) * dk->dx);
                sp->y[i] = (float)(dk->y0 + ((double)(c / dk->nz)
                                             + u[m + j]) * dk->dy);
                sp->z[i] = (float)(dk->z0 + ((double)(c % dk->nz)
                                             + u[2 * m + j]) * dk->dz);
                sp->ux[i] = col->warm ? (float)u[3 * m + j] : 0.0f;
                sp->uy[i] = col->warm ? (float)u[4 * m + j] : 0.0f;
                sp->uz[i] = col->warm ? (float)u[5 * m + j] : 0.0f;
                sp->w[i] = w;
                sp->voxel[i] = voxel_of(x, sp->y, sp->z, i, dk->x0, dk->y0,
                                        dk->z0, dk->dx, dk->dy, dk->dz,
                                        dk->hx, dk->hy, dk->hz, dk->sy,
                                        dk->sz);
                sp->tag[i] = -1;
            }
            k += m;
        }
        sp->n = k;
    }
}

/* The window phase alone, for the step that stays in Python
 * (MovingWindow.shift): cols holds one entry per species. */
__attribute__((section(".text.window")))
void window_deck(NDeck *dk, NColumn *cols, float *history)
{
    window_core(dk, cols, history);
}

/* ---- the Esirkepov push ------------------------------------------- */

/* push_phase's Esirkepov branch, for species s: the CIC push's index /
 * gather / Boris / advance stages and the charge-conserving deposit of
 * the move, staged per tile and replayed into dk->acc (zeroed and
 * folded by the caller); with wrap the positions are wrapped after the
 * stage has read them. Returns the wraps, or -1 — nothing replayed —
 * when a particle moved more than one cell. Last in the file, so its
 * size moves no other entry; on a 64-byte line (0x20 into one,
 * reference-lane measured 7-9 % slower). */
__attribute__((aligned(64)))
int64_t esk_push(const NDeck *dk, const NSpecies *sp, int64_t s, int wrap)
{
    EskStage e = { dk->charge[s], 0 };
    const int64_t wraps = push_tiles(
        dk, sp->x, sp->y, sp->z, sp->ux, sp->uy, sp->uz, sp->w, sp->n,
        sp->qdt, 0.0f, dk->tab, dk->acc, wrap, &e, 0, 0);
    if (e.err)
        return -1;
    esk_replay(dk, sp->n, dk->acc);
    return wraps;
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

#: The push's tile size, the step team's thread cap and the subtree sums
#: per energy total, from the C source.
_TILE, _TEAM_MAX, _PW_TOP = (
    int(re.search(rf"#define {name} (\d+)", _SOURCE).group(1))
    for name in ("TILE", "TEAM_MAX", "PW_TOP"))
_PW_PARTS = 1 << _PW_TOP


def step_team_size(sim=None) -> int:
    """Threads a ``Simulation``'s native CIC push runs on in this
    process — on the whole-step lane and on the push-scope lane alike,
    which share the step team: the CPUs in its affinity mask, capped at
    the C team's ``TEAM_MAX`` — what the team counts when it starts
    (``taskset -c 0`` makes it one). With *sim*, also capped at its
    number of push tiles (1024 particles each, per species): a deck of
    one tile pushes on one thread. A distributed rank's push does not
    take the team: each rank pushes on the thread that steps it."""
    n = (min(len(os.sched_getaffinity(0)), _TEAM_MAX)
         if hasattr(os, "sched_getaffinity") else 1)
    if sim is not None:
        n = min(n, max(1, sum(-(-sp.n // _TILE) for sp in sim.species)))
    return n

_f32 = ctypes.c_float
_f64 = ctypes.c_double
_i64 = ctypes.c_int64
_pf = ctypes.POINTER(ctypes.c_float)
_pd = ctypes.POINTER(ctypes.c_double)
_pi = ctypes.POINTER(ctypes.c_int64)
_pi32 = ctypes.POINTER(ctypes.c_int32)


class _CScreen(ctypes.Structure):
    _fields_ = [("nonfinite", _i64), ("lo", _f32 * 3), ("hi", _f32 * 3)]


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
                ("ghost_folds", _i64), ("sort_events", _i64),
                ("screen", _i64), ("field_nonfinite", _i64),
                ("parts", ctypes.POINTER(_CScreen)),
                ("energy", _i64), ("disorder", _i64),
                ("mass", _pd), ("sums", _pd), ("descents", _pi),
                ("t_energy", _f64), ("external_ghosts", _i64),
                ("esirkepov", _i64), ("wrap", _i64), ("esk_failed", _i64),
                ("dt", _f64), ("vol", _f64), ("charge", _pd),
                ("esk_inc", _pf), ("esk_base", _pi32),
                ("esk_ld", _i64)]


class _CColumn(ctypes.Structure):
    _fields_ = [("draws", _pd), ("n", _i64), ("ppc", _i64),
                ("warm", _i64), ("weight", _f64), ("capacity", _i64),
                ("loaded", _i64)]


def _fptr(a):
    """*a*'s data as a float32 pointer."""
    return ctypes.cast(a.__array_interface__["data"][0], _pf)


class _NativeLib:
    """ctypes binding of the compiled native translation unit."""

    def __init__(self, lib_path: Path, key: str):
        lib = ctypes.CDLL(str(lib_path))
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
        lib.deposit_rho.argtypes = ([_pf] * 4 + [_i64, _f32, _pf]
                                    + [_i64] * 3 + [_f64] * 6 + [_pi, _pf])
        lib.deposit_rho.restype = None
        lib.kinetic_terms.argtypes = [_pf] * 4 + [_i64, _f64, _pd]
        lib.kinetic_terms.restype = None
        lib.voxel_refresh.argtypes = ([_pf] * 3 + [_pi] + [_i64] * 4
                                      + [_f64] * 6)
        lib.voxel_refresh.restype = None
        lib.push_deck.argtypes = [ctypes.POINTER(_CDeck)]
        lib.push_deck.restype = None
        lib.window_deck.argtypes = [ctypes.POINTER(_CDeck),
                                    ctypes.POINTER(_CColumn), _pf]
        lib.window_deck.restype = None
        self._lib = lib
        self.path = lib_path
        self.key = key

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

    def push_deck(self, decks) -> None:
        self._lib.push_deck(decks)

    def window_deck(self, decks, cols, history) -> None:
        self._lib.window_deck(decks, cols, history)

    # -- guard and diagnostics scope ---------------------------------
    #
    # Each returns False, having done nothing, when an array is not a
    # 1-D C-contiguous aligned one of the kernel's dtype and length:
    # the caller then runs its numpy code, which is also the oracle.

    def deposit_charge(self, grid, x, y, z, w, rq, out) -> bool:
        """``deposit_charge``'s atomic scatter of ``w * rq`` into
        *out*, bit-identical."""
        n = np.size(x)
        if not (_flat(np.float32, n, x, y, z, w)
                and _flat(np.float32, grid.n_voxels, out)):
            return False
        base = np.empty(n, np.int64)
        fr = np.empty(4 * n, np.float32)
        self._lib.deposit_rho(
            _fptr(x), _fptr(y), _fptr(z), _fptr(w), _i64(n), _f32(rq),
            _fptr(out), _i64(grid.nx), _i64(grid.ny), _i64(grid.nz),
            _f64(grid.x0), _f64(grid.y0), _f64(grid.z0),
            _f64(grid.dx), _f64(grid.dy), _f64(grid.dz),
            base.ctypes.data_as(_pi), _fptr(fr))
        return True

    def kinetic_terms(self, sp, t) -> bool:
        """*sp*'s per-particle ``w m (gamma - 1)`` into the float64
        row *t*, bit-identical to ``Species.kinetic_energy``'s numpy
        terms."""
        n = sp.n
        ux, uy, uz = sp.momenta()
        w = sp.w[:n]
        if not (_flat(np.float32, n, ux, uy, uz, w)
                and _flat(np.float64, n, t)):
            return False
        self._lib.kinetic_terms(_fptr(ux), _fptr(uy), _fptr(uz), _fptr(w),
                                _i64(n), _f64(sp.m), t.ctypes.data_as(_pd))
        return True

    def voxel_refresh(self, grid, x, y, z, voxel) -> bool:
        """``grid.voxel_of_position(x, y, z)`` into *voxel*,
        bit-identical (NaN positions land in cell 1 as there)."""
        n = np.size(x)
        if not (_flat(np.float32, n, x, y, z)
                and _flat(np.int64, n, voxel)):
            return False
        self._lib.voxel_refresh(
            _fptr(x), _fptr(y), _fptr(z), voxel.ctypes.data_as(_pi),
            _i64(n), _i64(grid.nx), _i64(grid.ny), _i64(grid.nz),
            _f64(grid.x0), _f64(grid.y0), _f64(grid.z0),
            _f64(grid.dx), _f64(grid.dy), _f64(grid.dz))
        return True


def _flat(dtype, n: int, *arrays) -> bool:
    """Whether every array is a 1-D, C-contiguous, aligned *dtype*
    ndarray of *n* elements — what the kernels above index."""
    return all(isinstance(a, np.ndarray) and a.dtype == dtype
               and a.ndim == 1 and a.size == n and a.flags.c_contiguous
               and a.flags.aligned for a in arrays)


# -- prepared field calls ---------------------------------------------
#
# The kernel-by-kernel step calls the same field kernels every step
# with identical pointers: field bricks never reallocate. Marshalling
# the argument tuples once drops the per-call work to the call.


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
                [cc, *flags, str(src), "-o", str(tmp), "-lm", "-pthread"],
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
    its cache key) and how many threads the native push runs on, or
    why the most recent build attempt failed."""
    native_push_kernel()
    if not _status.startswith("compiled"):
        return _status
    n = step_team_size()
    return f"{_status}; step team {n} thread{'s' * (n != 1)}"


def native_build_key() -> "str | None":
    """Cache key (source+flags+compiler hash) of the most recent
    build attempt, or ``None`` when no attempt got as far as hashing
    (e.g. no compiler on PATH)."""
    native_push_kernel()
    return _last_key


# -- field helpers (Yee bit-identity tests; perfbench's tracer names
# them, so they stay while it does) -------------------------------------

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

def push_wraps(deck) -> bool:
    """Whether the native push wraps *deck*'s positions — a
    ``Simulation`` or a distributed rank's ``RankState`` — in the
    kernel, so that no boundary pass follows: on a zero origin, where
    the kernel's wrap of the escaped particles is the boundary pass's
    bytes, and never on a rank, whose migration reads them unwrapped."""
    g = deck.grid
    return (not deck.solver.external_ghosts
            and g.x0 == 0.0 and g.y0 == 0.0 and g.z0 == 0.0)


def _fill_deck(dk: _CDeck, sim, sort_interval: int) -> tuple:
    """Pack one deck — a ``Simulation`` or a distributed rank's
    ``RankState``, whose solver's external ghosts mark it as a rank —
    into a fresh (zeroed) deck descriptor; returns the keep-alive tuple
    of backing buffers (arena-owned, but the ctypes struct holds raw
    pointers, so references must outlive the call). The step count is
    the caller's to set: only the whole step reads it."""
    from repro.vpic.deck import DepositionKind

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
    inc = base = None
    if sim.deposition is DepositionKind.ESIRKEPOV:
        # The Esirkepov staging pair, one for the deck. Row stride: 16
        # floats past a multiple of 1024, so the 54 rows a particle
        # writes land in 54 different cache sets (a power-of-two
        # capacity would alias them all onto one).
        dk.esirkepov = 1
        dk.esk_ld = ld = (max_n | 1023) + 17
        inc = arena.buf("esirkepov_inc", (54 * ld,), np.float32)
        base = arena.buf("esirkepov_base", (4 * ld,), np.int32)
        dk.esk_inc = _fptr(inc)
        dk.esk_base = base.ctypes.data_as(_pi32)

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
    parts = (_CScreen * (_TEAM_MAX * max(n_sp, 1)))()
    mass = np.array([sp.m for sp in sim.species] or [0.0], np.float64)
    charge = np.array([sp.q for sp in sim.species] or [0.0], np.float64)
    sums = np.zeros((6 + n_sp) * (1 + _PW_PARTS), np.float64)
    descents = np.zeros(max(n_sp, 1), np.int64)
    dk.species = ctypes.cast(spp, ctypes.POINTER(_CSpecies))
    dk.n_species = n_sp
    dk.sort_interval = sort_interval
    dk.tab = _fptr(tab)
    dk.acc = acc.ctypes.data_as(_pd)
    dk.counts = counts.ctypes.data_as(_pi)
    dk.perm = perm.ctypes.data_as(_pi)
    dk.scr_i = scr_i.ctypes.data_as(_pi)
    dk.scr_f = scr_f.ctypes.data_as(_pf)
    dk.parts = ctypes.cast(parts, ctypes.POINTER(_CScreen))
    dk.mass = mass.ctypes.data_as(_pd)
    dk.sums = sums.ctypes.data_as(_pd)
    dk.descents = descents.ctypes.data_as(_pi)
    dk.external_ghosts = sim.solver.external_ghosts
    dk.wrap = push_wraps(sim)
    dk.dt = g.dt
    dk.vol = g.cell_volume
    dk.charge = charge.ctypes.data_as(_pd)
    return (tab, acc, counts, perm, scr_i, scr_f, mass, charge, inc, base,
            sums, descents, parts, spp)


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


def _pack_cached(sim, sort_interval: int, screen: bool = False,
                 energy: bool = False, disorder: bool = False):
    """One-deck pack of *sim* (see :func:`_fill_deck`) with reuse:
    repacking costs ~0.2 ms of ctypes traffic, a visible fraction of a
    small-deck step, so the descriptor is cached on *sim* and only the
    per-step fields are refreshed while the underlying arrays are
    unchanged (a rank's never move in shared memory; on the threads
    backend a capacity growth repacks by identity). *screen* asks
    the step for the guard's verdict (:class:`StepVerdict`), *energy*
    for the energy totals of the state the call leaves, *disorder* for
    the descents each sort finds."""
    cached = getattr(sim, "_native_pack", None)
    ident = _pack_identity(sim)
    if cached is None or len(cached[2]) != len(ident) or any(
            a is not b for a, b in zip(cached[2], ident)):
        decks = (_CDeck * 1)()
        sim._native_pack = (decks, _fill_deck(decks[0], sim, 0), ident)
    else:
        decks, keep, _ = cached
        dk = decks[0]
        dk.t_energy = dk.t_field = dk.t_push = dk.t_sort = 0.0
        dk.sorts_done = dk.particles_pushed = dk.crossings = 0
        dk.ghost_folds = dk.sort_events = 0
        spp = keep[-1]
        for i, sp in enumerate(sim.species):
            spp[i].n = sp.n
            spp[i].pushed = spp[i].crossings = 0
            spp[i].t_push = 0.0
    dk = decks[0]
    dk.sort_interval = sort_interval
    dk.screen = screen
    dk.energy = energy
    dk.disorder = disorder
    return decks


class StepVerdict(NamedTuple):
    """What a screened native step saw, for the guard's finiteness and
    bounds checks: the count of non-finite values over the nine field
    arrays after the step, and per species (rows) the count over its
    x, y, z, ux, uy, uz, w and the NaN-skipping float32 min and max of
    each final position axis (``inf`` / ``-inf`` for an axis with no
    number)."""

    field_nonfinite: int
    nonfinite: np.ndarray   # (species,) int64
    lo: np.ndarray          # (species, 3) float32
    hi: np.ndarray          # (species, 3) float32


#: The C Screen as a numpy record.
_SCREEN_DTYPE = np.dtype([("nonfinite", np.int64), ("lo", np.float32, 3),
                          ("hi", np.float32, 3)])
assert _SCREEN_DTYPE.itemsize == ctypes.sizeof(_CScreen)


def _deck_stats(dk, keep, sim) -> dict:
    """Drain one packed deck's telemetry struct (*keep*, its buffers
    from :func:`_fill_deck`) into a plain dict — the per-phase seconds
    the callers always consumed plus the counters and per-species push
    stats; when the deck was screened, the :class:`StepVerdict` under
    ``"verdict"``; when it asked for energy, the
    ``(electric, magnetic, kinetic)`` totals under ``"energy"`` and the
    pass's seconds under ``"energy_seconds"``; when it asked for
    disorder, each species' descent count before the last sort under
    ``"descents"``. Reading is the only side effect; the struct is
    reset at the next pack."""
    *_, sums, descents, parts, spp = keep
    n_species = len(sim.species)
    stats = {
        "field": dk.t_field, "push": dk.t_push, "sort": dk.t_sort,
        "sorts_done": dk.sorts_done,
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
    if dk.screen:
        screens = np.frombuffer(parts, dtype=_SCREEN_DTYPE, count=n_species)
        stats["verdict"] = StepVerdict(
            dk.field_nonfinite, screens["nonfinite"].copy(),
            screens["lo"].copy(), screens["hi"].copy())
    if dk.energy:
        stats["energy"] = _energy_from_sums(
            sim, sums[:6 + n_species].tolist())
        stats["energy_seconds"] = dk.t_energy
    if dk.disorder:
        stats["descents"] = descents[:n_species].tolist()
    return stats


def _energy_from_sums(sim, sums: list) -> tuple:
    """``(electric, magnetic, kinetic)`` from the energy pass's totals,
    in the Python operations of ``FieldArrays.field_energy`` and of
    ``Simulation.energy_totals``' sum over ``Species.kinetic_energy``,
    so the floats are theirs."""
    dv = sim.grid.cell_volume
    e2 = sum(sums[0:3])
    b2 = sum(sums[3:6])
    return 0.5 * e2 * dv, 0.5 * b2 * dv, sum(sums[6:])


def step_simulation(sim, sort_interval: int = 0, screen: bool = False,
                    steps: int = 1, energy: bool = False,
                    disorder: bool = False) -> "dict | None":
    """Advance *sim* by *steps* whole native steps in one call.

    ``sort_interval`` > 0 hands the counting sort to the C lane (the
    caller has checked the policy is ``SortKind.STANDARD``); 0 leaves
    any sorting to the caller, who then asks for one step at a time.
    *screen* also has the step fill the guard's :class:`StepVerdict`
    (of the last step), *energy* measure the energy totals of the state
    the call leaves — bit-identical to ``FieldArrays.field_energy`` and
    the sum of ``Species.kinetic_energy`` — and *disorder* count the
    descents of the voxels each sort refreshes. Returns the drained
    telemetry struct, summed over the steps — per-phase seconds, how
    many steps sorted, event counters, measured per-species push stats
    and what was asked for (see :func:`_deck_stats`) — or ``None`` when
    no kernel is available.
    """
    lib = native_push_kernel()
    if lib is None:
        return None
    decks = _pack_cached(sim, sort_interval, screen, energy, disorder)
    decks[0].step_count = sim.step_count
    lib.step_decks(decks, steps)
    return _deck_stats(decks[0], sim._native_pack[1], sim)


def push_simulation(sim) -> "dict | None":
    """Push every species of *sim* once: the push phase of the whole
    step alone (field table, push, fold into J, which the caller has
    cleared), the one native push entry of both depositions. For a
    ``Simulation`` (``Simulation.push_step``) a CIC deck runs on the
    step team; an Esirkepov deck, and a distributed rank's
    ``RankState`` (``distributed.rank_push``), on the calling thread.
    The positions are wrapped when :func:`push_wraps` says so, and left
    for the boundary pass or the migration otherwise. The pushed
    species' voxels are marked stale.

    An Esirkepov deck's positions, momenta and J are bit-identical to
    the numpy sequence with ``binned=True``. A move of more than one
    cell raises the numpy kernel's ``ValueError``: the species before
    its own are pushed and folded, its own is advanced with J
    untouched, the ones after it are not pushed.

    Returns the drained telemetry struct, as :func:`step_simulation`
    does (no field or sort time), or ``None`` when no kernel is
    available.
    """
    lib = native_push_kernel()
    if lib is None:
        return None
    decks = _pack_cached(sim, 0)
    lib.push_deck(decks)
    for sp in sim.species:
        if sp.n:
            sp.mark_voxels_stale()
    if decks[0].esk_failed:
        from repro.vpic.esirkepov import MULTI_CELL_MOVE
        raise ValueError(MULTI_CELL_MOVE)
    return _deck_stats(decks[0], sim._native_pack[1], sim)


def shift_window(sim, lib, loads) -> list:
    """Slide *sim*'s box one cell in +x in one native call on its
    cached pack — ``MovingWindow.shift``'s field shift, Mur history
    refresh, particle drop and compaction, and reload — with the bytes
    of the numpy shift. *lib* is the kernel library of
    ``sim.lane()``; *loads* holds per species ``None`` or its reload
    ``(SpeciesConfig, draws)``, the column's random draws from
    ``MovingWindow._draws``. Returns the indices of the species whose
    column was not loaded: none was asked for, or it would have
    overflowed the species' capacity (the caller then loads it with
    ``MovingWindow._load_column``, whose ``Species.append`` grows the
    arrays as the numpy shift does)."""
    decks = _pack_cached(sim, 0)
    spp = sim._native_pack[1][-1]
    cols = (_CColumn * max(len(sim.species), 1))()
    for col, sp, load in zip(cols, sim.species, loads):
        col.capacity = sp.capacity
        if load is not None:
            cfg, draws = load
            n = sim.grid.ny * sim.grid.nz * cfg.ppc
            if (draws.dtype != np.float64 or not draws.flags.c_contiguous
                    or draws.shape not in ((3, n), (6, n))):
                raise ValueError(
                    f"reload draws must be C-contiguous float64 (3 or 6, "
                    f"{n}), got {draws.dtype} {draws.shape}")
            col.draws = draws.ctypes.data_as(_pd)
            col.n = n
            col.ppc = cfg.ppc
            col.warm = draws.shape[0] == 6
            col.weight = cfg.weight
    mur = getattr(sim.solver, "mur", None)
    lib.window_deck(decks, cols,
                    None if mur is None else _fptr(mur._history))
    unloaded = []
    for i, sp in enumerate(sim.species):
        sp.n = spp[i].n
        if not cols[i].loaded:
            unloaded.append(i)
    return unloaded


def step_batch(sims, num_steps: int) -> "list[dict] | None":
    """Advance N independent simulations ``num_steps`` each in ONE
    native call, round-robin per step over their packed arenas.

    Decks never interact, so the interleaving is byte-identical to
    running them back to back. Callers have verified every sim may
    take several steps per call (``Simulation._multi_step_ok``), so
    its sort is native or off. Returns per-sim phase/sort summaries,
    or ``None`` when no kernel is available.
    """
    lib = native_push_kernel()
    if lib is None:
        return None
    decks = (_CDeck * len(sims))()
    keeps = [_fill_deck(dk, sim, sim._native_sort_interval())
             for dk, sim in zip(decks, sims)]
    for dk, sim in zip(decks, sims):
        dk.step_count = sim.step_count
    lib.step_decks(decks, num_steps)
    return [_deck_stats(dk, keep, sim)
            for dk, keep, sim in zip(decks, keeps, sims)]
