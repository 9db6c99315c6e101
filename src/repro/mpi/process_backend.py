"""Real-process rank execution over shared memory with halo overlap.

The threads backend in :mod:`repro.mpi.distributed` fans ranks over a
thread pool but still moves every halo slab through the in-process
:class:`~repro.mpi.comm.World` mailboxes — per-message dict traffic,
double copies, and per-message logging that profiling shows dominate
the distributed step. This backend removes the substrate: each rank
is a **forked worker process**, all mutable rank state (field bricks,
particle arrays) lives in one :class:`~repro.mpi.shm.SharedArena`,
and neighbor exchange is a memcpy into a preallocated mailbox slab
published through :class:`~repro.mpi.comm.NeighborChannels` sequence
counters.

Two step schedules, selected by ``overlap``:

- **serialized** — the reference shape: each exchange posts its slabs
  and waits immediately, field updates run over the full interior
  afterwards. Structurally identical to the threads backend's
  dataflow, useful as the overlap-efficiency baseline.
- **overlapped** — sends post early and interior work runs while the
  slabs are in flight: the first half-B advances the deep interior
  (:func:`~repro.vpic.fields.interior_split`) during the E/B
  exchange and completes the boundary shell once ghosts land; the
  second half-B runs inside the ghost-current reduction window; the
  full-E advance splits the same way around the E exchange; particle
  migration is posted right after the push and drained only after
  the current folds.

Both schedules are **bit-identical** to each other and to the
threads backend: ranks own disjoint state between dependency points,
the Yee updates are elementwise (any partition of the interior
computes the same values), and every cross-rank fold/append runs in
the same deterministic order (axis-sequential, face 0 before face 1,
species in deck order). Synchronization is dataflow (sequence
counters), never wall-clock, so scheduling jitter cannot reorder
arithmetic.

Mailbox safety: each (rank, face) owns one slab per exchange phase
per **step parity**. Distinct phase slabs keep a fast rank's later
phase from overwriting a slab its neighbor still reads this step;
parity double-buffering covers the cross-step case (consuming a
neighbor's step-``s+1`` post proves, through the chain of that
neighbor's own waits, that it finished every step-``s-1`` read of
the same-parity slab). Migration mailboxes are single-buffered: a
rank posts its step-``s`` leavers only after waiting on all six
neighbors' step-``s`` field posts, which happen after those
neighbors drained its step-``s-1`` migrants.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

from repro.kokkos.atomics import accounting_enabled
from repro.mpi.comm import ChannelAborted, NeighborChannels
from repro.mpi.halo import _FACE_AXES, _boundary_slice
from repro.mpi.shm import SharedArena, SharedSpecies
from repro.vpic.boris import advance_positions, boris_push
from repro.vpic.deposit import deposit_current
from repro.vpic.fastpath import fused_push_species
from repro.vpic.fields import interior_split
from repro.vpic.interpolate import gather_fields

__all__ = ["ProcessBackend", "RankWorkerError"]

_E_NAMES = ("ex", "ey", "ez")
_B_NAMES = ("bx", "by", "bz")
_J_NAMES = ("jx", "jy", "jz")

#: Exchange phases, in per-step schedule order. Each face's sequence
#: counter advances once per phase per step, so a reader's absolute
#: target is ``4*step + phase + 1``.
_PH_A, _PH_B, _PH_J, _PH_E = range(4)
_PHASE_NAMES = {_PH_A: _E_NAMES + _B_NAMES, _PH_B: _B_NAMES,
                _PH_J: _J_NAMES, _PH_E: _E_NAMES}

#: Particle attributes packed into migration mailboxes (float32 rows
#: plus the int64 tag row kept in a separate buffer).
_MIG_F32 = ("x", "y", "z", "ux", "uy", "uz", "w")
_MIG_ROW_BYTES = 7 * 4 + 8

#: Per-rank telemetry slots in the shared stats array.
(STAT_PUSH, STAT_FIELD, STAT_WAIT, STAT_MIG_WAIT, STAT_PACK,
 STAT_MSGS, STAT_BYTES, STAT_MIGRATED) = range(8)
N_STATS = 8


class RankWorkerError(RuntimeError):
    """A rank worker process failed; the parent reaped the fleet."""

    def __init__(self, rank: int, step: int | None, message: str,
                 worker_traceback: str = ""):
        self.rank = rank
        self.step = step
        self.worker_traceback = worker_traceback
        where = f"step {step}" if step is not None else "unknown step"
        super().__init__(f"rank {rank} failed at {where}: {message}")


class _RankStepper:
    """One rank's step schedule, executed inside its worker process.

    Holds only references into the shared arena plus immutable
    geometry; the parent builds one per rank before forking, so each
    worker inherits its stepper ready to run.
    """

    def __init__(self, rank: int, rs, nbrs, channels: NeighborChannels,
                 mig_channels: NeighborChannels, field_bufs, mig_f32,
                 mig_i64, mig_count, stats_row, plan, dt, glob, bounds,
                 overlap: bool, use_native: bool, fused: bool,
                 inject_fault=None):
        self.rank = rank
        self.rs = rs
        self.nbrs = nbrs
        self.ch = channels
        self.mig_ch = mig_channels
        self.field_bufs = field_bufs      # (rank, face, phase, parity)
        self.mig_f32 = mig_f32            # (rank, face, species)
        self.mig_i64 = mig_i64
        self.mig_count = mig_count        # int64[n_ranks, 6, n_species]
        self.stats = stats_row            # float64[N_STATS]
        self.plan = plan
        self.dt = dt
        self.glob = glob                  # global box extents
        self.bounds = bounds              # ((x0,x1),(y0,y1),(z0,z1))
        self.overlap = overlap
        self.fused = fused
        self.inject_fault = inject_fault
        self._native = None
        self._prep_push = None
        self._prep_field = None
        if use_native:
            from repro.vpic import native as _native
            self._native = _native
            lib = _native.native_push_kernel()
            if lib is not None:
                # Every pointer in the worker's kernel calls is stable
                # for the life of the rank (arena-backed storage at
                # fixed capacity), so the ctypes argument tuples are
                # marshalled once here, pre-fork.
                self._prep_field = _native.PreparedFieldAdvance(
                    lib, rs.solver)
                if fused and plan.native:
                    self._prep_push = [
                        _native.PreparedSpeciesPush(
                            lib, rs.fields, sp, rs.arena, wrap=False)
                        for sp in rs.species]
        g = rs.grid
        shape = g.shape
        self.data = {name: getattr(rs.fields, name).data
                     for name in _E_NAMES + _B_NAMES + _J_NAMES}
        self.snd = [_boundary_slice(shape, a, h, ghost=False)
                    for a, h in _FACE_AXES]
        self.gst = [_boundary_slice(shape, a, h, ghost=True)
                    for a, h in _FACE_AXES]
        self.deep, self.shells = interior_split(g.nx, g.ny, g.nz)
        #: Whether the overlapped schedule splits the A/E field
        #: advances into deep+shell boxes. The split runs through the
        #: boxed numpy kernels, so it only pays when the rank is on
        #: the numpy lane anyway and the deep box carries most of the
        #: brick; on the native lane a full-box C advance after the
        #: exchange beats hiding a numpy-boxed one inside it.
        self.split_fields = not use_native and self.deep is not None
        self.n_species = len(rs.species)

    # -- field exchange ------------------------------------------------------

    def _post_slabs(self, phase: int, axis: int, names, parity: int
                    ) -> None:
        t0 = time.perf_counter()
        for face in (2 * axis, 2 * axis + 1):
            buf = self.field_bufs[(self.rank, face, phase, parity)]
            snd = self.snd[face]
            for c, name in enumerate(names):
                buf[c] = self.data[name][snd]
            self.ch.publish(self.rank, face)
            self.stats[STAT_MSGS] += 1
            self.stats[STAT_BYTES] += buf.nbytes
        self.stats[STAT_PACK] += time.perf_counter() - t0

    def _wait_slabs(self, phase: int, axis: int, names, parity: int,
                    target: int) -> None:
        for face in (2 * axis, 2 * axis + 1):
            nbr = self.nbrs[face]
            opp = face ^ 1
            self.stats[STAT_WAIT] += self.ch.wait(nbr, opp, target)
            t0 = time.perf_counter()
            buf = self.field_bufs[(nbr, opp, phase, parity)]
            gst = self.gst[face]
            for c, name in enumerate(names):
                self.data[name][gst] = buf[c]
            self.stats[STAT_PACK] += time.perf_counter() - t0

    def _field_exchange(self, phase: int, step: int, during=None) -> None:
        """Axis-sequential ghost exchange of the phase's components;
        *during* (the overlap window) runs after the x-axis slabs are
        posted, while they are in flight."""
        names = _PHASE_NAMES[phase]
        parity = step & 1
        target = 4 * step + phase + 1
        for axis in (0, 1, 2):
            self._post_slabs(phase, axis, names, parity)
            if axis == 0 and during is not None:
                during()
            self._wait_slabs(phase, axis, names, parity, target)

    # -- ghost-current reduction ---------------------------------------------

    def _reduce_currents(self, step: int, during=None) -> None:
        """Fold ghost-layer current spill into the owning neighbor's
        boundary (axis-sequential so corner spill cascades), with the
        x-axis in-flight window available for *during*."""
        parity = step & 1
        target = 4 * step + _PH_J + 1
        for axis in (0, 1, 2):
            t0 = time.perf_counter()
            for face in (2 * axis, 2 * axis + 1):
                buf = self.field_bufs[(self.rank, face, _PH_J, parity)]
                gst = self.gst[face]
                for c, name in enumerate(_J_NAMES):
                    buf[c] = self.data[name][gst]
                    self.data[name][gst] = 0
                self.ch.publish(self.rank, face)
                self.stats[STAT_MSGS] += 1
                self.stats[STAT_BYTES] += buf.nbytes
            self.stats[STAT_PACK] += time.perf_counter() - t0
            if axis == 0 and during is not None:
                during()
            for face in (2 * axis, 2 * axis + 1):
                nbr = self.nbrs[face]
                opp = face ^ 1
                self.stats[STAT_WAIT] += self.ch.wait(nbr, opp, target)
                t0 = time.perf_counter()
                buf = self.field_bufs[(nbr, opp, _PH_J, parity)]
                snd = self.snd[face]
                for c, name in enumerate(_J_NAMES):
                    self.data[name][snd] += buf[c]
                self.stats[STAT_PACK] += time.perf_counter() - t0

    # -- migration -----------------------------------------------------------

    def _post_migration(self, step: int) -> None:
        """Pack leavers per face per species, publish, remove locally
        (same dominant-violation face rule as
        :func:`~repro.mpi.particle_exchange.migrate_particles`)."""
        (x0, x1), (y0, y1), (z0, z1) = self.bounds
        t0 = time.perf_counter()
        for si, sp in enumerate(self.rs.species):
            x, y, z = sp.positions()
            face = np.full(sp.n, -1, dtype=np.int8)
            face[x < x0] = 0
            face[x >= x1] = 1
            face[(face < 0) & (y < y0)] = 2
            face[(face < 0) & (y >= y1)] = 3
            face[(face < 0) & (z < z0)] = 4
            face[(face < 0) & (z >= z1)] = 5
            leaving_all = np.nonzero(face >= 0)[0]
            for f in range(6):
                idx = leaving_all[face[leaving_all] == f]
                k = idx.size
                fbuf = self.mig_f32[(self.rank, f, si)]
                for row, name in enumerate(_MIG_F32):
                    fbuf[row, :k] = sp.live(name)[idx]
                self.mig_i64[(self.rank, f, si)][:k] = sp.live("tag")[idx]
                self.mig_count[self.rank, f, si] = k
                self.mig_ch.publish(self.rank, f)
                self.stats[STAT_MSGS] += 1
                self.stats[STAT_BYTES] += k * _MIG_ROW_BYTES
            if leaving_all.size:
                sp.remove(leaving_all)
                self.stats[STAT_MIGRATED] += leaving_all.size
        self.stats[STAT_PACK] += time.perf_counter() - t0

    def _recv_migration(self, step: int) -> None:
        """Drain the six neighbors' leavers (face order, species in
        deck order — the same deterministic append order as the
        threads backend), wrap into the global periodic box, append."""
        glob = self.glob
        for si, sp in enumerate(self.rs.species):
            target = self.n_species * step + si + 1
            for f in range(6):
                nbr = self.nbrs[f]
                opp = f ^ 1
                self.stats[STAT_MIG_WAIT] += \
                    self.mig_ch.wait(nbr, opp, target)
                k = int(self.mig_count[nbr, opp, si])
                if k == 0:
                    continue
                t0 = time.perf_counter()
                fbuf = self.mig_f32[(nbr, opp, si)]
                px = np.mod(fbuf[0, :k], np.float32(glob[0]))
                py = np.mod(fbuf[1, :k], np.float32(glob[1]))
                pz = np.mod(fbuf[2, :k], np.float32(glob[2]))
                before = sp.n
                sp.append(px, py, pz, fbuf[3, :k], fbuf[4, :k],
                          fbuf[5, :k], fbuf[6, :k])
                sp.tag[before:sp.n] = self.mig_i64[(nbr, opp, si)][:k]
                self.stats[STAT_PACK] += time.perf_counter() - t0
        for sp in self.rs.species:
            sp.update_voxels()

    # -- local kernels -------------------------------------------------------

    def _push(self) -> None:
        t0 = time.perf_counter()
        prep = self._prep_push if not accounting_enabled() else None
        for si, sp in enumerate(self.rs.species):
            if sp.n == 0:
                continue
            if prep is not None:
                prep[si]()
                continue
            if self.fused:
                fused_push_species(self.rs.fields, sp, self.rs.arena,
                                   self.plan, wrap=False)
                continue
            x, y, z = sp.positions()
            ux, uy, uz = sp.momenta()
            ex, ey, ez, bx, by, bz = gather_fields(self.rs.fields, x, y, z)
            boris_push(ux, uy, uz, ex, ey, ez, bx, by, bz,
                       sp.q, sp.m, self.dt)
            deposit_current(self.rs.fields, x, y, z, ux, uy, uz,
                            sp.live("w"), sp.q)
            advance_positions(x, y, z, ux, uy, uz, self.dt)
        self.stats[STAT_PUSH] += time.perf_counter() - t0

    def _advance_b_full(self, frac: float) -> None:
        t0 = time.perf_counter()
        if self._prep_field is not None and frac == 0.5:
            self._prep_field.advance_b()
        elif self._native is None or not self._native.field_advance_b(
                self.rs.solver, frac):
            self.rs.solver.advance_b(frac)
        self.stats[STAT_FIELD] += time.perf_counter() - t0

    def _advance_e_full(self) -> None:
        t0 = time.perf_counter()
        if self._prep_field is not None:
            self._prep_field.advance_e()
        elif self._native is None or not self._native.field_advance_e(
                self.rs.solver, 1.0):
            self.rs.solver.advance_e(1.0)
        self.stats[STAT_FIELD] += time.perf_counter() - t0

    def _advance_b_boxes(self, boxes, frac: float) -> None:
        t0 = time.perf_counter()
        for box in boxes:
            self.rs.solver.advance_b(frac, box=box)
        self.stats[STAT_FIELD] += time.perf_counter() - t0

    def _advance_e_boxes(self, boxes) -> None:
        t0 = time.perf_counter()
        for box in boxes:
            self.rs.solver.advance_e(1.0, box=box)
        self.stats[STAT_FIELD] += time.perf_counter() - t0

    # -- the step ------------------------------------------------------------

    def step(self, s: int) -> None:
        if self.inject_fault is not None and \
                self.inject_fault == (self.rank, s):
            raise RuntimeError(
                f"injected fault on rank {self.rank} at step {s}")
        if self.overlap:
            self._step_overlapped(s)
        else:
            self._step_serialized(s)

    def _step_serialized(self, s: int) -> None:
        """Post-then-wait exchanges, full-interior updates — the
        threads backend's dataflow on the shared-memory substrate."""
        self._field_exchange(_PH_A, s)
        self._advance_b_full(0.5)
        self.rs.fields.clear_currents()
        self._field_exchange(_PH_B, s)
        self._push()
        self._post_migration(s)
        self._recv_migration(s)
        self._reduce_currents(s)
        self._advance_b_full(0.5)
        self._field_exchange(_PH_E, s)
        self._advance_e_full()

    def _step_overlapped(self, s: int) -> None:
        """Interior work runs while halo slabs are in flight.

        Bit-identical to the serialized schedule: the deep interior
        box touches no layer the exchange reads or writes, the
        boundary shell runs only after its ghosts landed, and the
        reorderings (second half-B inside the J window, migration
        drained after the folds) swap operations on disjoint arrays.
        """

        def during_a() -> None:
            # Deep half-B needs no ghosts (Yee stencil reads +1 along
            # one axis) and writes no boundary layer the y/z rounds
            # still have to pack; the current clear is independent.
            if self.split_fields:
                t0 = time.perf_counter()
                self.rs.solver.advance_b(0.5, box=self.deep)
                self.stats[STAT_FIELD] += time.perf_counter() - t0
            self.rs.fields.clear_currents()

        self._field_exchange(_PH_A, s, during=during_a)
        if self.split_fields:
            self._advance_b_boxes(self.shells, 0.5)
        else:
            self._advance_b_full(0.5)
        # The pre-push B exchange has no independent interior work
        # left to hide (the push needs corner-complete ghosts).
        self._field_exchange(_PH_B, s)
        self._push()
        # Leavers go out immediately; the J folds and second half-B
        # run while neighbors' migrants are in flight.
        self._post_migration(s)
        self._reduce_currents(
            s, during=lambda: self._advance_b_full(0.5))
        self._recv_migration(s)

        def during_e() -> None:
            if self.split_fields:
                t0 = time.perf_counter()
                self.rs.solver.advance_e(1.0, box=self.deep)
                self.stats[STAT_FIELD] += time.perf_counter() - t0

        self._field_exchange(_PH_E, s, during=during_e)
        if self.split_fields:
            self._advance_e_boxes(self.shells)
        else:
            self._advance_e_full()


def _reap(procs, conns, arena) -> None:
    """Terminate workers, join, drop pipes, release the arena.

    Module-level so a ``weakref.finalize`` can hold it without
    keeping the backend alive; idempotent.
    """
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():
            p.kill()
            p.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    arena.close()


class ProcessBackend:
    """Forked rank workers over one shared arena, driven by pipes.

    Built against an already-initialized
    :class:`~repro.mpi.distributed.DistributedSimulation`: rank state
    is relocated into shared memory (the parent keeps reading the
    same views for guard checks, telemetry, and collective
    reductions), one worker process is forked per rank, and
    :meth:`run_steps` commands all workers and waits for the batch.
    Worker telemetry accumulates in a shared stats array the parent
    folds into the kernel timers / rank profiler / message log after
    every batch.
    """

    def __init__(self, dsim, overlap: bool = True, inject_fault=None):
        import multiprocessing as mp
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "backend='processes' needs the fork start method "
                "(POSIX); use backend='threads' on this platform"
            ) from None
        self._dsim = dsim
        self.overlap = overlap
        self.n_ranks = dsim.n_ranks
        plan = dsim.plan
        self._use_native = not plan.reference and plan.native
        if self._use_native:
            # Build/load the native lane once, before forking, so
            # every worker inherits the loaded library instead of
            # racing to compile it.
            from repro.vpic.native import native_available
            native_available()
        self._fused = dsim._fused_push_ok()
        self.arena = SharedArena()
        self._reserve_layout(dsim)
        self.arena.allocate()
        self._adopt_shared_state(dsim)
        self.stats = self.arena.get("stats")
        self._stats_seen = np.zeros_like(self.stats)
        abort = self.arena.get("abort")
        # One semaphore per channel (created pre-fork, inherited):
        # consumers block in the kernel instead of spinning, which on
        # an oversubscribed host gives the producing rank the CPU.
        n_ch = self.n_ranks * 6
        self.channels = NeighborChannels(
            self.arena.get("seq/field"), abort,
            sems=[ctx.Semaphore(0) for _ in range(n_ch)])
        self.mig_channels = NeighborChannels(
            self.arena.get("seq/mig"), abort,
            sems=[ctx.Semaphore(0) for _ in range(n_ch)])
        self._steppers = [self._build_stepper(dsim, r, inject_fault)
                          for r in range(self.n_ranks)]
        self._steps = 0
        self._closed = False
        self.rank_lanes: list[tuple[str, str | None]] = []
        self._spawn_workers(ctx)

    # -- construction --------------------------------------------------------

    def _reserve_layout(self, dsim) -> None:
        arena = self.arena
        n_sp = len(dsim.deck.species)
        shape = dsim.ranks[0].grid.shape
        slab_cells = {0: shape[1] * shape[2], 1: shape[0] * shape[2],
                      2: shape[0] * shape[1]}
        for r in range(self.n_ranks):
            for name in _E_NAMES + _B_NAMES + _J_NAMES:
                arena.reserve(f"f/{r}/{name}", shape, np.float32)
            for si, sp in enumerate(dsim.ranks[r].species):
                for attr, sh, dt in SharedSpecies.array_specs(sp.capacity):
                    arena.reserve(f"sp/{r}/{si}/{attr}", sh, dt)
                arena.reserve(f"sp/{r}/{si}/state",
                              (SharedSpecies.STATE_SLOTS,), np.int64)
                for f in range(6):
                    arena.reserve(f"mig/{r}/{f}/{si}/f32",
                                  (7, sp.capacity), np.float32)
                    arena.reserve(f"mig/{r}/{f}/{si}/i64",
                                  (sp.capacity,), np.int64)
            for f in range(6):
                axis = f // 2
                d1d2 = slab_cells[axis]
                for phase, names in _PHASE_NAMES.items():
                    sub = (shape[1], shape[2]) if axis == 0 else \
                          (shape[0], shape[2]) if axis == 1 else \
                          (shape[0], shape[1])
                    assert sub[0] * sub[1] == d1d2
                    for parity in (0, 1):
                        arena.reserve(
                            f"mb/{r}/{f}/{phase}/{parity}",
                            (len(names),) + sub, np.float32)
        arena.reserve("seq/field", (self.n_ranks, 6), np.int64)
        arena.reserve("seq/mig", (self.n_ranks, 6), np.int64)
        arena.reserve("mig/count", (self.n_ranks, 6, n_sp), np.int64)
        arena.reserve("abort", (1,), np.int64)
        arena.reserve("stats", (self.n_ranks, N_STATS), np.float64)

    def _adopt_shared_state(self, dsim) -> None:
        """Relocate every rank's fields and species into the arena.

        Field views are repointed in place (solver and FieldArrays
        objects keep working unchanged); species are rebuilt as
        :class:`SharedSpecies` copies of the loaded prototypes.
        """
        for r, rs in enumerate(dsim.ranks):
            for name in _E_NAMES + _B_NAMES + _J_NAMES:
                view = getattr(rs.fields, name)
                shared = self.arena.get(f"f/{r}/{name}")
                shared[...] = view.data
                view._data = shared
            for si, sp in enumerate(rs.species):
                arrays = {attr: self.arena.get(f"sp/{r}/{si}/{attr}")
                          for attr in SharedSpecies._ARRAYS}
                state = self.arena.get(f"sp/{r}/{si}/state")
                rs.species[si] = SharedSpecies(sp, arrays, state)

    def _build_stepper(self, dsim, rank: int, inject_fault) -> _RankStepper:
        decomp = dsim.decomp
        cell = dsim.cell
        ox, oy, oz = decomp.local_origin(rank, *cell)
        lx, ly, lz = decomp.local_shape
        bounds = ((ox, ox + lx * cell[0]), (oy, oy + ly * cell[1]),
                  (oz, oz + lz * cell[2]))
        glob = (decomp.global_nx * cell[0], decomp.global_ny * cell[1],
                decomp.global_nz * cell[2])
        field_bufs = {}
        mig_f32 = {}
        mig_i64 = {}
        n_sp = len(dsim.deck.species)
        for r in range(self.n_ranks):
            for f in range(6):
                for phase in _PHASE_NAMES:
                    for parity in (0, 1):
                        field_bufs[(r, f, phase, parity)] = \
                            self.arena.get(f"mb/{r}/{f}/{phase}/{parity}")
                for si in range(n_sp):
                    mig_f32[(r, f, si)] = \
                        self.arena.get(f"mig/{r}/{f}/{si}/f32")
                    mig_i64[(r, f, si)] = \
                        self.arena.get(f"mig/{r}/{f}/{si}/i64")
        return _RankStepper(
            rank, dsim.ranks[rank], decomp.neighbors(rank),
            self.channels, self.mig_channels, field_bufs, mig_f32,
            mig_i64, self.arena.get("mig/count"),
            self.stats[rank], dsim.plan, dsim.dt, glob, bounds,
            overlap=self.overlap, use_native=self._use_native,
            fused=self._fused, inject_fault=inject_fault)

    def _spawn_workers(self, ctx) -> None:
        import weakref
        pipes = [ctx.Pipe(duplex=True) for _ in range(self.n_ranks)]
        self._conns = [p for p, _ in pipes]
        child_conns = [c for _, c in pipes]
        self._procs = []
        for r in range(self.n_ranks):
            p = ctx.Process(target=self._worker_main,
                            args=(r, child_conns[r]),
                            name=f"rank-worker-{r}", daemon=True)
            p.start()
            self._procs.append(p)
        for c in child_conns:
            c.close()
        self._finalizer = weakref.finalize(
            self, _reap, self._procs, self._conns, self.arena)
        for rep in self._collect(expect="ready"):
            if rep[0] == "error":
                self._fail(rep)
            self.rank_lanes.append((rep[2], rep[3]))

    # -- worker side ---------------------------------------------------------

    def _worker_main(self, rank: int, conn) -> None:
        # Forked child: inherits the parent's tools/timers — drop
        # them so worker kernels run clean; all telemetry flows
        # through the shared stats array instead.
        step = self._steps
        try:
            from repro.observability.callbacks import clear_tools
            clear_tools()
            for other in self._conns:
                try:
                    other.close()
                except OSError:
                    pass
            conn.send(("ready", rank) + self._worker_lane())
            stepper = self._steppers[rank]
            while True:
                msg = conn.recv()
                if msg[0] == "run":
                    for _ in range(msg[1]):
                        stepper.step(step)
                        step += 1
                    conn.send(("done", rank, step))
                elif msg[0] == "exit":
                    break
        except BaseException as exc:  # noqa: BLE001 — must reach parent
            self.channels.request_abort()
            try:
                conn.send(("error", rank, step,
                           f"{type(exc).__name__}: {exc}",
                           traceback.format_exc()))
            except Exception:
                pass
        finally:
            os._exit(0)

    def _worker_lane(self) -> tuple[str, str | None]:
        """(lane, fallback reason) as this worker will actually run."""
        plan = self._dsim.plan
        if plan.reference:
            return "reference", "plan.reference selects the reference kernels"
        if self._use_native:
            from repro.vpic.native import native_available, native_status
            if native_available():
                return "native-push", None
            return "numpy-fused", f"native lane unavailable: {native_status()}"
        if not self._fused:
            return "numpy-fused", "fused push ineligible (plan.fused off)"
        return "numpy-fused", "plan.native disabled"

    # -- parent side ---------------------------------------------------------

    def _collect(self, expect: str = "done") -> list[tuple]:
        """One reply per rank, surviving worker death: a rank that
        exits without replying yields a synthesized error tuple."""
        replies: list[tuple | None] = [None] * self.n_ranks
        pending = set(range(self.n_ranks))
        while pending:
            for r in list(pending):
                conn = self._conns[r]
                if conn.poll(0.02):
                    try:
                        replies[r] = conn.recv()
                    except EOFError:
                        replies[r] = ("error", r, None,
                                      "worker pipe closed unexpectedly", "")
                        self.channels.request_abort()
                    pending.discard(r)
                elif not self._procs[r].is_alive():
                    if conn.poll(0):
                        continue        # reply raced the exit; re-poll
                    replies[r] = ("error", r, None,
                                  "worker died with exit code "
                                  f"{self._procs[r].exitcode}", "")
                    self.channels.request_abort()
                    pending.discard(r)
        return replies  # type: ignore[return-value]

    def _fail(self, *error_replies) -> None:
        """Reap the fleet and raise the primary (lowest-rank real)
        failure as :class:`RankWorkerError`."""
        self._closed = True
        self._finalizer()
        real = [rep for rep in error_replies
                if "ChannelAborted" not in rep[3]]
        primary = min(real or error_replies, key=lambda rep: rep[1])
        raise RankWorkerError(primary[1], primary[2], primary[3],
                              primary[4])

    def run_steps(self, k: int) -> None:
        """Command every worker to advance *k* steps; waits for the
        whole fleet and folds the batch's telemetry."""
        if self._closed:
            raise RuntimeError("processes backend already closed")
        if k <= 0:
            return
        for conn in self._conns:
            conn.send(("run", k))
        replies = self._collect()
        errors = [rep for rep in replies if rep[0] == "error"]
        if errors:
            self._fail(*errors)
        self._steps += k
        self._fold_stats()

    def _fold_stats(self) -> None:
        """Credit the batch's worker-side telemetry to the parent's
        kernel timers (rank-scoped, so RankProfiler lanes and the
        time-series phase split see distributed work) and fold the
        message tallies into the world log."""
        from repro.kokkos.profiling import add_kernel_time
        from repro.observability.rank_profile import rank_scope
        delta = self.stats - self._stats_seen
        self._stats_seen = self.stats.copy()
        log = self._dsim.world.log
        for r in range(self.n_ranks):
            d = delta[r]
            with rank_scope(r):
                if d[STAT_PUSH] > 0:
                    add_kernel_time("push/particles", float(d[STAT_PUSH]))
                if d[STAT_FIELD] > 0:
                    add_kernel_time("field/advance", float(d[STAT_FIELD]))
                if d[STAT_WAIT] > 0:
                    add_kernel_time("halo/wait", float(d[STAT_WAIT]),
                                    kind="comm")
                if d[STAT_MIG_WAIT] > 0:
                    add_kernel_time("migrate/wait",
                                    float(d[STAT_MIG_WAIT]), kind="comm")
                if d[STAT_PACK] > 0:
                    add_kernel_time("halo/pack", float(d[STAT_PACK]),
                                    kind="comm")
            log.record_aggregate(r, int(d[STAT_MSGS]), int(d[STAT_BYTES]))
        self.rank_report()   # refreshes the imbalance/halo-wait gauges

    def rank_report(self):
        """Cumulative per-rank time split measured by the workers
        (the processes-backend equivalent of
        :meth:`~repro.observability.rank_profile.RankProfiler.report`);
        also exports the two summary gauges."""
        from repro.observability.rank_profile import report_from_components
        s = self.stats
        return report_from_components(
            push=s[:, STAT_PUSH],
            comm=s[:, STAT_WAIT] + s[:, STAT_MIG_WAIT] + s[:, STAT_PACK],
            field=s[:, STAT_FIELD],
            other=np.zeros(self.n_ranks))

    def halo_wait_seconds(self) -> float:
        """Total time ranks spent blocked on neighbors (halo +
        migration waits) — the quantity overlap exists to shrink."""
        return float(self.stats[:, STAT_WAIT].sum()
                     + self.stats[:, STAT_MIG_WAIT].sum())

    def close(self) -> None:
        """Graceful shutdown: ask workers to exit, then reap."""
        if self._closed:
            self._finalizer()
            return
        self._closed = True
        for r, conn in enumerate(self._conns):
            if self._procs[r].is_alive():
                try:
                    conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
        for p in self._procs:
            p.join(timeout=2.0)
        self._finalizer()
