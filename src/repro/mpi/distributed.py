"""Distributed PIC runs: one deck, many ranks, real exchanges.

This driver runs a deck decomposed across a simulated MPI world: each
rank owns a brick of the global grid with its own
:class:`~repro.vpic.simulation.Simulation`-style state, and each step
performs the halo exchanges and particle migration a real VPIC run
does. It exists to exercise the full distributed pipeline (the tests
compare conserved quantities against single-rank runs) and to let the
cost model price *measured* message logs rather than estimates.

The step keeps VPIC's ordering: local field half-advance, push,
particle migration, ghost-current reduction, field completion, and
E/B ghost refresh.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.tuning import StepPlan
from repro.kokkos.atomics import accounting_enabled
from repro.mpi.comm import World
from repro.mpi.decomposition import CartDecomposition
from repro.mpi.halo import exchange_ghost_cells, reduce_ghost_sums
from repro.mpi.particle_exchange import migrate_particles
from repro.observability.callbacks import interposing_tools
from repro.observability.rank_profile import rank_activity
from repro.vpic.boris import advance_positions, boris_push
from repro.vpic.deck import Deck, DepositionKind
from repro.vpic.deposit import deposit_current
from repro.vpic.fastpath import fused_push_species
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid
from repro.vpic.interpolate import gather_fields
from repro.vpic.particles import load_maxwellian, load_uniform
from repro.vpic.scratch import ScratchArena
from repro.vpic.species import Species

__all__ = ["DistributedSimulation", "RankState"]

#: Upper bound on concurrent rank-stepping threads. Rank counts above
#: this share threads; determinism is unaffected (ranks touch
#: disjoint state between barriers).
MAX_RANK_THREADS = 8

_E_NAMES = ("ex", "ey", "ez")
_B_NAMES = ("bx", "by", "bz")
_J_NAMES = ("jx", "jy", "jz")


@dataclass
class RankState:
    """One rank's local grid, fields, and species."""

    rank: int
    grid: Grid
    fields: FieldArrays
    solver: FieldSolver
    species: list[Species]
    #: Per-rank scratch for the fused push lane — ranks step
    #: concurrently, so scratch must never be shared across them.
    arena: ScratchArena = field(default_factory=ScratchArena)


class DistributedSimulation:
    """A deck decomposed over a simulated MPI world."""

    def __init__(self, deck: Deck, n_ranks: int, guard=None,
                 plan: StepPlan | None = None,
                 backend: str = "threads", overlap: bool = True,
                 _inject_fault=None):
        if deck.field_init is not None or deck.perturbation is not None:
            raise ValueError(
                "distributed driver supports plain decks (no field_init/"
                "perturbation callables, which assume a global grid)")
        if deck.deposition is not DepositionKind.CIC:
            # The rank push kernels deposit CIC; running them here
            # would silently swap the deck's scheme. Esirkepov's
            # periodic-image node wrap assumes a single-ghost periodic
            # box, which a brick with externally owned ghosts is not.
            raise ValueError(
                f"distributed driver deposits CIC only; deck "
                f"{deck.name!r} declares {deck.deposition.value} "
                f"deposition")
        if backend not in ("threads", "processes"):
            raise ValueError(
                f"backend must be 'threads' or 'processes', got {backend!r}")
        self.deck = deck
        self.world = World(n_ranks)
        self.decomp = CartDecomposition.create(
            deck.nx, deck.ny, deck.nz, n_ranks)
        self.cell = (deck.dx, deck.dy, deck.dz)
        lx, ly, lz = self.decomp.local_shape
        # A shared timestep: all bricks have identical cells.
        ref_grid = Grid(lx, ly, lz, deck.dx, deck.dy, deck.dz, dt=deck.dt)
        self.dt = ref_grid.dt
        self.ranks: list[RankState] = []
        for r in range(n_ranks):
            ox, oy, oz = self.decomp.local_origin(r, *self.cell)
            grid = Grid(lx, ly, lz, deck.dx, deck.dy, deck.dz,
                        x0=ox, y0=oy, z0=oz, dt=self.dt)
            fields = FieldArrays(grid)
            species = []
            for i, cfg in enumerate(deck.species):
                sp = Species(cfg.name, cfg.q, cfg.m, grid,
                             capacity=max(1024, 2 * cfg.ppc * grid.n_cells))
                if cfg.uth > 0 or any(cfg.drift):
                    load_maxwellian(sp, cfg.ppc, cfg.uth, cfg.drift,
                                    cfg.weight,
                                    seed=deck.seed + i * 7919 + r)
                else:
                    load_uniform(sp, cfg.ppc, cfg.weight,
                                 seed=deck.seed + i * 7919 + r)
                species.append(sp)
            self.ranks.append(RankState(
                r, grid, fields,
                FieldSolver(fields, external_ghosts=True), species))
        self.step_count = 0
        #: Optional :class:`~repro.validate.guard.RankGuard`: per-rank
        #: structural checks at the end of every collective step. A
        #: rank violation aborts the step deterministically (all
        #: ranks are checked, then the lowest-rank violation raises).
        self.guard = guard
        #: Step-path selection; ``threaded_ranks`` fans the
        #: independent per-rank kernel loops out over a persistent
        #: thread pool (ranks touch disjoint state between the serial
        #: exchange/reduce barriers, so results are bit-identical to
        #: serial stepping).
        self.plan = plan if plan is not None else StepPlan()
        #: Optional live-telemetry recorder (same protocol as on
        #: :class:`~repro.vpic.simulation.Simulation`): sampled after
        #: every collective step with per-rank particle aggregates.
        self.recorder = None
        self._pool: ThreadPoolExecutor | None = None
        #: Exchange schedule selection: threads ranks in one process
        #: under serialized collective barriers (the bit-identity
        #: reference); processes forks one worker per rank over a
        #: shared-memory arena with the overlapped halo schedule.
        self.backend = backend
        self.overlap = overlap
        self._pbackend = None
        if backend == "processes":
            from repro.mpi.process_backend import ProcessBackend
            self._pbackend = ProcessBackend(self, overlap=overlap,
                                            inject_fault=_inject_fault)

    def close(self) -> None:
        """Shut down the rank workers / thread pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pbackend is not None:
            self._pbackend.close()

    # -- collective views ----------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return self.world.size

    def total_particles(self) -> int:
        return sum(sp.n for rs in self.ranks for sp in rs.species)

    def total_kinetic_energy(self) -> float:
        return sum(sp.kinetic_energy()
                   for rs in self.ranks for sp in rs.species)

    def total_field_energy(self) -> tuple[float, float]:
        e = b = 0.0
        for rs in self.ranks:
            ei, bi = rs.fields.field_energy()
            e += ei
            b += bi
        return e, b

    def total_momentum(self) -> np.ndarray:
        return sum((sp.momentum_total()
                    for rs in self.ranks for sp in rs.species),
                   start=np.zeros(3))

    # -- exchanges -----------------------------------------------------------------

    def _component_arrays(self, names) -> list[list[np.ndarray]]:
        return [[getattr(rs.fields, n).data for rs in self.ranks]
                for n in names]

    def _exchange_fields(self, names) -> None:
        for arrays in self._component_arrays(names):
            exchange_ghost_cells(self.world, self.decomp, arrays)

    def _reduce_currents(self) -> None:
        for arrays in self._component_arrays(_J_NAMES):
            reduce_ghost_sums(self.world, self.decomp, arrays)

    def _migrate(self) -> int:
        moved = 0
        for si in range(len(self.deck.species)):
            per_rank = [rs.species[si] for rs in self.ranks]
            moved += migrate_particles(self.world, self.decomp, per_rank,
                                       self.cell)
        # Positions moved between ranks; voxels are rank-local.
        for rs in self.ranks:
            for sp in rs.species:
                sp.update_voxels()
        return moved

    # -- the distributed step ----------------------------------------------------------

    def _threading_ok(self) -> bool:
        """Whether this step may fan ranks out over threads.

        Threading is plan-gated and disabled whenever an *interposing*
        observability tool or atomic-contention accounting is live:
        those record into shared per-process state whose event order
        matters more than overlapping rank loops.
        Telemetry-compatible tools (``native_telemetry_ok`` — order-
        independent accumulation, per-thread trace lanes) keep the
        threaded fan-out, so a traced run measures the production
        step, not a serialized stand-in.
        """
        return (self.plan.threaded_ranks
                and not self.plan.reference
                and self.world.size > 1
                and not interposing_tools()
                and not accounting_enabled())

    def _for_each_rank(self, fn) -> None:
        """Run *fn(rank_state)* for every rank, threaded when allowed.

        Ranks touch only their own state between barriers, so the
        threaded fan-out is bit-identical to the serial loop; the
        ``list()`` drains the map so any rank exception re-raises
        here, lowest rank first.
        """
        if not self._threading_ok():
            for rs in self.ranks:
                fn(rs)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=min(MAX_RANK_THREADS, self.world.size),
                thread_name_prefix="rank-step")
        list(self._pool.map(fn, self.ranks))

    def _fused_push_ok(self) -> bool:
        """Whether ranks may push through the fused lane.

        Positions and momenta are bit-identical to the reference
        kernel sequence (no wrap is involved — migration handles
        boundaries); deposited currents agree to 1 ulp (float64
        accumulation instead of the reference's float32).
        """
        return not self.plan.reference and self.plan.fused

    def _rank_push(self, rs: RankState) -> None:
        """One rank's particle phase.

        The fused (optionally native) lane when the plan allows —
        positions are left unwrapped for the migration phase — and the
        reference kernel sequence otherwise.
        """
        fused = self._fused_push_ok()
        for sp in rs.species:
            if sp.n == 0:
                continue
            with rank_activity(rs.rank, f"push/{sp.name}"):
                if fused:
                    fused_push_species(rs.fields, sp, rs.arena,
                                       self.plan, wrap=False)
                    continue
                x, y, z = sp.positions()
                ux, uy, uz = sp.momenta()
                ex, ey, ez, bx, by, bz = gather_fields(
                    rs.fields, x, y, z)
                boris_push(ux, uy, uz, ex, ey, ez, bx, by, bz,
                           sp.q, sp.m, self.dt)
                deposit_current(rs.fields, x, y, z, ux, uy, uz,
                                sp.live("w"), sp.q)
                advance_positions(x, y, z, ux, uy, uz, self.dt)

    def _threads_lane(self) -> tuple[str, str | None]:
        """(lane, fallback reason) the threads backend runs per rank."""
        from repro.vpic.native import native_available, native_status
        if self.plan.reference:
            return "reference", "plan.reference selects the reference kernels"
        if self.plan.native:
            if native_available():
                return "native-push", None
            return "numpy-fused", f"native lane unavailable: {native_status()}"
        if not self._fused_push_ok():
            return "numpy-fused", "fused push ineligible (plan.fused off)"
        return "numpy-fused", "plan.native disabled"

    def rank_lanes(self) -> list[tuple[str, str | None]]:
        """Per-rank ``(lane, fallback_reason)`` as the ranks actually
        run. The threads backend computes one lane in-process (all
        ranks share it); the processes backend reports what each
        worker observed at fork handshake — a rank silently demoted
        (e.g. native build failed in its environment) shows up here.
        """
        if self._pbackend is not None:
            return list(self._pbackend.rank_lanes)
        return [self._threads_lane()] * self.n_ranks

    def native_fallback_reason(self) -> str | None:
        """Why this run is not on the whole-step native lane.

        Distributed runs never are — the step interleaves per-rank
        kernels with halo exchanges the whole-step lane cannot
        express — so this always returns a reason; the per-rank
        push/field lanes in :meth:`rank_lanes` may still be native.
        """
        lanes = self.rank_lanes()
        kinds = {lane for lane, _ in lanes}
        per_rank = kinds.pop() if len(kinds) == 1 else "mixed"
        return (f"distributed step interleaves rank exchanges; "
                f"per-rank lane is {per_rank} "
                f"({self.backend} backend, {self.n_ranks} ranks)")

    def _step_processes(self, k: int) -> None:
        """Advance *k* steps on the processes backend (one command to
        the whole worker fleet) and run the parent-side per-step
        bookkeeping."""
        t0 = time.perf_counter()
        self._pbackend.run_steps(k)
        self.step_count += k
        from repro.observability.metrics import default_registry
        lanes = self._pbackend.rank_lanes
        lane = lanes[0][0] if lanes else "numpy-fused"
        default_registry().counter(f"step_lane/{lane}").inc(k)
        if self.recorder is not None:
            self.recorder.on_step(self, (time.perf_counter() - t0) / k)
        if self.guard is not None:
            self.guard.check_step(self)

    def step(self) -> None:
        """One full distributed timestep (VPIC ordering).

        The independent per-rank kernel loops (field half-advances,
        pushes, E advance) run through :meth:`_for_each_rank` — a
        persistent thread pool when the plan allows, serial otherwise;
        exchanges, migration, and ghost reductions stay serial at the
        barriers so the collective ordering is deterministic either
        way. Each rank's local work runs under a
        :func:`~repro.observability.rank_profile.rank_activity`
        marker, so a registered profiler sees one lane per rank; with
        no tool attached the markers are a shared no-op context.
        """
        if self._pbackend is not None:
            self._step_processes(1)
            return

        # Field advances go through the native Yee kernels when the
        # plan allows and a compiled lane exists (bit-identical to the
        # numpy solver; under external_ghosts no sync is involved).
        # The ctypes calls release the GIL, so threaded ranks overlap
        # their field updates too.
        use_native = not self.plan.reference and self.plan.native
        if use_native:
            from repro.vpic import native as _native
        else:
            _native = None

        def half_b_and_clear(rs: RankState) -> None:
            with rank_activity(rs.rank, "field/advance_b"):
                if _native is None or not _native.field_advance_b(
                        rs.solver, 0.5):
                    rs.solver.advance_b(0.5)
                rs.fields.clear_currents()

        def half_b(rs: RankState) -> None:
            with rank_activity(rs.rank, "field/advance_b"):
                if _native is None or not _native.field_advance_b(
                        rs.solver, 0.5):
                    rs.solver.advance_b(0.5)

        def full_e(rs: RankState) -> None:
            with rank_activity(rs.rank, "field/advance_e"):
                if _native is None or not _native.field_advance_e(
                        rs.solver, 1.0):
                    rs.solver.advance_e(1.0)

        t0 = time.perf_counter()
        self._exchange_fields(_E_NAMES + _B_NAMES)
        self._for_each_rank(half_b_and_clear)
        self._exchange_fields(_B_NAMES)
        self._for_each_rank(self._rank_push)
        with rank_activity(None, "migrate", kind="comm"):
            self._migrate()
        self._reduce_currents()
        self._for_each_rank(half_b)
        self._exchange_fields(_E_NAMES)
        self._for_each_rank(full_e)
        self.step_count += 1
        from repro.observability.metrics import default_registry
        from repro.vpic.native import native_available
        lane = ("reference" if self.plan.reference
                else "native-push" if use_native and native_available()
                else "numpy-fused")
        default_registry().counter(f"step_lane/{lane}").inc()
        if self.recorder is not None:
            self.recorder.on_step(self, time.perf_counter() - t0)
        if self.guard is not None:
            self.guard.check_step(self)

    def run(self, num_steps: int) -> None:
        if self.recorder is not None:
            self.recorder.on_run_start(self, num_steps)
        try:
            if (self._pbackend is not None and self.recorder is None
                    and self.guard is None):
                # No per-step parent work pending: command the whole
                # batch at once so workers free-run without a
                # round-trip per step.
                self._step_processes(num_steps)
            else:
                for _ in range(num_steps):
                    self.step()
        except BaseException as exc:
            if self.recorder is not None:
                self.recorder.on_crash(self, exc)
            raise
