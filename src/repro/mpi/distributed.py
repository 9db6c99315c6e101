"""Distributed PIC runs: one deck, many ranks, real exchanges.

This driver runs a deck decomposed across a simulated MPI world: each
rank owns a brick of the global grid with its own
:class:`~repro.vpic.simulation.Simulation`-style state, and each step
performs the halo exchanges and particle migration a real VPIC run
does. It exists to exercise the full distributed pipeline (the tests
compare conserved quantities against single-rank runs) and to let the
cost model price *measured* message logs rather than estimates.

The step is written once, as data: :data:`STEP` lists the rank-local
kernels in VPIC's order (half-B, push, half-B, full E) and, between
them, every exchange with the components it carries — E/B ghosts
before the first half-B, B ghosts before the push, particle
migration, the ghost-current fold, and B ghosts after the second
half-B, so the E advance reads current B across brick faces. The
threads backend walks it directly; the processes backend
(:mod:`repro.mpi.process_backend`) walks :func:`schedule`'s post/wait
split of it, serialized or overlapped. A fields-only run is therefore
byte-identical to the single-domain
:class:`~repro.vpic.simulation.Simulation` on the interior.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

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
from repro.vpic.boundary import BoundaryKind
from repro.vpic.deck import Deck, DepositionKind, FieldBoundaryKind
from repro.vpic.deposit import deposit_current
from repro.vpic.fastpath import fused_push_species
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid
from repro.vpic.interpolate import gather_fields
from repro.vpic.particles import load_maxwellian, load_uniform
from repro.vpic.scratch import ScratchArena
from repro.vpic.simulation import Lane, resolve_lane
from repro.vpic.species import Species

__all__ = ["DistributedSimulation", "Exchange", "Kernel", "RankState",
           "STEP", "schedule"]

#: Upper bound on concurrent rank-stepping threads. Rank counts above
#: this share threads; determinism is unaffected (ranks touch
#: disjoint state between barriers).
MAX_RANK_THREADS = 8

_E_NAMES = ("ex", "ey", "ez")
_B_NAMES = ("bx", "by", "bz")
_J_NAMES = ("jx", "jy", "jz")
#: The rank's particle arrays, as a payload and as a kernel operand.
_PARTICLES = ("particles",)


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
    #: Pre-marshalled native push per species, set only by the
    #: processes backend, whose arena-backed species never reallocate.
    prepared_push: list | None = None
    #: What :func:`~repro.vpic.simulation.resolve_lane` reads of a deck
    #: besides grid, fields and solver: a rank deposits CIC, its
    #: particles leave through the migration and it has no sources.
    deposition: ClassVar = DepositionKind.CIC
    boundary: ClassVar = BoundaryKind.PERIODIC
    field_boundary: ClassVar = FieldBoundaryKind.PERIODIC
    sources: ClassVar = ()


# -- the step, written once ------------------------------------------


def rank_push(rs: RankState, lane: Lane) -> None:
    """One rank's particle phase on *lane*; positions are left
    unwrapped for the migration.

    A native push takes the rank's pre-marshalled calls when it has
    them, a fused push :func:`~repro.vpic.fastpath.fused_push_species`
    (native or numpy as the lane says) — positions and momenta
    bit-identical to the reference sequence, currents to 1 ulp
    (float64 accumulation) — and any other lane the reference kernel
    sequence.
    """
    for si, sp in enumerate(rs.species):
        if sp.n == 0:
            continue
        with rank_activity(rs.rank, f"push/{sp.name}"):
            if lane.native_push and rs.prepared_push is not None:
                rs.prepared_push[si]()
            elif lane.fused:
                fused_push_species(rs.fields, sp, rs.arena, lane,
                                   wrap=False)
            else:
                x, y, z = sp.positions()
                ux, uy, uz = sp.momenta()
                ex, ey, ez, bx, by, bz = gather_fields(rs.fields, x, y, z)
                boris_push(ux, uy, uz, ex, ey, ez, bx, by, bz,
                           sp.q, sp.m, rs.grid.dt)
                deposit_current(rs.fields, x, y, z, ux, uy, uz,
                                sp.live("w"), sp.q)
                advance_positions(x, y, z, ux, uy, uz, rs.grid.dt)


def _clear_currents(rs: RankState, lane: Lane) -> None:
    with rank_activity(rs.rank, "field/clear_j"):
        rs.fields.clear_currents()


def _half_advance_b(rs: RankState, lane: Lane) -> None:
    with rank_activity(rs.rank, "field/advance_b"):
        rs.solver.advance_b(0.5)


def _advance_e(rs: RankState, lane: Lane) -> None:
    with rank_activity(rs.rank, "field/advance_e"):
        rs.solver.advance_e(1.0)


@dataclass(frozen=True)
class Exchange:
    """A collective point of the step and what it carries.

    ``ghosts`` fills the carried components' ghost layers from the
    neighbors' boundary layers; ``fold`` sums the carried currents'
    ghost spill into the owning neighbor's boundary and zeroes it;
    ``migrate`` hands particles that left the brick to their new rank.
    """

    kind: str
    carries: tuple[str, ...]


@dataclass(frozen=True)
class Kernel:
    """A rank-local phase: ``run(rank_state, lane)`` and every array it
    reads or writes (what decides which exchanges it may overlap)."""

    run: Callable[[RankState, Lane], None]
    touches: tuple[str, ...]


#: One distributed timestep. Both backends and both processes-backend
#: schedules execute this tuple; the components each exchange carries
#: are written here and nowhere else.
STEP = (
    Exchange("ghosts", _E_NAMES + _B_NAMES),
    Kernel(_clear_currents, _J_NAMES),
    Kernel(_half_advance_b, _E_NAMES + _B_NAMES),
    Exchange("ghosts", _B_NAMES),
    Kernel(rank_push, _E_NAMES + _B_NAMES + _J_NAMES + _PARTICLES),
    Exchange("migrate", _PARTICLES),
    Exchange("fold", _J_NAMES),
    Kernel(_half_advance_b, _E_NAMES + _B_NAMES),
    Exchange("ghosts", _B_NAMES),
    Kernel(_advance_e, _E_NAMES + _B_NAMES + _J_NAMES),
)


def _waits_before(phase, exchange: Exchange) -> bool:
    """Whether *exchange* must complete before *phase* starts: the
    phase touches what it carries, or is an exchange on the same
    channel (ghosts and folds share one, migration has its own)."""
    touches = (phase.carries if isinstance(phase, Exchange)
               else phase.touches)
    same_channel = (isinstance(phase, Exchange)
                    and (phase.kind == "migrate")
                    == (exchange.kind == "migrate"))
    return same_channel or not set(touches).isdisjoint(exchange.carries)


def schedule(overlap: bool) -> tuple[tuple[str, int], ...]:
    """:data:`STEP` as ``(action, index)`` pairs for a rank that posts
    and waits on its own: ``post``/``wait`` for an exchange, ``run``
    for a kernel.

    Serialized, every exchange completes before the next phase. With
    *overlap* an exchange completes only before the first later phase
    that :func:`_waits_before` it, so the phases in between run while
    its messages are in flight. Either way every phase sees the same
    data, so both orders give the same bytes.
    """
    actions: list[tuple[str, int]] = []
    pending: list[int] = []
    for i, phase in enumerate(STEP):
        for j in [j for j in pending
                  if not overlap or _waits_before(phase, STEP[j])]:
            actions.append(("wait", j))
            pending.remove(j)
        if isinstance(phase, Exchange):
            actions.append(("post", i))
            pending.append(i)
        else:
            actions.append(("run", i))
    actions += [("wait", j) for j in pending]
    return tuple(actions)


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
        #: The lane the ranks ask for, resolved by :meth:`lane`. On the
        #: threads backend any non-reference lane fans the independent
        #: per-rank kernel loops out over a persistent thread pool
        #: (ranks touch disjoint state between the serial
        #: exchange/reduce barriers, so results are bit-identical to
        #: serial stepping).
        self.plan = plan if plan is not None else StepPlan.NATIVE_STEP
        #: Optional live-telemetry recorder (same protocol as on
        #: :class:`~repro.vpic.simulation.Simulation`): sampled after
        #: every collective step with per-rank particle aggregates.
        self.recorder = None
        self._pool: ThreadPoolExecutor | None = None
        #: Exchange schedule selection: threads ranks in one process
        #: under serialized collective barriers; processes forks one
        #: worker per rank over a shared-memory arena with the
        #: overlapped (or, without *overlap*, serialized) schedule.
        self.backend = backend
        self.overlap = overlap
        self._pbackend = None
        if backend == "processes":
            # Sets the rank solvers' kernels itself, once the field
            # views point into shared memory.
            from repro.mpi.process_backend import ProcessBackend
            self._pbackend = ProcessBackend(self, overlap=overlap,
                                            inject_fault=_inject_fault)
        else:
            self._attach_kernels()

    def lane(self) -> Lane:
        """The lane every rank of this process takes: the ranks share
        geometry, dtype and solver class, so one resolve answers for
        all of them."""
        return resolve_lane(self.plan, self.ranks[0])

    def _attach_kernels(self) -> None:
        """Point every rank's field solver at the lane's kernels. The
        native calls cache raw array addresses, so this runs only once
        the field arrays are final."""
        kernels = self.lane().kernels
        for rs in self.ranks:
            rs.solver.kernels = kernels

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

    def _reduce_currents(self, names) -> None:
        for arrays in self._component_arrays(names):
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

    def _threading_ok(self, lane: Lane) -> bool:
        """Whether this step, on *lane*, may fan ranks out over threads.

        Threading is off on the reference lane and whenever an
        *interposing* observability tool or atomic-contention
        accounting is live: those record into shared per-process state
        whose event order matters more than overlapping rank loops.
        Telemetry-compatible tools (``native_telemetry_ok`` — order-
        independent accumulation, per-thread trace lanes) keep the
        threaded fan-out, so a traced run measures the production
        step, not a serialized stand-in.
        """
        return (lane.label != "reference"
                and self.world.size > 1
                and not interposing_tools()
                and not accounting_enabled())

    def _for_each_rank(self, fn, lane: Lane) -> None:
        """Run *fn(rank_state, lane)* for every rank, threaded when
        allowed.

        Ranks touch only their own state between barriers, so the
        threaded fan-out is bit-identical to the serial loop; the
        ``list()`` drains the map so any rank exception re-raises
        here, lowest rank first.
        """
        if not self._threading_ok(lane):
            for rs in self.ranks:
                fn(rs, lane)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=min(MAX_RANK_THREADS, self.world.size),
                thread_name_prefix="rank-step")
        list(self._pool.map(lambda rs: fn(rs, lane), self.ranks))

    def rank_lanes(self) -> list[tuple[str, str | None]]:
        """Per-rank ``(lane, fallback_reason)`` as the ranks actually
        run. The threads backend resolves one lane in-process (all
        ranks share it); the processes backend reports what each
        worker resolved at fork handshake — a rank silently demoted
        (e.g. native build failed in its environment) shows up here.
        """
        if self._pbackend is not None:
            return list(self._pbackend.rank_lanes)
        lane = self.lane()
        return [(lane.label, lane.reason)] * self.n_ranks

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

    def _finish_steps(self, k: int, lane: str, seconds: float) -> None:
        """The parent-side bookkeeping after *k* collective steps."""
        from repro.observability.metrics import default_registry
        self.step_count += k
        default_registry().counter(f"step_lane/{lane}").inc(k)
        if self.recorder is not None:
            self.recorder.on_step(self, seconds / k)
        if self.guard is not None:
            self.guard.check_step(self)

    def _step_processes(self, k: int) -> None:
        """Advance *k* steps on the processes backend (one command to
        the whole worker fleet)."""
        t0 = time.perf_counter()
        self._pbackend.run_steps(k)
        lanes = self._pbackend.rank_lanes
        lane = lanes[0][0] if lanes else "numpy-fused"
        self._finish_steps(k, lane, time.perf_counter() - t0)

    def step(self) -> None:
        """One full distributed timestep: :data:`STEP` in order.

        The per-rank kernels run through :meth:`_for_each_rank` — a
        persistent thread pool when allowed, serial otherwise;
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
        t0 = time.perf_counter()
        lane = self.lane()
        for phase in STEP:
            if isinstance(phase, Kernel):
                self._for_each_rank(phase.run, lane)
            elif phase.kind == "ghosts":
                self._exchange_fields(phase.carries)
            elif phase.kind == "fold":
                self._reduce_currents(phase.carries)
            else:
                with rank_activity(None, "migrate", kind="comm"):
                    self._migrate()
        self._finish_steps(1, lane.label, time.perf_counter() - t0)

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
