"""The simulation driver: VPIC's main loop.

Per step (leapfrog ordering):

1. half B advance,
2. field gather -> Boris momentum push -> current deposition at the
   time-centered velocity -> position advance (the "particle push
   kernel" whose runtime the paper measures),
3. particle boundaries (+ rank migration in distributed runs),
4. ghost-current reduction, second half B advance, full E advance,
5. periodic particle sorting per the :class:`~repro.vpic.sort_step.
   SortStep` policy.

Kernel timings are recorded through :mod:`repro.kokkos.profiling`, so
``kernel_timings()`` after a run splits push time from field-solve
time the way the paper's runtime metric does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.sorting import SortKind
from repro.core.tuning import StepPlan
from repro.kokkos.atomics import accounting_enabled
from repro.kokkos.profiling import profiling_region, record_kernel
from repro.observability.callbacks import interposing_tools, tools_active
from repro.observability.metrics import default_registry, detail_enabled
from repro.vpic.absorbing import AbsorbingFieldSolver
from repro.vpic.boundary import BoundaryKind, apply_particle_boundaries
from repro.vpic.boris import advance_positions, boris_push, momentum_gamma
from repro.vpic.deck import Deck, DepositionKind, FieldBoundaryKind
from repro.vpic.deposit import deposit_current
from repro.vpic.esirkepov import deposit_current_esirkepov
from repro.vpic.fastpath import fused_push_species
from repro.vpic.fields import FieldArrays, FieldSolver
from repro.vpic.grid import Grid
from repro.vpic.interpolate import gather_fields
from repro.vpic.particles import load_maxwellian, load_uniform
from repro.vpic.scratch import ScratchArena
from repro.vpic.sort_step import SortStep
from repro.vpic.species import Species

__all__ = ["Lane", "Simulation", "resolve_lane"]


class Lane(NamedTuple):
    """The lane a step actually takes: :func:`resolve_lane`'s answer."""

    #: Its ``step_lane/*`` counter: ``native-step``, ``native-push``,
    #: ``numpy-fused`` (every other non-reference push) or ``reference``.
    label: str
    #: Why the whole-step native lane is not running (``None`` when it
    #: is); on a distributed rank, why its push is not native.
    reason: "str | None"
    #: The push is the fused one (:meth:`Simulation.push_step`), not
    #: kernel by kernel (:meth:`Simulation.push_species`).
    fused: bool
    #: The push runs in C: the whole step, the fused native push or
    #: the native Esirkepov kernel.
    native_push: bool
    #: The native Esirkepov kernel applies the periodic wrap itself.
    wraps: bool
    #: The compiled library the field solve, sort and window shift run
    #: on, or ``None``: numpy.
    kernels: object


_REFERENCE_LANE = Lane("reference", "reference StepPlan pinned",
                       False, False, False, None)


def resolve_lane(plan: StepPlan, deck) -> Lane:
    """The lane *deck* — a :class:`Simulation` or a distributed
    :class:`~repro.mpi.distributed.RankState` — takes this step when
    *plan* is asked for: the one place the lane is decided.

    The gates are walked once, in the order the reason words them.
    The push is fused on a CIC deck with periodic particles and a zero
    origin (the fused lane wraps only escaped particles, which matches
    the reference round-trip bitwise only then; a rank's push leaves
    positions unwrapped for the migration, so its origin is free). It
    is native on float32 fields, without atomics accounting (whose
    sampled hook must see the numpy deposition keys) and with a built
    kernel. The field solve and sort take the native kernels on
    float32 fields with a solver whose numpy code they reproduce:
    exactly :class:`FieldSolver` or an x-axis
    :class:`~repro.vpic.absorbing.AbsorbingFieldSolver` (a subclass
    may override any method). The whole step goes to C on top of a
    fused native push only with no sources, periodic fields, the plain
    solver and no *interposing* tool: telemetry-compatible tools
    (``native_telemetry_ok``) are fed from the C step's drained stats.
    A rank never takes the whole step (exchanges split it).

    Runs once per step (the CLI swaps ``step_plan`` after
    construction, and tools and accounting come and go); on the
    whole-step lane it formats no string.
    """
    if plan is StepPlan.REFERENCE:
        return _REFERENCE_LANE
    g = deck.grid
    solver = deck.solver
    rank = solver.external_ghosts
    cic = deck.deposition is DepositionKind.CIC
    periodic = deck.boundary is BoundaryKind.PERIODIC
    origin0 = g.x0 == 0.0 and g.y0 == 0.0 and g.z0 == 0.0
    fused = (plan is not StepPlan.NUMPY and cic and periodic
             and (origin0 or rank))
    if plan is StepPlan.NUMPY_FUSED or plan is StepPlan.NUMPY:
        return Lane("numpy-fused", "StepPlan disables native kernels",
                    fused, False, False, None)
    from repro.vpic import native

    lib = native.native_push_kernel()
    dtype = np.dtype(deck.fields.dtype)
    f32 = dtype == np.float32
    accounting = accounting_enabled()
    plain = type(solver) is FieldSolver
    kernels_off = None
    if not f32:
        kernels_off = f"{dtype.name} fields"
    elif not plain:
        if type(solver) is not AbsorbingFieldSolver:
            kernels_off = f"custom field solver {type(solver).__name__}"
        elif solver.mur.axes != (0,):
            kernels_off = f"absorbing axes {solver.mur.axes}"
    if kernels_off is None and lib is None:
        kernels_off = f"no compiled kernel ({native.native_status()})"
    push_off = None
    if not periodic:
        push_off = f"{deck.boundary.value} particles"
    elif not f32:
        push_off = f"{dtype.name} fields"
    elif accounting:
        push_off = "atomics accounting enabled"
    elif lib is None:
        push_off = f"no compiled kernel ({native.native_status()})"
    native_push = push_off is None and (fused or not cic)
    # The gates below leave a step that is still Python, kernel by
    # kernel: some reasons close with which kernels carry its field
    # solve and sort.
    on = ("; fields and sort on native kernels" if kernels_off is None
          else f"; fields and sort on numpy ({kernels_off})")
    if rank:
        reason = push_off
    elif plan is StepPlan.NATIVE_PUSH:
        reason = "native-push lane requested"
    elif not cic:
        reason = ("esirkepov deposition steps kernel by kernel; "
                  + ("push on the native Esirkepov kernel" if native_push
                     else f"push on numpy ({push_off})") + on)
    elif not periodic:
        reason = f"{deck.boundary.value} particle boundary"
    elif not origin0:
        reason = f"nonzero grid origin ({g.x0}, {g.y0}, {g.z0})"
    elif deck.sources:
        names = ", ".join(sorted({type(s).__name__ for s in deck.sources}))
        reason = f"per-step field sources attached: {names}{on}"
    elif deck.field_boundary is not FieldBoundaryKind.PERIODIC:
        reason = (f"field boundary {deck.field_boundary.name.lower()}"
                  f"{on}")
    elif not plain:
        reason = f"custom field solver {type(solver).__name__}"
    elif not f32:
        reason = f"{dtype.name} fields"
    elif tools_active() and (tools := interposing_tools()):
        names = ", ".join(sorted({type(t).__name__ for t in tools}))
        reason = f"interposing tool attached: {names}"
    elif accounting:
        reason = "atomics accounting enabled"
    elif lib is None:
        reason = f"no compiled kernel ({native.native_status()})"
    else:
        return Lane("native-step", None, True, True, False, lib)
    return Lane("native-push" if fused and native_push else "numpy-fused",
                reason, fused, native_push,
                native_push and not cic and origin0,
                None if kernels_off is not None else lib)


@dataclass
class Simulation:
    """One VPIC-style run: grid + fields + species + policies."""

    grid: Grid
    fields: FieldArrays
    species: list[Species]
    boundary: BoundaryKind = BoundaryKind.PERIODIC
    field_boundary: FieldBoundaryKind = FieldBoundaryKind.PERIODIC
    deposition: DepositionKind = DepositionKind.CIC
    sort_step: SortStep = field(default_factory=SortStep)
    #: The lane the step asks for (see repro.core.tuning.StepPlan): the
    #: whole-step native lane by default; :meth:`lane` resolves it into
    #: the lane that actually runs, every step.
    step_plan: StepPlan = StepPlan.NATIVE_STEP
    step_count: int = 0
    #: Optional runtime invariant guard (see :mod:`repro.validate`);
    #: when set, :meth:`step` brackets every timestep with its
    #: before/after hooks.
    guard: object | None = None
    #: Optional live-telemetry recorder (see
    #: :mod:`repro.observability.timeseries` /
    #: :mod:`repro.observability.flight`): ``on_run_start`` fires at
    #: the top of :meth:`run`, ``on_step`` after every completed
    #: timestep, and ``on_crash`` when any exception — including a
    #: guard raise or a KeyboardInterrupt — escapes the run loop.
    recorder: object | None = None
    #: Per-step field sources (``Deck.sources``): objects with an
    #: ``apply(sim, step)`` hook, called after every field solve with
    #: the pre-increment step index — e.g. a
    #: :class:`~repro.vpic.injection.LaserAntenna` or a
    #: :class:`~repro.vpic.window.MovingWindow`. Sources demote the
    #: whole-step native lane (the C step owns the field solve and
    #: has no injection point): :meth:`lane` resolves the default
    #: request to the native-push lane — one native push per step on
    #: the step team, the field solve, sort and a window's shift on
    #: the native kernels. The antenna and the reload column's RNG are
    #: what stays numpy.
    sources: list = field(default_factory=list)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_deck(cls, deck: Deck) -> "Simulation":
        grid = deck.make_grid()
        fields = FieldArrays(grid)
        species_list: list[Species] = []
        for i, cfg in enumerate(deck.species):
            sp = Species(cfg.name, cfg.q, cfg.m, grid,
                         capacity=max(1024, cfg.ppc * grid.n_cells))
            if cfg.uth > 0 or any(cfg.drift):
                load_maxwellian(sp, cfg.ppc, cfg.uth, cfg.drift,
                                cfg.weight, seed=deck.seed + i)
            else:
                load_uniform(sp, cfg.ppc, cfg.weight, seed=deck.seed + i)
            species_list.append(sp)
        sim = cls(
            grid=grid,
            fields=fields,
            species=species_list,
            boundary=deck.boundary,
            field_boundary=deck.field_boundary,
            deposition=deck.deposition,
            sort_step=SortStep(kind=deck.sort_kind,
                               tile_size=deck.sort_tile_size,
                               interval=deck.sort_interval),
        )
        if deck.field_init is not None:
            deck.field_init(sim)
        if deck.perturbation is not None:
            deck.perturbation(sim)
        for src in deck.sources:
            sim.sources.append(src)
            bind = getattr(src, "bind", None)
            if bind is not None:
                bind(sim)
        # __post_init__ already built the solver; it holds the same
        # FieldArrays object that field_init/perturbation mutate in
        # place, so no rebuild is needed here.
        return sim

    def __post_init__(self) -> None:
        self._solver = self._make_solver()
        self._energy0: float | None = None
        # The step's shared energy total (see energy_totals); run()
        # sets _sample_due before a step its diagnostic will record.
        self._energy_totals: "tuple[float, float, float] | None" = None
        self._energy_shared = False
        self._sample_due = False
        # The guarded native step's verdict (see step_verdict).
        self._step_verdict = None
        # Scratch for the fused push and the sort permutation: named
        # preallocated buffers, so the steady-state step makes zero
        # heap allocations in the particle phase.
        self._arena = ScratchArena()

    def _make_solver(self) -> FieldSolver:
        if self.field_boundary is FieldBoundaryKind.ABSORBING_X:
            return AbsorbingFieldSolver(self.fields, axes=(0,))
        return FieldSolver(self.fields)

    @property
    def solver(self) -> FieldSolver:
        return self._solver

    @property
    def total_particles(self) -> int:
        return sum(sp.n for sp in self.species)

    def get_species(self, name: str) -> Species:
        for sp in self.species:
            if sp.name == name:
                return sp
        raise KeyError(f"no species named {name!r}; have "
                       f"{[s.name for s in self.species]}")

    # -- the step ----------------------------------------------------------------

    def lane(self) -> Lane:
        """The lane this step takes: :func:`resolve_lane` of the current
        ``step_plan`` on this deck."""
        return resolve_lane(self.step_plan, self)

    def push_species(self, sp: Species, wrap: bool = False,
                     lane: "Lane | None" = None) -> None:
        """The particle push kernel: gather -> Boris -> deposit -> move.

        This is the kernel-by-kernel path: always used by the
        reference lane, and by decks the fused push does not cover
        (Esirkepov deposition, reflecting boundaries, a nonzero
        origin). Every other lane shares the post-push gamma between
        deposition and the position advance and bin-reduces the
        deposition; on Esirkepov decks a lane whose push is native
        hands the whole push to the native Esirkepov kernel
        (bit-identical, the numpy sequence below stays as the
        no-compiler fallback and the oracle).

        *lane* is the step's (:meth:`lane` when not given). Positions
        are left unwrapped for
        :func:`~repro.vpic.boundary.apply_particle_boundaries`, except
        that :meth:`step` passes *wrap* when the lane ``wraps``: the
        native Esirkepov kernel then wraps in the push.
        """
        if sp.n == 0:
            return
        g = self.grid
        if lane is None:
            lane = self.lane()
        if self.deposition is DepositionKind.ESIRKEPOV and lane.native_push:
            from repro.vpic import native
            with record_kernel(f"push/{sp.name}"):
                native.native_push_kernel().push_species_esirkepov(
                    self.fields, sp, self._arena, wrap=wrap)
            return
        reference = lane.label == "reference"
        x, y, z = sp.positions()
        ux, uy, uz = sp.momenta()
        with record_kernel(f"push/{sp.name}"):
            ex, ey, ez, bx, by, bz = gather_fields(self.fields, x, y, z)
            boris_push(ux, uy, uz, ex, ey, ez, bx, by, bz,
                       sp.q, sp.m, g.dt)
            if self.deposition is DepositionKind.ESIRKEPOV:
                # Charge-conserving path: needs both endpoints of the
                # move (deposit after advancing, before the boundary
                # wraps positions).
                x0 = x.astype(np.float64)
                y0 = y.astype(np.float64)
                z0 = z.astype(np.float64)
                advance_positions(x, y, z, ux, uy, uz, g.dt)
                if self.boundary is BoundaryKind.REFLECTING:
                    # Fold the bounce BEFORE depositing. Esirkepov
                    # closes the charge ledger for any endpoint pair,
                    # but depositing along the straight pre-boundary
                    # path pushes current through the wall while the
                    # particle teleports back inside — a spurious
                    # dipole that pumps field energy on every bounce
                    # (the deck fuzzer caught this as a 18x energy
                    # blowup on a quiet thermal deck). The chord to
                    # the reflected endpoint stays inside the box and
                    # lands the charge where the particle actually is.
                    apply_particle_boundaries(sp, self.boundary)
                deposit_current_esirkepov(
                    self.fields, x0, y0, z0, x, y, z,
                    sp.live("w"), sp.q, g.dt, binned=not reference)
            elif reference:
                # Deposit at the post-push momentum: v is
                # time-centered between the old and new positions in
                # leapfrog sense.
                deposit_current(self.fields, x, y, z, ux, uy, uz,
                                sp.live("w"), sp.q)
                advance_positions(x, y, z, ux, uy, uz, g.dt)
            else:
                gamma = momentum_gamma(ux, uy, uz)
                deposit_current(self.fields, x, y, z, ux, uy, uz,
                                sp.live("w"), sp.q, gamma=gamma,
                                binned=True)
                advance_positions(x, y, z, ux, uy, uz, g.dt,
                                  gamma=gamma)

    def push_step(self, lane: "Lane | None" = None) -> int:
        """Fused particle phase: gather -> Boris -> deposit -> move ->
        wrap for every species, on the fused lane.

        Returns the number of particles pushed. The periodic boundary
        is folded into the fused kernel, so no separate boundary pass
        runs; voxel indices refresh lazily on first use.

        When the push of *lane* (the step's; :meth:`lane` when not
        given) is native, every species goes in one native call, the
        whole step's push phase on the step team; its C-measured
        seconds per species are drained onto the ``push/<species>``
        labels. Otherwise each species takes the fused numpy lane.
        """
        if lane is None:
            lane = self.lane()
        if lane.native_push:
            from repro.observability import native_telemetry
            from repro.vpic import native
            native_telemetry.drain_push(self, native.push_simulation(self))
            for sp in self.species:
                if sp.n:
                    sp.mark_voxels_stale()
            return self.total_particles
        pushed = 0
        for sp in self.species:
            pushed += sp.n
            if sp.n == 0:
                continue
            with record_kernel(f"push/{sp.name}"):
                fused_push_species(self.fields, sp, self._arena, lane)
        return pushed

    def native_push_threads(self) -> "int | None":
        """Threads a step of this deck pushes on — the step team's size
        for it (:func:`~repro.vpic.native.step_team_size`) on both
        native lanes, whole-step and push-scope — or ``None`` when the
        push is numpy."""
        lane = self.lane()
        if not (lane.fused and lane.native_push):
            return None
        from repro.vpic import native
        return native.step_team_size(self)

    def native_fallback_reason(self) -> "str | None":
        """Why the whole-step native lane will *not* run — or ``None``
        when it is eligible and a compiled kernel exists: the reason of
        :meth:`lane`, recorded (flight recorder header, watch panel,
        ``run-deck`` note) so a demotion is not silently measured as
        the wrong lane."""
        return self.lane().reason

    def _native_sort_ok(self) -> bool:
        """Whether the C lane may also apply the counting sort: only
        the STANDARD ordering has a native twin (detail mode's disorder
        gauges are counted by the C sort itself)."""
        return self.sort_step.kind is SortKind.STANDARD

    def _native_sort_interval(self) -> int:
        """The sort interval the C step applies: the policy's when the
        counting sort may run natively (:meth:`_native_sort_ok`), else
        0, which leaves any sort to Python."""
        return self.sort_step.interval if self._native_sort_ok() else 0

    def _multi_step_ok(self, lane: Lane) -> bool:
        """Whether several steps may go to the whole-step native lane
        in one call — the one rule behind :meth:`run`'s chunks and
        :meth:`step_many`'s batch.

        Nothing may observe individual steps: no guard, no recorder,
        no registered tool (a telemetry-compatible one would get one
        span per phase for the whole call and no ``step`` region per
        step) and detail mode off (its per-step drift gauge). The sort
        must be native or off, since a Python sort would have to run
        between two steps of the call. And *lane*, the deck's this
        step, must be the whole-step one.
        """
        sort = self.sort_step
        return (lane.label == "native-step"
                and self.guard is None and self.recorder is None
                and not tools_active() and not detail_enabled()
                and (sort.interval == 0 or sort.kind is SortKind.NONE
                     or self._native_sort_ok()))

    def _native_advanced(self, res: dict, steps: int,
                         sort_interval: int) -> None:
        """Bookkeeping after a whole-step native call (*res*, its
        drained stats) that advanced this deck *steps* ≥ 1 steps with
        the C sort at *sort_interval*; shared by :meth:`_native_step`,
        :meth:`run`'s chunks and :meth:`step_many`.

        Advances ``step_count``; counts ``sim/steps``,
        ``sim/particles_pushed`` and ``step_lane/native-step`` by
        *steps*, and every sort the call made per live species in
        ``sorts_performed`` and ``sort/applied``; drains the stats once
        through :func:`~repro.observability.native_telemetry.
        drain_step`. Voxels are fresh only where the last step sorted
        (the C sort recomputed them before permuting); any step that
        did not sort left every species' voxels stale.
        """
        from repro.observability import native_telemetry

        self.step_count += steps
        reg = default_registry()
        reg.counter("sim/steps").inc(steps)
        reg.counter("sim/particles_pushed").inc(
            self.total_particles * steps)
        reg.counter("step_lane/native-step").inc(steps)
        native_telemetry.drain_step(self, res, steps)
        n_sorts = res["sorts_done"]
        live = sum(1 for sp in self.species if sp.n)
        if n_sorts and live:
            self.sort_step.sorts_performed += n_sorts * live
            reg.counter("sort/applied").inc(n_sorts * live)
        sorted_last = (sort_interval > 0
                       and self.step_count % sort_interval == 0)
        for sp in self.species:
            if sorted_last and sp.n:
                sp.mark_voxels_fresh()
            elif n_sorts < steps:
                sp.mark_voxels_stale()

    def _native_step(self, kernels) -> "int | None":
        """One whole-step native advance (fields + push + sort in C);
        *kernels* is the lane's library, for a sort the C step leaves.

        Returns particles pushed, or ``None`` when no compiled kernel
        is available and the caller should take the Python step. The
        per-phase stats struct the C step filled is drained through
        :mod:`repro.observability.native_telemetry` by
        :meth:`_native_advanced`: measured phase durations land on the
        same kernel labels the Python lanes use (``field_solve``,
        ``native_push/<species>``, ``sort/...``) and are fanned out to
        any telemetry-compatible tools, so timing folds, tracer spans,
        counter rows, and the flight recorder all see an unchanged
        attribution scheme. A sort the C step cannot take runs here in
        Python. With a guard attached the step also screens the state
        it leaves, and its verdict is kept as :attr:`step_verdict` for
        the step's tool tail. When a tool will read the energy
        (:meth:`_energy_read`) the step measures it after its sort and
        :meth:`energy_totals` returns that; in detail mode a C sort
        counts its own disorder for the ``sort/disorder_*`` gauges.
        """
        from repro.vpic import native

        sort_interval = self._native_sort_interval()
        sorts = self.sort_step.due(self.step_count + 1)
        res = native.step_simulation(
            self, sort_interval, screen=self.guard is not None,
            # a Python sort after the call would reorder the kinetic sum
            energy=(sort_interval > 0 or not sorts) and self._energy_read(),
            disorder=sort_interval > 0 and sorts and detail_enabled())
        if res is None:
            return None
        self._step_verdict = res.get("verdict")
        self._energy_totals = res.get("energy")
        self._native_advanced(res, 1, sort_interval)
        if "descents" in res and res["sorts_done"]:
            # SortStep.apply's gauges, per live species in order
            reg = default_registry()
            for sp, descents in zip(self.species, res["descents"]):
                if sp.n:
                    reg.gauge("sort/disorder_before").set(
                        descents / (sp.n - 1) if sp.n > 1 else 0.0)
                    reg.gauge("sort/disorder_after").set(0.0)
        if sort_interval == 0 and self.sort_step.due(self.step_count):
            for sp in self.species:
                with record_kernel(f"sort/{sp.name}"):
                    self.sort_step.apply(sp, scratch=self._arena,
                                         kernels=kernels)
        return self.total_particles

    def _native_steps(self, steps: int,
                      energy: bool = False) -> "float | None":
        """Advance *steps* steps in one whole-step native call (the
        caller has checked :meth:`_multi_step_ok`), under the ``step``
        region like :meth:`step`; returns the call's wall seconds.
        ``None`` when no compiled kernel is available: nothing ran,
        and the caller steps in Python. With *energy* the call also
        measures the energy totals of the state it leaves, which
        :meth:`energy_totals` returns until the caller closes the
        window."""
        from repro.vpic import native

        t0 = time.perf_counter()
        sort_interval = self._native_sort_interval()
        with profiling_region("step"):
            res = native.step_simulation(self, sort_interval,
                                         screen=False, steps=steps,
                                         energy=energy)
            if res is None:
                return None
            self._energy_totals = res.get("energy")
            self._native_advanced(res, steps, sort_interval)
        seconds = time.perf_counter() - t0
        default_registry().histogram("sim/step_seconds").observe(
            seconds / steps)
        return seconds

    def step(self, lane: "Lane | None" = None) -> None:
        """Advance the whole system by one timestep, on *lane* — the
        step's :meth:`lane`, resolved here unless the caller (:meth:`run`)
        already did.

        With a guard attached, the step is bracketed by its hooks:
        ``before_step`` arms two-sided checks and seeds the rollback
        ring, ``after_step`` runs the due invariant checks and may
        warn, raise, repair in place, or roll the state back to the
        newest validated checkpoint (rewinding ``step_count``).
        """
        try:
            self._step(lane)
        finally:
            if not self._sample_due:
                self._close_window()

    def _step(self, lane: "Lane | None") -> None:
        """:meth:`step`'s body; leaves the window of the step's shared
        energy total and verdict open (see :meth:`energy_totals`)."""
        t0 = time.perf_counter()
        pushed = 0
        if self.guard is not None:
            self.guard.before_step(self)
        if lane is None:
            lane = self.lane()
        with profiling_region("step"):
            native_pushed = (self._native_step(lane.kernels)
                             if lane.label == "native-step" else None)
            if native_pushed is not None:
                pushed = native_pushed
            else:
                kernels = self._solver.kernels = lane.kernels
                self._solver.advance_b(0.5)
                self.fields.clear_currents()
                if lane.fused:
                    pushed = self.push_step(lane)
                else:
                    for sp in self.species:
                        pushed += sp.n
                        self.push_species(sp, wrap=lane.wraps, lane=lane)
                    if not lane.wraps:
                        for sp in self.species:
                            with record_kernel(f"boundary/{sp.name}"):
                                apply_particle_boundaries(sp,
                                                          self.boundary)
                with record_kernel("field_solve"):
                    self._solver.reduce_ghost_currents()
                    # E is untouched since the pre-push sync, so the
                    # second half-B advance can skip the redundant E
                    # ghost refresh (bit-identical; three fewer ghost
                    # copies per step). The reference lane keeps the
                    # original blanket sync.
                    self._solver.advance_b(
                        0.5, sync=lane.label == "reference")
                    self._solver.advance_e(1.0)
                if self.sources:
                    with record_kernel("sources/inject"):
                        for src in self.sources:
                            src.apply(self, self.step_count)
                self.step_count += 1
                if self.sort_step.due(self.step_count):
                    for sp in self.species:
                        with record_kernel(f"sort/{sp.name}"):
                            self.sort_step.apply(sp, scratch=self._arena,
                                                 kernels=kernels)
        step_seconds = time.perf_counter() - t0
        reg = default_registry()
        if native_pushed is None:
            # The native lane's counters are kept by _native_advanced;
            # these lanes count per step for the dashboard's
            # lane-occupancy panel and perfbench's declared-lane check.
            reg.counter("sim/steps").inc()
            reg.counter("sim/particles_pushed").inc(pushed)
            reg.counter(f"step_lane/{lane.label}").inc()
        reg.histogram("sim/step_seconds").observe(step_seconds)
        # The tools below share one energy total of the new state.
        self._energy_shared = True
        if detail_enabled():
            self._record_energy_drift(reg)
        # Sample before the guard verdict: a step that the guard then
        # rejects (raise/rollback) still happened, and the flight
        # recorder's job is to have seen it.
        if self.recorder is not None:
            self.recorder.on_step(self, step_seconds)
        if self.guard is not None:
            self.guard.after_step(self)

    def _close_window(self) -> None:
        """End the step's window: drop the shared energy total and the
        verdict, and compute afresh from here on."""
        self._energy_shared = False
        self._energy_totals = None
        self._step_verdict = None

    def _energy_read(self) -> bool:
        """Whether something reads :meth:`energy_totals` after the
        coming step, so the native step should measure it: the detail
        gauge, :meth:`run`'s diagnostic, or a recorder or guard whose
        ``reads_energy`` says so (one without it is assumed to)."""
        if self._sample_due or detail_enabled():
            return True
        rec, guard = self.recorder, self.guard
        return ((rec is not None
                 and getattr(rec, "reads_energy", lambda: True)())
                or (guard is not None
                    and getattr(guard, "reads_energy", lambda step: True)(
                        self.step_count + 1)))

    def _record_energy_drift(self, reg) -> None:
        """Energy-conservation drift gauge (detail-mode metric).

        O(N) over particles, so only collected when observability
        detail is enabled; the reference energy is the total at the
        first sampled step.
        """
        e, b, k = self.energy_totals()
        total = e + b + k
        if self._energy0 is None:
            self._energy0 = total
        if self._energy0:
            drift = abs(total - self._energy0) / abs(self._energy0)
            reg.gauge("sim/energy_drift").set(drift)

    def energy_totals(self) -> "tuple[float, float, float]":
        """``(electric, magnetic, kinetic)`` energy of the current state.

        After a step the detail gauge, the flight recorder's sample,
        the guard's drift check and :meth:`run`'s diagnostic all ask for
        it: they share one computation, kept until :meth:`step` returns
        (or, inside :meth:`run`, until the diagnostic has recorded) or
        :meth:`state_changed` drops it. A native step that one of them
        will read measures it in C (:meth:`_energy_read`), bit-identical
        to ``FieldArrays.field_energy`` and ``Species.kinetic_energy``.
        Outside that window every call computes afresh.
        """
        totals = self._energy_totals
        if totals is None:
            e, b = self.fields.field_energy()
            totals = (e, b, sum(sp.kinetic_energy() for sp in self.species))
            if self._energy_shared:
                self._energy_totals = totals
        return totals

    @property
    def step_verdict(self):
        """The :class:`~repro.vpic.native.StepVerdict` of the step just
        taken, while its tool tail runs: what the guard's finiteness
        and bounds checks would find, screened by the native step (a
        later permuting sort leaves it true). ``None`` outside that
        window, after :meth:`state_changed`, and on every lane but the
        guarded whole-step native one."""
        return self._step_verdict

    def state_changed(self) -> None:
        """Drop the shared energy total and the step's verdict: the
        state was edited in place (a guard repair, a rollback
        restore)."""
        self._energy_totals = None
        self._step_verdict = None

    @classmethod
    def step_many(cls, sims, num_steps: int) -> None:
        """Advance every simulation in *sims* by *num_steps* steps.

        The batched fast path: every sim that may take several steps
        per native call (:meth:`_multi_step_ok`: nothing observes its
        steps, its sort is native or off, it is on the whole-step lane)
        advances in ONE native call over its packed arena, round-robin
        per step. The others are demoted *individually* to interleaved
        :meth:`step` calls — a recorder on one deck does not drag the
        whole batch off the native lane — and their recorders get a
        ``batch`` metadata event naming which decks ran native. Decks
        are independent, so any execution order is byte-identical to
        stepping them back to back.
        """
        from repro.vpic import native

        if num_steps < 0:
            raise ValueError(
                f"num_steps must be non-negative, got {num_steps}")
        sims = list(sims)
        if not sims or num_steps == 0:
            return
        eligible = [s._multi_step_ok(s.lane()) for s in sims]
        native_sims = [s for s, ok in zip(sims, eligible) if ok]
        demoted = [s for s, ok in zip(sims, eligible) if not ok]
        results = None
        if native_sims:
            with profiling_region("step"):
                results = native.step_batch(native_sims, num_steps)
                for s, res in zip(native_sims, results or ()):
                    s._native_advanced(res, num_steps,
                                       s._native_sort_interval())
        if results is None:
            # No compiled kernel: everything interleaves.
            demoted = sims
        elif demoted:
            info = {
                "decks": len(sims),
                "steps": num_steps,
                "native_decks":
                    [i for i, ok in enumerate(eligible) if ok],
                "interleaved_decks":
                    [i for i, ok in enumerate(eligible) if not ok],
            }
            for s in demoted:
                cb = getattr(s.recorder, "on_batch", None)
                if cb is not None:
                    cb(s, info)
        for _ in range(num_steps):
            for s in demoted:
                s.step()

    def run(self, num_steps: int, diagnostic=None,
            sample_every: int = 1) -> None:
        """Run until ``step_count`` advances by *num_steps*, recording
        *diagnostic* every N steps.

        The loop drives toward a target step count rather than a
        fixed iteration count, so a guard rollback (which rewinds
        ``step_count``) re-runs the rewound steps instead of silently
        shortening the run; the guard's retry budget bounds the
        re-execution.

        When nothing observes individual steps (:meth:`_multi_step_ok`,
        asked on every pass) the loop hands the whole-step native lane
        a chunk of steps per call instead of calling :meth:`step`. A
        chunk ends at the next diagnostic sample or the target, and
        its size follows :func:`_next_chunk`, so a call stays near
        50 ms and Ctrl-C, which cannot interrupt a C call, still lands
        within ~0.1 s. State, samples and counters are those of stepping one
        at a time; ``sim/step_seconds`` gets the chunk's per-step mean
        once per call.

        *diagnostic* records through :meth:`energy_totals` inside the
        window of the step (or chunk) it samples, so a native step that
        ends at a sample measures the energy in C and the tools of that
        step and the diagnostic share it.
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if self.recorder is not None:
            self.recorder.on_run_start(self, num_steps)
        if diagnostic is not None and self.step_count == 0:
            diagnostic.record(self)
        target = self.step_count + num_steps
        chunk = 1

        def sampled(step: int) -> bool:
            return diagnostic is not None and step % sample_every == 0

        try:
            while self.step_count < target:
                # The step's energy window stays open over the record.
                try:
                    seconds = None
                    lane = self.lane()
                    if self._multi_step_ok(lane):
                        stop = target
                        if diagnostic is not None:
                            stop = min(stop, (self.step_count
                                              // sample_every + 1)
                                       * sample_every)
                        steps = min(chunk, stop - self.step_count)
                        seconds = self._native_steps(
                            steps, energy=sampled(self.step_count + steps))
                    if seconds is None:
                        self._sample_due = sampled(self.step_count + 1)
                        self.step(lane)
                    else:
                        chunk = _next_chunk(chunk, steps, seconds)
                    if sampled(self.step_count):
                        diagnostic.record(self)
                finally:
                    self._sample_due = False
                    self._close_window()
        except BaseException as exc:
            # Flight-recorder contract: anything that escapes the run
            # loop — guard raise, numerical blow-up, Ctrl-C — dumps
            # the in-memory telemetry tail before propagating.
            if self.recorder is not None:
                self.recorder.on_crash(self, exc)
            raise


#: A chunk of :meth:`Simulation.run`'s multi-step native calls doubles
#: while a call returns within this many seconds.
_CHUNK_SECONDS = 0.025


def _next_chunk(chunk: int, steps: int, seconds: float) -> int:
    """The chunk size after a multi-step native call that took *steps*
    steps (at most *chunk*) in *seconds*: doubled when the call filled
    the chunk within :data:`_CHUNK_SECONDS`, else unchanged. A chunk
    starts at one step, so a call takes about twice that at most; a
    call cut short by a sample or the target says nothing about the
    full chunk and does not grow it."""
    if steps == chunk and seconds < _CHUNK_SECONDS:
        return 2 * chunk
    return chunk
