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

import numpy as np

from repro.core.sorting import SortKind
from repro.core.tuning import StepPlan
from repro.kokkos.atomics import accounting_enabled
from repro.kokkos.profiling import profiling_region, record_kernel
from repro.observability.callbacks import interposing_tools
from repro.observability.metrics import default_registry, detail_enabled
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

__all__ = ["Simulation"]


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
    #: Which kernels the step takes (see repro.core.tuning.StepPlan):
    #: the fast path by default; ``StepPlan.reference_plan()`` selects
    #: the original kernel-by-kernel sequence the equivalence tests
    #: compare against.
    step_plan: StepPlan = field(default_factory=StepPlan)
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
    #: has no injection point); the push-scope lane is unaffected,
    #: and the field solve and sort around it stay on native kernels.
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
        # Scratch for the fused push and the sort permutation: named
        # preallocated buffers, so the steady-state step makes zero
        # heap allocations in the particle phase.
        self._arena = ScratchArena()

    def _make_solver(self) -> FieldSolver:
        if self.field_boundary is FieldBoundaryKind.ABSORBING_X:
            from repro.vpic.absorbing import AbsorbingFieldSolver
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

    def push_species(self, sp: Species) -> None:
        """The particle push kernel: gather -> Boris -> deposit -> move.

        This is the kernel-by-kernel path: always used by the
        reference plan, and by decks the fused path does not cover
        (Esirkepov deposition, reflecting boundaries). A non-reference
        plan still shares the post-push gamma between deposition and
        the position advance and may bin-reduce the deposition; on
        Esirkepov decks it hands the whole push to the native
        Esirkepov kernel when :meth:`_esirkepov_kernel_off` finds no
        objection (bit-identical, the numpy sequence below stays as
        the no-compiler fallback and the oracle).
        """
        if sp.n == 0:
            return
        g = self.grid
        plan = self.step_plan
        if (self.deposition is DepositionKind.ESIRKEPOV
                and self._esirkepov_kernel_off() is None):
            from repro.vpic import native
            with record_kernel(f"push/{sp.name}"):
                native.native_push_kernel().push_species_esirkepov(
                    self.fields, sp, self._arena)
            return
        binned = plan.bin_deposit and not plan.reference
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
                    sp.live("w"), sp.q, g.dt, binned=binned)
            elif plan.reference:
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
                                binned=binned)
                advance_positions(x, y, z, ux, uy, uz, g.dt,
                                  gamma=gamma)

    def push_step(self) -> int:
        """Fused particle phase: gather -> Boris -> deposit -> move ->
        wrap for every species, through the StepPlan fast path.

        Returns the number of particles pushed. The periodic boundary
        is folded into the fused kernel, so no separate boundary pass
        runs; voxel indices refresh lazily on first use.
        """
        pushed = 0
        for sp in self.species:
            pushed += sp.n
            if sp.n == 0:
                continue
            with record_kernel(f"push/{sp.name}"):
                fused_push_species(self.fields, sp, self._arena,
                                   self.step_plan)
        return pushed

    def _fast_step_ok(self) -> bool:
        g = self.grid
        plan = self.step_plan
        # Zero origin: the fused lane wraps only escaped particles,
        # which matches the reference all-particle
        # subtract/mod/re-add round-trip bitwise only when the
        # subtracted origin is exactly zero.
        return (not plan.reference and plan.fused
                and self.deposition is DepositionKind.CIC
                and self.boundary is BoundaryKind.PERIODIC
                and g.x0 == 0.0 and g.y0 == 0.0 and g.z0 == 0.0)

    def _esirkepov_kernel_off(self) -> "str | None":
        """Why the native Esirkepov kernel is *not* carrying this
        deck's particle push — ``None`` when it is.

        The one gate list behind both :meth:`push_species`'s dispatch
        and the wording of :meth:`native_fallback_reason`. The kernel
        leaves positions unwrapped for the Python boundary pass, so it
        needs no zero origin; a reflecting deck must fold the bounce
        between advance and deposit, which only the numpy sequence
        does.
        """
        from repro.vpic import native

        plan = self.step_plan
        if plan.reference:
            return "reference StepPlan pinned"
        if not plan.native:
            return "StepPlan disables native kernels"
        if self.boundary is not BoundaryKind.PERIODIC:
            return f"{self.boundary.value} particles"
        if np.dtype(self.fields.dtype) != np.float32:
            return f"{np.dtype(self.fields.dtype).name} fields"
        if accounting_enabled():
            return "atomics accounting enabled"
        if not native.native_available():
            return f"no compiled kernel ({native.native_status()})"
        return None

    def _step_kernels_off(self) -> "str | None":
        """Why the kernel-by-kernel step's field solve and sort are
        *not* on the native kernels — ``None`` when they are.

        The one gate behind :meth:`_step_kernels` (what
        ``FieldSolver.kernels`` and ``SortStep.apply`` are handed each
        step) and the closing words of
        :meth:`native_fallback_reason`. Evaluated per step: the CLI
        swaps ``step_plan`` after construction. A solver subclass may
        override any method, so only the two exact classes whose
        numpy code the kernels reproduce qualify.
        """
        from repro.vpic import native

        plan = self.step_plan
        if plan.reference:
            return "reference StepPlan pinned"
        if not plan.native:
            return "StepPlan disables native kernels"
        if np.dtype(self.fields.dtype) != np.float32:
            return f"{np.dtype(self.fields.dtype).name} fields"
        solver = self._solver
        if type(solver) is not FieldSolver:
            from repro.vpic.absorbing import AbsorbingFieldSolver
            if type(solver) is not AbsorbingFieldSolver:
                return f"custom field solver {type(solver).__name__}"
            if solver.mur.axes != (0,):
                return f"absorbing axes {solver.mur.axes}"
        if not native.native_available():
            return f"no compiled kernel ({native.native_status()})"
        return None

    def _step_kernels(self):
        """The compiled library this step's field solve and sort run
        on, or ``None`` for numpy (see :meth:`_step_kernels_off`)."""
        if self._step_kernels_off() is not None:
            return None
        from repro.vpic import native
        return native.native_push_kernel()

    def _native_step_ok(self) -> bool:
        """Whether the whole-step native lane may run this step.

        Stricter than :meth:`_fast_step_ok`: the C step owns the Yee
        solve and ghost handling too, so it additionally needs the
        plain periodic field solver on float32 fields, no
        *interposing* observability tools, and no atomics accounting.
        Telemetry-compatible tools (ChromeTracer, CounterTool — any
        tool marked ``native_telemetry_ok``) do NOT demote the lane:
        the C step fills a per-phase stats struct that
        :mod:`repro.observability.native_telemetry` drains into the
        same spans/metrics/samples after each call. Ineligible steps
        degrade to the push-scope lane, then numpy — never an error —
        and :meth:`native_fallback_reason` names the tripped gate.
        """
        plan = self.step_plan
        return (plan.native and plan.native_scope == "step"
                and self._fast_step_ok()
                and not self.sources
                and self.field_boundary is FieldBoundaryKind.PERIODIC
                and type(self._solver) is FieldSolver
                and not self._solver.external_ghosts
                and np.dtype(self.fields.dtype) == np.float32
                and not interposing_tools()
                and not accounting_enabled())

    def native_fallback_reason(self) -> "str | None":
        """Why the whole-step native lane will *not* run — or ``None``
        when it is eligible and a compiled kernel exists.

        The slow, human-readable twin of :meth:`_native_step_ok`,
        checked gate by gate so a demotion is recorded (flight
        recorder header, watch panel, ``run-deck`` note) instead of
        silently measuring the wrong lane.
        """
        from repro.vpic import native

        plan = self.step_plan
        if plan.reference:
            return "reference StepPlan pinned"
        if not plan.native:
            return "StepPlan disables native kernels"
        if plan.native_scope != "step":
            return f"StepPlan native_scope={plan.native_scope!r}"
        if not plan.fused:
            return "StepPlan disables the fused push"
        # The gates below leave a step that is still Python, kernel
        # by kernel — so the reason closes with which kernels carry
        # its field solve and sort.
        why = self._step_kernels_off()
        kernels = ("; fields and sort on native kernels" if why is None
                   else f"; fields and sort on numpy ({why})")
        if self.deposition is DepositionKind.ESIRKEPOV:
            off = self._esirkepov_kernel_off()
            return ("esirkepov deposition steps kernel by kernel; "
                    + ("push on the native Esirkepov kernel"
                       if off is None else f"push on numpy ({off})")
                    + kernels)
        if self.boundary is not BoundaryKind.PERIODIC:
            return f"{self.boundary.value} particle boundary"
        g = self.grid
        if (g.x0, g.y0, g.z0) != (0.0, 0.0, 0.0):
            return f"nonzero grid origin ({g.x0}, {g.y0}, {g.z0})"
        if self.sources:
            names = ", ".join(sorted({type(s).__name__
                                      for s in self.sources}))
            return f"per-step field sources attached: {names}{kernels}"
        if self.field_boundary is not FieldBoundaryKind.PERIODIC:
            return (f"field boundary {self.field_boundary.name.lower()}"
                    f"{kernels}")
        if type(self._solver) is not FieldSolver:
            return f"custom field solver {type(self._solver).__name__}"
        if self._solver.external_ghosts:
            return "externally owned field ghosts (distributed rank)"
        if np.dtype(self.fields.dtype) != np.float32:
            return f"{np.dtype(self.fields.dtype).name} fields"
        tools = interposing_tools()
        if tools:
            names = ", ".join(sorted({type(t).__name__ for t in tools}))
            return f"interposing tool attached: {names}"
        if accounting_enabled():
            return "atomics accounting enabled"
        if not native.native_available():
            return f"no compiled kernel ({native.native_status()})"
        return None

    def _native_sort_ok(self) -> bool:
        """Whether the C lane may also apply the counting sort: only
        the STANDARD ordering has a native twin, and detail mode needs
        the Python path for its disorder gauges."""
        return (self.sort_step.kind is SortKind.STANDARD
                and not detail_enabled())

    def _native_step(self) -> "int | None":
        """One whole-step native advance (fields + push + sort in C).

        Returns particles pushed, or ``None`` when no compiled kernel
        is available and the caller should take the Python step. The
        per-phase stats struct the C step filled is drained through
        :mod:`repro.observability.native_telemetry`: measured phase
        durations land on the same kernel labels the Python lanes use
        (``field_solve``, ``native_push/<species>``, ``sort/...``)
        and are fanned out to any telemetry-compatible tools, so
        timing folds, tracer spans, counter rows, and the flight
        recorder all see an unchanged attribution scheme.
        """
        from repro.observability import native_telemetry
        from repro.vpic import native

        sort_native = self._native_sort_ok()
        res = native.step_simulation(
            self, self.sort_step.interval if sort_native else 0)
        if res is None:
            return None
        pushed = self.total_particles
        self.step_count += 1
        native_telemetry.drain_step(self, res)
        if res["sorted"]:
            reg = default_registry()
            for sp in self.species:
                if sp.n:
                    # The C sort recomputed voxels before permuting.
                    sp.mark_voxels_fresh()
                    self.sort_step.sorts_performed += 1
                    reg.counter("sort/applied").inc()
        else:
            for sp in self.species:
                sp.mark_voxels_stale()
            if self.sort_step.due(self.step_count):
                kernels = self._step_kernels()
                for sp in self.species:
                    with record_kernel(f"sort/{sp.name}"):
                        self.sort_step.apply(sp, scratch=self._arena,
                                             kernels=kernels)
        return pushed

    def step(self) -> None:
        """Advance the whole system by one timestep.

        With a guard attached, the step is bracketed by its hooks:
        ``before_step`` arms two-sided checks and seeds the rollback
        ring, ``after_step`` runs the due invariant checks and may
        warn, raise, repair in place, or roll the state back to the
        newest validated checkpoint (rewinding ``step_count``).
        """
        t0 = time.perf_counter()
        pushed = 0
        if self.guard is not None:
            self.guard.before_step(self)
        with profiling_region("step"):
            native_pushed = (self._native_step()
                             if self._native_step_ok() else None)
            if native_pushed is not None:
                pushed = native_pushed
            else:
                kernels = self._solver.kernels = self._step_kernels()
                self._solver.advance_b(0.5)
                self.fields.clear_currents()
                if self._fast_step_ok():
                    pushed = self.push_step()
                else:
                    for sp in self.species:
                        pushed += sp.n
                        self.push_species(sp)
                    for sp in self.species:
                        with record_kernel(f"boundary/{sp.name}"):
                            apply_particle_boundaries(sp, self.boundary)
                with record_kernel("field_solve"):
                    self._solver.reduce_ghost_currents()
                    # E is untouched since the pre-push sync, so the
                    # second half-B advance can skip the redundant E
                    # ghost refresh (bit-identical; three fewer ghost
                    # copies per step). The reference plan keeps the
                    # original blanket sync.
                    self._solver.advance_b(
                        0.5, sync=self.step_plan.reference)
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
        reg.counter("sim/steps").inc()
        reg.counter("sim/particles_pushed").inc(pushed)
        reg.histogram("sim/step_seconds").observe(step_seconds)
        reg.counter(f"step_lane/{self._lane_taken(native_pushed)}").inc()
        if detail_enabled():
            self._record_energy_drift(reg)
        # Sample before the guard verdict: a step that the guard then
        # rejects (raise/rollback) still happened, and the flight
        # recorder's job is to have seen it.
        if self.recorder is not None:
            self.recorder.on_step(self, step_seconds)
        if self.guard is not None:
            self.guard.after_step(self)

    def _lane_taken(self, native_pushed: "int | None") -> str:
        """Which lane the step just ran on (``native-step`` /
        ``native-push`` / ``numpy-fused`` / ``reference``), counted
        per step under ``step_lane/*`` for the dashboard's
        lane-occupancy panel and perfbench's declared-lane check."""
        if native_pushed is not None:
            return "native-step"
        if self.step_plan.reference:
            return "reference"
        from repro.vpic import native
        if (self._fast_step_ok() and self.step_plan.native
                and native.native_available()):
            return "native-push"
        return "numpy-fused"

    def _record_energy_drift(self, reg) -> None:
        """Energy-conservation drift gauge (detail-mode metric).

        O(N) over particles, so only collected when observability
        detail is enabled; the reference energy is the total at the
        first sampled step.
        """
        e, b = self.fields.field_energy()
        total = e + b + sum(sp.kinetic_energy() for sp in self.species)
        if self._energy0 is None:
            self._energy0 = total
        if self._energy0:
            drift = abs(total - self._energy0) / abs(self._energy0)
            reg.gauge("sim/energy_drift").set(drift)

    @classmethod
    def step_many(cls, sims, num_steps: int) -> None:
        """Advance every simulation in *sims* by *num_steps* steps.

        The batched fast path: every whole-step-eligible sim with no
        guard or recorder attached (those hook every individual step)
        and a natively sortable (or disabled) sort policy advances in
        ONE native call over its packed arena, round-robin per step.
        Instrumented or ineligible decks are demoted *individually*
        to interleaved :meth:`step` calls — a recorder on one deck no
        longer drags the whole batch off the native lane — and their
        recorders get a ``batch`` metadata event naming which decks
        ran native. Decks are independent, so any execution order is
        byte-identical to stepping them back to back.
        """
        from repro.observability import native_telemetry
        from repro.vpic import native

        if num_steps < 0:
            raise ValueError(
                f"num_steps must be non-negative, got {num_steps}")
        sims = list(sims)
        if not sims or num_steps == 0:
            return

        def batch_ok(s: "Simulation") -> bool:
            return (s.guard is None and s.recorder is None
                    and s._native_step_ok()
                    and (s.sort_step.interval == 0
                         or s.sort_step.kind is SortKind.NONE
                         or s._native_sort_ok()))

        eligible = [batch_ok(s) for s in sims]
        native_sims = [s for s, ok in zip(sims, eligible) if ok]
        demoted = [s for s, ok in zip(sims, eligible) if not ok]
        results = None
        if native_sims:
            with profiling_region("step"):
                results = native.step_batch(native_sims, num_steps)
                if results is not None:
                    reg = default_registry()
                    for s, res in zip(native_sims, results):
                        s.step_count += num_steps
                        reg.counter("sim/steps").inc(num_steps)
                        reg.counter("sim/particles_pushed").inc(
                            s.total_particles * num_steps)
                        reg.counter("step_lane/native-step").inc(
                            num_steps)
                        native_telemetry.drain_batch(s, res, num_steps)
                        n_sorts = res["sorts_done"]
                        live = sum(1 for sp in s.species if sp.n)
                        if n_sorts:
                            s.sort_step.sorts_performed += n_sorts * live
                            reg.counter("sort/applied").inc(
                                n_sorts * live)
                        # Voxels are fresh only if the *final* step
                        # sorted; any later push leaves them stale.
                        sorted_final = (
                            n_sorts > 0 and s.sort_step.interval > 0
                            and s.step_count % s.sort_step.interval == 0)
                        for sp in s.species:
                            if sorted_final and sp.n:
                                sp.mark_voxels_fresh()
                            else:
                                sp.mark_voxels_stale()
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
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if self.recorder is not None:
            self.recorder.on_run_start(self, num_steps)
        if diagnostic is not None and self.step_count == 0:
            diagnostic.record(self)
        target = self.step_count + num_steps
        try:
            while self.step_count < target:
                self.step()
                if diagnostic is not None and \
                        self.step_count % sample_every == 0:
                    diagnostic.record(self)
        except BaseException as exc:
            # Flight-recorder contract: anything that escapes the run
            # loop — guard raise, numerical blow-up, Ctrl-C — dumps
            # the in-memory telemetry tail before propagating.
            if self.recorder is not None:
                self.recorder.on_crash(self, exc)
            raise
