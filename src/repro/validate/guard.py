"""The runtime guard: invariant checks wired into the PIC loop.

:class:`SimulationGuard` attaches to a
:class:`~repro.vpic.simulation.Simulation`; the loop calls
:meth:`before_step` / :meth:`after_step` around every timestep. Due
checks run after each step; violations dispatch through the
:class:`~repro.validate.policy.GuardPolicy` — warn, raise, or repair
(in-place fix where the check supports one, rollback to the newest
auto-checkpoint otherwise, bounded by a retry budget). Checkpoints
are pushed only from steps whose checks all passed, so the rollback
target is always a validated state.

:class:`RankGuard` is the distributed counterpart: per-rank
structural checks at the end of each collective step; any rank
violation aborts the step deterministically (violations are gathered
across all ranks, then the lowest-rank one raises), so every rank —
and every rerun — fails identically.

Guard activity is observable: checks run under ``guard/checks``
kernel spans and violation/repair/rollback counters land in the
default metrics registry (see the table in
:mod:`repro.observability.metrics`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.kokkos.profiling import record_kernel
from repro.observability.metrics import default_registry
from repro.validate.checks import (InvariantCheck, Violation, default_checks,
                                   rank_checks)
from repro.validate.policy import (GuardAction, GuardPolicy,
                                   GuardReport, GuardViolationError)
from repro.validate.ring import CheckpointRing

__all__ = ["SimulationGuard", "RankGuard", "GuardOverheadReport",
           "measure_guard_overhead"]


class SimulationGuard:
    """Invariant enforcement for a single-process simulation.

    Parameters
    ----------
    checks:
        The :class:`InvariantCheck` suite; defaults to
        :func:`~repro.validate.checks.default_checks`.
    policy:
        A :class:`GuardPolicy`, a :class:`GuardAction`, or one of the
        strings ``"warn"`` / ``"raise"`` / ``"repair"``.
    checkpoint_interval:
        Auto-checkpoint cadence in steps (0 disables the ring, which
        makes non-repairable violations fatal under ``repair``).
    ring_depth:
        Snapshots the in-memory rollback ring keeps (default 2).
    retry_budget:
        Total rollbacks allowed over the guard's lifetime; a
        violation that keeps recurring after this many rewinds
        escalates to :class:`GuardViolationError`.
    """

    def __init__(self, checks: list[InvariantCheck] | None = None,
                 policy: str | GuardAction | GuardPolicy = GuardAction.RAISE,
                 checkpoint_interval: int = 20,
                 ring_depth: int = 2,
                 retry_budget: int = 3):
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0, got "
                             f"{checkpoint_interval}")
        self.checks = list(checks) if checks is not None else default_checks()
        self.policy = GuardPolicy.named(policy)
        self.checkpoint_interval = checkpoint_interval
        self.retry_budget = retry_budget
        self.retries_left = retry_budget
        self.ring = (CheckpointRing(depth=ring_depth)
                     if checkpoint_interval > 0 else None)
        self.report = GuardReport()
        #: Optional callable fired with the step number after every
        #: validated auto-checkpoint push (flight-recorder hook).
        self.on_checkpoint = None

    # -- attachment ---------------------------------------------------------

    def attach(self, sim):
        """Bind this guard to *sim* (one guard per simulation)."""
        sim.guard = self
        return sim

    # -- loop hooks ---------------------------------------------------------

    def _push_checkpoint(self, sim) -> None:
        self.ring.push(sim)
        if self.on_checkpoint is not None:
            self.on_checkpoint(sim.step_count)

    def before_step(self, sim) -> None:
        """Pre-step: seed the rollback ring and arm two-sided checks."""
        if self.ring is not None and not self.ring.entries:
            self._push_checkpoint(sim)
        next_step = sim.step_count + 1
        for check in self.checks:
            if check.due(next_step):
                check.prepare(sim)

    def reads_energy(self, step: int) -> bool:
        """Whether :meth:`after_step` at *step* runs a check that reads
        the energy totals."""
        return any(check.reads_energy and check.due(step)
                   for check in self.checks)

    def after_step(self, sim) -> None:
        """Post-step: run due checks, dispatch violations, and push a
        validated snapshot at the checkpoint cadence."""
        self.report.steps_guarded += 1
        reg = default_registry()
        violations: list[tuple[InvariantCheck, Violation]] = []
        with record_kernel("guard/checks"):
            for check in self.checks:
                if not check.due(sim.step_count):
                    continue
                self.report.record_run(check.name)
                reg.counter("guard/checks_run").inc()
                v = check.check(sim)
                if v is not None:
                    violations.append((check, v))
        if violations:
            reg.counter("guard/violations").inc(len(violations))
            self._dispatch(sim, violations)
        elif (self.ring is not None
                and sim.step_count % self.checkpoint_interval == 0):
            self._push_checkpoint(sim)

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, sim, violations) -> None:
        reg = default_registry()
        rollback_causes: list[Violation] = []
        for check, violation in violations:
            action = self.policy.action_for(check.name)
            if action is GuardAction.WARN:
                self.report.record(violation, "warn")
            elif action is GuardAction.RAISE:
                self.report.record(violation, "raise")
                raise GuardViolationError(violation)
            else:  # REPAIR
                if check.repairable:
                    detail = check.repair(sim)
                    sim.state_changed()
                    if check.check(sim) is None:
                        self.report.record(violation, "repair",
                                           detail or "")
                        reg.counter("guard/repairs").inc()
                        continue
                rollback_causes.append(violation)
        if rollback_causes:
            self._rollback(sim, rollback_causes[0])

    def _rollback(self, sim, violation: Violation) -> None:
        reg = default_registry()
        if self.ring is None or not self.ring.entries:
            self.report.record(violation, "raise", "no rollback target")
            raise GuardViolationError(
                violation, "not repairable and no checkpoint to roll "
                           "back to")
        if self.retries_left <= 0:
            self.report.record(violation, "raise",
                               "retry budget exhausted")
            raise GuardViolationError(
                violation, f"retry budget ({self.retry_budget}) exhausted")
        self.retries_left -= 1
        restored_step = self.ring.rollback(sim)
        reg.counter("guard/rollbacks").inc()
        self.report.record(
            violation, "rollback",
            f"restored step {restored_step} "
            f"({self.retries_left}/{self.retry_budget} retries left)")


class RankGuard:
    """Per-rank structural guards for a distributed step.

    Checks each rank's local fields/particles at the end of the
    collective step. All ranks are checked before any decision, and
    violations sort by ``(rank, check)`` — the abort is deterministic
    regardless of evaluation order, as a real collective abort must
    be.
    """

    def __init__(self, checks: list[InvariantCheck] | None = None):
        self.checks = list(checks) if checks is not None else rank_checks()
        self.report = GuardReport()

    def check_step(self, dsim) -> None:
        """Run per-rank checks; raises on any rank's violation."""
        self.report.steps_guarded += 1
        reg = default_registry()
        found: list[tuple[int, Violation]] = []
        with record_kernel("guard/rank_checks"):
            for rs in dsim.ranks:
                view = _RankView(rs, dsim.step_count)
                for check in self.checks:
                    if not check.due(dsim.step_count):
                        continue
                    self.report.record_run(check.name)
                    reg.counter("guard/checks_run").inc()
                    v = check.check(view)
                    if v is not None:
                        found.append((rs.rank, v))
        if not found:
            return
        found.sort(key=lambda rv: (rv[0], rv[1].check))
        reg.counter("guard/rank_violations").inc(len(found))
        ranks = sorted({r for r, _ in found})
        for r, v in found:
            self.report.record(v, "raise", f"rank {r}")
        rank, violation = found[0]
        raise GuardViolationError(
            violation,
            f"rank {rank} aborted the collective step "
            f"(violating ranks: {ranks})")


class _RankView:
    """Duck-typed single-rank view satisfying the check protocol."""

    def __init__(self, rank_state, step_count: int):
        self.fields = rank_state.fields
        self.species = rank_state.species
        self.grid = rank_state.grid
        self.step_count = step_count


# -- overhead accounting ------------------------------------------------------


@dataclass(frozen=True)
class GuardOverheadReport:
    """Wall-clock cost of guarding a clean run."""

    deck_name: str
    steps: int
    plain_seconds: float
    guarded_seconds: float
    #: Rollback-ring pushes inside the timed guarded window.
    checkpoints: int = 0

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the guarded run (0.1 = 10% slower)."""
        if self.plain_seconds <= 0:
            return 0.0
        return max(0.0, self.guarded_seconds / self.plain_seconds - 1.0)

    def format(self) -> str:
        return (f"guard overhead on {self.deck_name} "
                f"({self.steps} steps, {self.checkpoints} checkpoints): "
                f"plain {self.plain_seconds * 1e3:.1f} ms, "
                f"guarded {self.guarded_seconds * 1e3:.1f} ms "
                f"(+{self.overhead_fraction:.1%})")


def measure_guard_overhead(deck=None, steps: int = 10,
                           policy: str = "raise",
                           checkpoint_interval: int = 20
                           ) -> GuardOverheadReport:
    """Time a clean deck plain vs under the default guard suite.

    *steps* is rounded up to a whole number of *checkpoint_interval*
    steps (the guard's ring cadence), so the timed window holds the
    ring's pushes in their steady share: the default 10 times 20
    steps and one push. Each run gets its own simulation and one
    untimed warm-up step.

    A report, not a gate: the end-to-end cost of the guard is what
    perfbench's ``observed`` workload measures (``guard.before_s``,
    ``guard.after_s``, ``obs.tools_share``). The layer's original bar
    (<10% of step time on a clean 16^3 deck) was set against the 10 ms
    numpy step. On the whole-step native lane the step now screens
    itself for the finiteness and bounds checks and the ring copies
    into memory, so what is left is the Gauss-law, div-B, energy and
    sort-order checks on their cadences.

    The plain run is ``Simulation.run``, which advances an unobserved
    deck in multi-step native calls, while the guard keeps one call
    per step. The reported cost therefore includes the per-step
    driver (Python step loop, ctypes marshalling, telemetry drain)
    that attaching a guard brings back, not only the checks.
    """
    from repro.kokkos.profiling import profiling_session

    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if checkpoint_interval > 0:
        steps = -(-steps // checkpoint_interval) * checkpoint_interval
    if deck is None:
        from repro.vpic.workloads import uniform_plasma_deck
        deck = uniform_plasma_deck(nx=16, ny=16, nz=16, ppc=8,
                                   num_steps=steps + 1)

    with profiling_session():
        plain = deck.build()
        plain.step()
        t0 = time.perf_counter()
        plain.run(steps)
        plain_seconds = time.perf_counter() - t0

    with profiling_session():
        guarded = deck.build()
        guard = SimulationGuard(policy=policy,
                                checkpoint_interval=checkpoint_interval)
        guard.attach(guarded)
        guarded.step()
        pushes = guard.ring.pushes if guard.ring is not None else 0
        t0 = time.perf_counter()
        guarded.run(steps)
        guarded_seconds = time.perf_counter() - t0
        if guard.ring is not None:
            pushes = guard.ring.pushes - pushes

    return GuardOverheadReport(deck_name=deck.name, steps=steps,
                               plain_seconds=plain_seconds,
                               guarded_seconds=guarded_seconds,
                               checkpoints=pushes)
