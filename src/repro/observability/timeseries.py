"""Per-step time-series sampling for live run telemetry.

All observability before this module is post-hoc: traces, metrics,
and profiles are exported after the run exits, and a crash loses the
in-flight picture. :class:`TimeSeriesRecorder` is the live substrate:
it attaches to a :class:`~repro.vpic.simulation.Simulation` (or a
:class:`~repro.mpi.distributed.DistributedSimulation`) and, every
``stride`` steps, folds one :class:`StepSample` into a bounded ring
buffer:

- step wall time (as reported by the step loop itself);
- per-phase kernel time deltas from the always-on
  :func:`repro.kokkos.profiling.kernel_timings` accumulators, folded
  into push / native / field / sort / boundary / comm / guard lanes;
- particle count (total, and per rank for distributed runs, with the
  (max-mean)/mean load imbalance and the ``rank/halo_wait_fraction``
  gauge when a rank profiler is live);
- energy diagnostics (field E/B, kinetic, total, drift vs the first
  sampled total) every ``energy_every``-th sample — the only O(N)
  part of a sample, so it has its own cadence;
- guard activity (cumulative violations / repairs / rollbacks) when
  a guard is attached.

The recorder measures its own cost: every sampling call is timed and
accumulated in :attr:`overhead_seconds`, so a run can state what the
telemetry cost it (``repro run-deck --record`` prints it; perfbench's
``observed`` workload reports it as ``obs.recorder_s`` and
``obs.tools_share``).

Samples fan out to ``listeners`` — the
:class:`~repro.observability.flight.FlightRecorder` subscribes one to
stream every sample to the on-disk JSONL flight log.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.observability.events import RingBuffer

__all__ = ["StepSample", "TimeSeriesRecorder", "phase_of"]

#: Kernel-label fragments -> phase lane, checked in order (the native
#: span nests inside the push region, so it is matched first).
_PHASE_RULES = (
    ("native_push", "native"),
    ("push/", "push"),
    ("field_solve", "field"),
    ("field/", "field"),
    ("sort/", "sort"),
    ("boundary/", "boundary"),
    ("halo/", "comm"),
    ("migrate", "comm"),
    ("guard/", "guard"),
)

PHASES = ("push", "native", "field", "sort", "boundary", "comm",
          "guard", "other")


def phase_of(label: str) -> str:
    """Fold a kernel-timer label into its step-phase lane."""
    for frag, phase in _PHASE_RULES:
        if frag in label:
            return phase
    return "other"


class StepSample:
    """One sampled step: plain data, JSON-ready via :meth:`to_event`."""

    __slots__ = ("step", "t", "step_seconds", "particles", "phase_ms",
                 "energy", "guard", "ranks")

    def __init__(self, step: int, t: float, step_seconds: float,
                 particles: int, phase_ms: dict,
                 energy: dict | None = None, guard: dict | None = None,
                 ranks: dict | None = None):
        self.step = step
        self.t = t
        self.step_seconds = step_seconds
        self.particles = particles
        self.phase_ms = phase_ms
        self.energy = energy
        self.guard = guard
        self.ranks = ranks

    def to_event(self) -> dict:
        """The flight-log JSONL event for this sample."""
        ev = {"ev": "step", "step": self.step,
              "t": round(self.t, 6),
              "step_seconds": round(self.step_seconds, 9),
              "particles": self.particles,
              "phase_ms": {k: round(v, 4)
                           for k, v in self.phase_ms.items() if v > 0}}
        if self.energy is not None:
            ev["energy"] = self.energy
        if self.guard is not None:
            ev["guard"] = self.guard
        if self.ranks is not None:
            ev["ranks"] = self.ranks
        return ev

    def __repr__(self) -> str:
        return (f"StepSample(step={self.step}, "
                f"step_seconds={self.step_seconds:.6f}, "
                f"particles={self.particles})")


class TimeSeriesRecorder:
    """Bounded per-step sampling with self-measured overhead.

    Parameters
    ----------
    stride:
        Sample every N-th step (1 = every step). Skipped steps cost
        one modulo and one branch.
    capacity:
        Ring-buffer depth; the oldest samples are evicted (and
        counted) once full, so the in-memory tail — what a crash dump
        captures — covers the most recent ``capacity`` samples.
    energy_every:
        Compute the O(N) energy diagnostics on every N-th *sample*
        (0 disables them entirely).
    """

    def __init__(self, stride: int = 1, capacity: int = 4096,
                 energy_every: int = 10,
                 clock: Callable[[], float] = time.perf_counter):
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.stride = stride
        self.buffer = RingBuffer(capacity)
        self.energy_every = energy_every
        self.listeners: list[Callable[[StepSample], None]] = []
        self.steps_seen = 0
        self.samples_taken = 0
        self.overhead_seconds = 0.0
        self._clock = clock
        self._epoch = time.time() - clock()
        self._kernel_prev: dict[str, float] = {}
        self._energy0: float | None = None
        self._last_drift: float | None = None

    # -- attachment ---------------------------------------------------------

    def attach(self, sim):
        """Bind this recorder to *sim*'s step loop."""
        sim.recorder = self
        return sim

    # -- loop hooks ---------------------------------------------------------

    def on_run_start(self, sim, num_steps: int) -> None:
        """Called by the driver when a run begins (subclass hook)."""

    def on_crash(self, sim, exc: BaseException) -> None:
        """Called when an exception escapes the run loop (hook)."""

    def reads_energy(self) -> bool:
        """Whether the next :meth:`on_step` samples the energy totals."""
        return (self.energy_every > 0
                and (self.steps_seen + 1) % self.stride == 0
                and self.samples_taken % self.energy_every == 0)

    def on_step(self, sim, step_seconds: float) -> None:
        """Sample *sim* after one completed step (stride-gated)."""
        self.steps_seen += 1
        if self.steps_seen % self.stride != 0:
            return
        t0 = self._clock()
        sample = self._sample(sim, step_seconds, self._epoch + t0)
        self.buffer.append(sample)
        self.samples_taken += 1
        for listener in self.listeners:
            listener(sample)
        self.overhead_seconds += self._clock() - t0

    # -- sampling -----------------------------------------------------------

    def _sample(self, sim, step_seconds: float, t: float) -> StepSample:
        distributed = hasattr(sim, "ranks")
        particles = (sim.total_particles() if distributed
                     else sim.total_particles)
        energy = None
        if self.energy_every and \
                self.samples_taken % self.energy_every == 0:
            energy = self._energy(sim, distributed)
        guard = None
        if getattr(sim, "guard", None) is not None:
            rep = sim.guard.report
            guard = {"violations": rep.violations,
                     "repairs": rep.repairs,
                     "rollbacks": rep.rollbacks}
        ranks = self._rank_aggregates(sim) if distributed else None
        return StepSample(step=sim.step_count, t=t,
                          step_seconds=step_seconds,
                          particles=particles,
                          phase_ms=self._phase_deltas(),
                          energy=energy, guard=guard, ranks=ranks)

    def _phase_deltas(self) -> dict:
        """Per-phase kernel milliseconds since the previous sample."""
        from repro.kokkos.profiling import kernel_timings
        phases: dict[str, float] = {}
        prev = self._kernel_prev
        for label, timer in kernel_timings().items():
            delta = timer.seconds - prev.get(label, 0.0)
            prev[label] = timer.seconds
            if delta > 0:
                phase = phase_of(label)
                phases[phase] = phases.get(phase, 0.0) + delta * 1e3
        return phases

    def _energy(self, sim, distributed: bool) -> dict:
        if distributed:
            e, b = sim.total_field_energy()
            k = sim.total_kinetic_energy()
        else:
            e, b, k = sim.energy_totals()
        total = e + b + k
        if self._energy0 is None:
            self._energy0 = total
        drift = (abs(total - self._energy0) / abs(self._energy0)
                 if self._energy0 else 0.0)
        self._last_drift = drift
        return {"field_e": e, "field_b": b, "kinetic": k,
                "total": total, "drift": drift}

    @staticmethod
    def _rank_aggregates(dsim) -> dict:
        from repro.observability.metrics import default_registry
        per_rank = [sum(sp.n for sp in rs.species) for rs in dsim.ranks]
        mean = sum(per_rank) / len(per_rank) if per_rank else 0.0
        imbalance = ((max(per_rank) - mean) / mean
                     if mean > 0 else 0.0)
        out = {"n_ranks": len(per_rank), "particles": per_rank,
               "load_imbalance": round(imbalance, 4)}
        halo = default_registry().gauge("rank/halo_wait_fraction").value
        if halo:
            out["halo_wait_fraction"] = round(halo, 4)
        return out

    # -- inspection ---------------------------------------------------------

    def samples(self) -> list[StepSample]:
        """Retained samples, oldest first."""
        return self.buffer.snapshot()

    def tail(self, n: int | None = None) -> list[dict]:
        """The newest *n* samples as JSONL-shaped events (all when
        *n* is None) — the crash-dump payload."""
        events = [s.to_event() for s in self.buffer]
        return events if n is None else events[-n:]

    def series(self, name: str) -> list:
        """One column over the retained samples (e.g. ``step``,
        ``step_seconds``, ``particles``)."""
        return [getattr(s, name) for s in self.buffer]

    @property
    def last_energy_drift(self) -> float | None:
        return self._last_drift

    def overhead_fraction(self, run_seconds: float) -> float:
        """Recorder cost as a fraction of *run_seconds* of stepping."""
        if run_seconds <= 0:
            return 0.0
        return self.overhead_seconds / run_seconds

    def summary(self) -> dict:
        """Plain-data self-description (goes into ``run_end``)."""
        per_sample = (self.overhead_seconds / self.samples_taken
                      if self.samples_taken else 0.0)
        return {"stride": self.stride,
                "steps_seen": self.steps_seen,
                "samples": self.samples_taken,
                "retained": len(self.buffer),
                "dropped": self.buffer.dropped,
                "overhead_seconds": round(self.overhead_seconds, 6),
                "overhead_us_per_sample": round(per_sample * 1e6, 2)}
