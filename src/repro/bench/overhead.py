"""Self-measuring overhead accounting for the instrumentation layer.

An observability layer that cannot state its own cost is a
measurement hazard: the paper's runtime attributions are only valid
if the hooks they flow through are cheap relative to the kernels
they time. :func:`measure_overhead` times the three states of a
``record_kernel`` site —

1. **baseline** — the bare workload call, no instrumentation;
2. **off** — wrapped in ``record_kernel`` with no tool registered
   (the shipped default: timers accumulate, callbacks short-circuit
   on one boolean);
3. **traced** — with a :class:`~repro.observability.tracer.
   ChromeTracer` attached (spans into the ring buffer);

and reports per-event costs. :meth:`OverheadReport.format` can relate
them to a measured kernel time (e.g. the Fig. 4 push kernel's
per-launch seconds) to state overhead as a fraction of real work —
the number ``python -m repro trace`` prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["OverheadReport", "measure_overhead",
           "NativeTelemetryOverhead",
           "measure_native_telemetry_overhead"]


@dataclass(frozen=True)
class OverheadReport:
    """Per-event instrumentation costs, in nanoseconds."""

    iterations: int
    baseline_ns: float
    off_ns: float
    traced_ns: float

    @property
    def off_overhead_ns(self) -> float:
        """Added cost per event, instrumented but no tool attached."""
        return max(0.0, self.off_ns - self.baseline_ns)

    @property
    def traced_overhead_ns(self) -> float:
        """Added cost per event with the Chrome tracer attached."""
        return max(0.0, self.traced_ns - self.baseline_ns)

    def overhead_fraction(self, kernel_seconds: float,
                          traced: bool = False) -> float:
        """Overhead as a fraction of one kernel launch lasting
        *kernel_seconds* (one begin/end pair per launch)."""
        if kernel_seconds <= 0:
            return 0.0
        per_event = (self.traced_overhead_ns if traced
                     else self.off_overhead_ns)
        return per_event * 1e-9 / kernel_seconds

    def format(self, kernel_seconds: float | None = None,
               kernel_label: str = "kernel") -> str:
        lines = [
            "instrumentation overhead "
            f"({self.iterations} events/state):",
            f"  bare call            {self.baseline_ns:10.0f} ns/event",
            f"  record_kernel, off   {self.off_ns:10.0f} ns/event "
            f"(+{self.off_overhead_ns:.0f} ns)",
            f"  record_kernel, traced{self.traced_ns:10.0f} ns/event "
            f"(+{self.traced_overhead_ns:.0f} ns)",
        ]
        if kernel_seconds is not None and kernel_seconds > 0:
            off = self.overhead_fraction(kernel_seconds)
            on = self.overhead_fraction(kernel_seconds, traced=True)
            lines.append(
                f"  vs one {kernel_label} launch "
                f"({kernel_seconds * 1e3:.3f} ms): "
                f"off {off:.3%}, traced {on:.3%}")
        return "\n".join(lines)


def _time_per_call(fn, iterations: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations * 1e9


def measure_overhead(iterations: int = 20_000,
                     workload=None) -> OverheadReport:
    """Measure the three instrumentation states; see module docs.

    *workload* is the body simulated inside each event (default: a
    no-op), so callers can weight the probe with representative work.
    The measurement runs inside a ``profiling_session`` and a
    throwaway tracer, leaking neither timers nor tools.
    """
    # Lazy imports: this package must stay import-clean of the kokkos
    # layer (which imports us).
    from repro.kokkos.profiling import profiling_session, record_kernel
    from repro.observability.tracer import tracing

    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    work = workload if workload is not None else (lambda: None)

    def bare() -> None:
        work()

    def instrumented() -> None:
        with record_kernel("overhead_probe"):
            work()

    # Warm-up so allocator/JIT-free Python bytecode caches are hot.
    _time_per_call(instrumented, min(iterations, 512))

    baseline_ns = _time_per_call(bare, iterations)
    with profiling_session():
        off_ns = _time_per_call(instrumented, iterations)
    with profiling_session():
        with tracing(capacity=1024):
            traced_ns = _time_per_call(instrumented, iterations)

    return OverheadReport(iterations=iterations, baseline_ns=baseline_ns,
                          off_ns=off_ns, traced_ns=traced_ns)


@dataclass(frozen=True)
class NativeTelemetryOverhead:
    """Cost of the drained native telemetry channel on one deck."""

    deck_name: str
    steps: int
    plain_seconds: float
    telemetry_seconds: float
    #: Self-measured drain cost (struct read + event synthesis).
    drain_seconds: float
    drains: int

    @property
    def drain_fraction(self) -> float:
        """Drain cost as a fraction of the telemetered step time —
        the budget the <5% overhead guard enforces."""
        if self.telemetry_seconds <= 0:
            return 0.0
        return self.drain_seconds / self.telemetry_seconds

    @property
    def slowdown_fraction(self) -> float:
        """End-to-end slowdown of the telemetered run (wall clock)."""
        if self.plain_seconds <= 0:
            return 0.0
        return max(0.0,
                   self.telemetry_seconds / self.plain_seconds - 1.0)

    def format(self) -> str:
        per_drain_us = (self.drain_seconds / self.drains * 1e6
                        if self.drains else 0.0)
        return (
            f"native telemetry drain on {self.deck_name} "
            f"({self.steps} steps): plain "
            f"{self.plain_seconds * 1e3:.1f} ms, telemetered "
            f"{self.telemetry_seconds * 1e3:.1f} ms "
            f"(+{self.slowdown_fraction:.1%}); drain "
            f"{per_drain_us:.1f} us/step = "
            f"{self.drain_fraction:.2%} of step time")


def measure_native_telemetry_overhead(
        deck=None, steps: int = 30) -> "NativeTelemetryOverhead | None":
    """Time whole-step native runs bare vs with the full telemetry-
    compatible stack (ChromeTracer + CounterTool + detail metrics)
    attached, and report the drain's self-measured share.

    Returns ``None`` when the deck cannot take the whole-step native
    lane (no compiler, ineligible configuration) — there is no native
    channel to measure then.
    """
    from repro.bench.counters import CounterTool
    from repro.kokkos.callbacks import (register_tool,
                                        unregister_tool)
    from repro.kokkos.profiling import profiling_session
    from repro.machine.specs import get_platform
    from repro.observability import native_telemetry
    from repro.observability.tracer import ChromeTracer

    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if deck is None:
        from repro.vpic.workloads import uniform_plasma_deck
        deck = uniform_plasma_deck(num_steps=steps)

    def timed_run(with_tools: bool) -> "float | None":
        with profiling_session():
            sim = deck.build()
            sim.step()                      # warm: compile + arenas
            if sim.lane().label != "native-step":
                return None
            tools = []
            if with_tools:
                tools.append(register_tool(ChromeTracer()))
                tools.append(register_tool(
                    CounterTool(get_platform("A100"))))
            try:
                t0 = time.perf_counter()
                for _ in range(steps):
                    sim.step()
                return time.perf_counter() - t0
            finally:
                for tool in tools:
                    unregister_tool(tool)

    plain_seconds = timed_run(False)
    if plain_seconds is None:
        return None
    native_telemetry.reset_drain_stats()
    telemetry_seconds = timed_run(True)
    stats = native_telemetry.drain_stats()
    if telemetry_seconds is None:
        return None
    return NativeTelemetryOverhead(
        deck_name=deck.name,
        steps=steps,
        plain_seconds=plain_seconds,
        telemetry_seconds=telemetry_seconds,
        drain_seconds=stats["seconds"],
        drains=stats["drains"],
    )
