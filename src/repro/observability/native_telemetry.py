"""Drain adapter for the native telemetry channel (ISSUE 8).

The whole-step native lane advances fields, push, and sort inside
one C call — of one step, or of a chunk of steps — so Python never
wraps the individual kernels and live begin/end interposition is
impossible there. Instead the C step fills a packed per-phase stats
struct (CLOCK_MONOTONIC phase timings, per-species push seconds,
particle / boundary-crossing / ghost-fold / sort-event counters; see
``NDeck`` / ``NSpecies`` in :mod:`repro.vpic.native`), and this module
drains it after every native call, synthesizing the exact events the
existing stack expects:

- kernel timers under the established names (``step/field_solve``,
  ``step/native_push/<species>``, ``step/sort/native``) via
  :func:`~repro.kokkos.profiling.add_kernel_time`, which also feeds
  telemetry-compatible tools through ``dispatch_complete_kernel`` —
  ChromeTracer records back-dated spans, CounterTool accumulates the
  accounting its post-hoc perfmodel binding prices;
- metrics counters/histograms (``native/step_seconds``,
  ``native/cell_crossings``, ``native/ghost_folds``,
  ``native/sort_events``);
- :class:`~repro.observability.timeseries.TimeSeriesRecorder`
  StepSamples pick the same labels up from the kernel-timer deltas,
  unchanged.

The push-scope lane's one push call per step fills the same struct
(push phase only); :func:`drain_push` puts its per-species seconds on
the labels that lane has always used (``step/push/<species>``).

The drain itself is timed (:func:`drain_stats`): the overhead guard
in ``tests/test_native_telemetry.py`` and the ``report --metrics``
line both read that self-measurement, keeping the channel honest
about its own cost.
"""

from __future__ import annotations

import time

from repro.kokkos.profiling import add_kernel_time
from repro.observability.metrics import default_registry

__all__ = ["drain_step", "drain_push", "drain_stats", "reset_drain_stats"]

_drains = 0
_drain_seconds = 0.0


def drain_stats() -> dict:
    """Self-measured cost of the drain: ``{"drains", "seconds"}``."""
    return {"drains": _drains, "seconds": _drain_seconds}


def reset_drain_stats() -> None:
    global _drains, _drain_seconds
    _drains = 0
    _drain_seconds = 0.0


def _account(dt: float) -> None:
    global _drains, _drain_seconds
    _drains += 1
    _drain_seconds += dt


def _attribute(sim, res, steps: int) -> None:
    """Fold one drained stats payload of *steps* steps into
    timers/tools/metrics.

    Labels match the Python lanes' attribution scheme exactly; the
    per-species push seconds are *measured* in C (not prorated by
    particle count), with the table-build remainder of the push
    phase credited to ``native_push/table`` so the native_push/*
    family still sums to the phase total. Each timer counts *steps*
    launches (the sort timer one per sort the call made), and the
    ``native/step_seconds`` sample is normalized back to per-step.
    """
    reg = default_registry()
    add_kernel_time("field_solve", res["field"], launches=steps)
    species = res.get("species") or ()
    accounted = 0.0
    for sp, stats in zip(sim.species, species):
        if sp.n and stats["seconds"] > 0.0:
            add_kernel_time(f"native_push/{sp.name}",
                            stats["seconds"], launches=steps)
            accounted += stats["seconds"]
    remainder = res["push"] - accounted
    if remainder > 0.0:
        add_kernel_time("native_push/table", remainder, launches=steps)
    reg.histogram("native/step_seconds").observe(res["push"] / steps)
    if res["sorts_done"]:
        add_kernel_time("sort/native", res["sort"],
                        launches=res["sorts_done"])
    _count(reg, res.get("counters"))


def _count(reg, counters) -> None:
    if counters:
        for key, name in (("crossings", "native/cell_crossings"),
                          ("ghost_folds", "native/ghost_folds"),
                          ("sort_events", "native/sort_events")):
            if counters[key]:
                reg.counter(name).inc(counters[key])


def drain_step(sim, res, steps: int = 1) -> None:
    """Drain one :func:`repro.vpic.native.step_simulation` payload, or
    one deck's share of a :func:`~repro.vpic.native.step_batch` one —
    a native call that advanced *sim* by *steps* steps."""
    t0 = time.perf_counter()
    _attribute(sim, res, steps)
    _account(time.perf_counter() - t0)


def drain_push(sim, res) -> None:
    """Drain one :func:`repro.vpic.native.push_simulation` payload —
    the push-scope lane's one C push per step: each species' measured
    push seconds onto the label that lane has always used,
    ``push/<species>``; the push phase onto ``native/step_seconds``;
    crossings and folds onto the native counters."""
    t0 = time.perf_counter()
    reg = default_registry()
    for sp, stats in zip(sim.species, res["species"]):
        if sp.n:
            add_kernel_time(f"push/{sp.name}", stats["seconds"])
    reg.histogram("native/step_seconds").observe(res["push"])
    _count(reg, res["counters"])
    _account(time.perf_counter() - t0)
