"""Metrics registry: counters, gauges, histograms with percentiles.

The simulation loop, the sorter, the MPI substrate, and the bench
harness report into a process-wide :class:`MetricsRegistry`
(:func:`default_registry`), the way a production service reports into
Prometheus. Everything here is cheap enough to leave on: a counter
increment is one dict-free attribute add, and instruments are created
once and cached by the call sites.

Derived metrics that require extra O(N) work per step — energy-
conservation drift, particle-order disorder around a sort — are gated
behind the module-level *detail* flag (:func:`set_detail`), which the
CLI raises only when a trace or metrics export was requested. On the
whole-step native lane the step itself measures what they read (the
energy totals, the descents the C sort sees), the same values the
numpy passes give elsewhere.

Standard instrument names (see also ``kernels`` in the export, folded
from :func:`repro.kokkos.profiling.kernel_timings`):

==========================  =========  =================================
name                        kind       meaning
==========================  =========  =================================
``sim/steps``               counter    timesteps completed
``sim/particles_pushed``    counter    particle pushes executed
``sim/step_seconds``        histogram  wall time per step
``sim/energy_drift``        gauge      |E_total - E_0| / E_0  (detail;
                                       energy from the native step's
                                       pass on that lane)
``native/step_seconds``     histogram  compiled push-tile call time
``sort/applied``            counter    species sort events
``sort/disorder_before``    gauge      adjacent-pair disorder of the
                                       last sorted species (detail;
                                       C sort: its descent count)
``sort/disorder_after``     gauge      idem, after the sort: 0.0 for
                                       the native sort (detail)
``mpi/messages``            counter    point-to-point messages sent
``mpi/bytes``               counter    payload bytes sent
``mpi/log_dropped``         counter    MessageLog rows evicted
``halo/exchanges``          counter    ghost-cell exchange phases
``halo/reductions``         counter    ghost-sum reduction phases
``report/section_seconds``  histogram  bench-report section wall time
``perfmodel/memo_hits``     counter    prediction-memo cache hits
``perfmodel/memo_misses``   counter    prediction-memo cache misses
``rank/load_imbalance``     gauge      (max-mean)/mean of per-rank push
``rank/halo_wait_fraction`` gauge      comm share of busy rank time
``guard/checks_run``        counter    invariant checks executed
``guard/violations``        counter    invariant violations detected
``guard/repairs``           counter    successful in-place auto-repairs
``guard/rollbacks``         counter    checkpoint-ring rollbacks taken
``guard/rank_violations``   counter    per-rank violations (distributed)
==========================  =========  =================================
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_detail",
    "detail_enabled",
    "collect_kernel_metrics",
    "STANDARD_COUNTERS",
]

#: Counters every metrics export should contain even when untouched,
#: so downstream consumers can rely on their presence (a two-stream
#: run has zero MPI traffic but still reports ``mpi/bytes: 0``).
STANDARD_COUNTERS = ("sim/steps", "sim/particles_pushed", "sort/applied",
                     "mpi/messages", "mpi/bytes")

_detail = False


def set_detail(enabled: bool) -> None:
    """Toggle expensive derived metrics (energy drift, disorder)."""
    global _detail
    _detail = bool(enabled)


def detail_enabled() -> bool:
    return _detail


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming distribution: exact count/sum/min/max, windowed
    percentiles.

    Percentiles are computed over the most recent ``window`` samples
    (bounded memory); count/sum/min/max cover every observation.
    """

    __slots__ = ("name", "window", "count", "total", "min", "max",
                 "_samples")

    def __init__(self, name: str, window: int = 4096):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.name = name
        self.window = window
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) >= self.window:
            del self._samples[0]
        self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def window_full(self) -> bool:
        """Whether the percentile window has wrapped: when True,
        percentiles describe only the most recent ``window``
        observations, not the full history."""
        return self.count > self.window

    def percentile(self, p: float) -> float:
        """p-th percentile over the retained window.

        *p* must be in [0, 100]; an empty window reports 0.0 (an
        instrument that was created but never observed).
        """
        p = float(p)
        if not 0.0 <= p <= 100.0:
            raise ValueError(
                f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, p))

    def snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "total_observed": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "window_full": self.window_full,
        }
        if self.window_full:
            # Percentiles cover only the retained window — say so
            # instead of letting truncation pass silently.
            snap["note"] = (f"percentiles over last {self.window} of "
                            f"{self.count} observations")
        return snap

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples.clear()


class MetricsRegistry:
    """Named instruments, created on first use and kept forever.

    ``reset()`` zeroes values *in place* — call sites may cache the
    instrument objects, so identity must survive a reset.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, window: int = 4096) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, window)
        return h

    def names(self) -> list[str]:
        return sorted({*self._counters, *self._gauges, *self._histograms})

    def snapshot(self) -> dict:
        """Plain-data view: ``{"counters": .., "gauges": ..,
        "histograms": ..}``."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()

    # -- export ---------------------------------------------------------------

    def export_document(self, include_kernels: bool = True) -> dict:
        """Snapshot plus the kokkos kernel timers, with the standard
        counters guaranteed present."""
        for name in STANDARD_COUNTERS:
            self.counter(name)
        doc = self.snapshot()
        if include_kernels:
            doc["kernels"] = collect_kernel_metrics()
        return doc

    def save_json(self, path: str, include_kernels: bool = True) -> str:
        with open(path, "w") as f:
            json.dump(self.export_document(include_kernels), f, indent=1)
        return path

    def save_csv(self, path: str, include_kernels: bool = True) -> str:
        """Flat ``kind,name,field,value`` rows (spreadsheet-friendly)."""
        doc = self.export_document(include_kernels)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["kind", "name", "field", "value"])
            for name, value in doc["counters"].items():
                w.writerow(["counter", name, "value", value])
            for name, value in doc["gauges"].items():
                w.writerow(["gauge", name, "value", value])
            for name, snap in doc["histograms"].items():
                for fld, value in snap.items():
                    w.writerow(["histogram", name, fld, value])
            for name, row in doc.get("kernels", {}).items():
                for fld, value in row.items():
                    w.writerow(["kernel", name, fld, value])
        return path

    def save(self, path: str, include_kernels: bool = True) -> str:
        """Dispatch on extension: ``.csv`` -> CSV, anything else JSON."""
        if path.endswith(".csv"):
            return self.save_csv(path, include_kernels)
        return self.save_json(path, include_kernels)


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the instrumented layers report into."""
    return _default


def collect_kernel_metrics() -> dict:
    """Fold :func:`repro.kokkos.profiling.kernel_timings` into plain
    rows: ``{label: {"seconds", "launches", "mean_seconds"}}``.

    Imported lazily — the kokkos layer imports this package, so the
    edge must not exist at import time.
    """
    from repro.kokkos.profiling import kernel_timings
    return {
        label: {"seconds": t.seconds, "launches": t.launches,
                "mean_seconds": t.mean_seconds}
        for label, t in sorted(kernel_timings().items())
    }
