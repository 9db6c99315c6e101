"""Observability: tracing, metrics, and the run's flight record.

The paper's evaluation lives and dies on *attribution* — splitting
particle-push time from sort time from field-solve time and
correlating it with particle disorder and communication volume
(Figs. 4-10). VPIC 2.0 gets this from the Kokkos-Tools profiling
interface; this subpackage is the reproduction's measurement core,
the tools that attach to that interface:

- :mod:`~repro.observability.tracer` — a tool turning the callbacks
  into timestamped spans in a bounded ring buffer, exported as
  Chrome-trace JSON (loadable in ``chrome://tracing`` / Perfetto).
- :mod:`~repro.observability.metrics` — a registry of counters,
  gauges, and histograms (p50/p95/max) that the simulation loop, the
  sorter, the MPI substrate, and the bench harness report into, with
  JSON/CSV export.
- :mod:`~repro.observability.rank_profile` — one tracer lane per
  simulated MPI rank, merged Chrome trace, load-imbalance and
  halo-wait metrics (Figures 9-10).
- :mod:`~repro.observability.flight` / ``timeseries`` / ``live`` /
  ``watch`` — the per-step flight record, its live channel and the
  terminal panel over it.

Everything is **off by default**: with no tool registered the
dispatch sites reduce to one boolean check, and the expensive
derived metrics (energy drift, sort disorder) are gated behind
:func:`~repro.observability.metrics.set_detail`.

Layering: the one ``repro`` package below this one that it imports is
:mod:`repro.kokkos` (the callback registry,
:mod:`repro.kokkos.callbacks`, and the kernel timers); the PIC code
imports it, never the other way round. The views that lean on the
platform model — modeled counters, roofline placement, the HTML
dashboard and the overhead report — live in :mod:`repro.bench`
(``counters``, ``roofline_profiler``, ``dashboard``, ``overhead``).
"""

from repro.observability.events import CounterSeries, RingBuffer, SpanEvent
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    detail_enabled,
    set_detail,
)
from repro.observability.rank_profile import (
    RankProfiler,
    RankProfileReport,
    current_rank,
    rank_activity,
    rank_profiling,
    rank_scope,
)
from repro.observability.flight import (
    FlightRecorder,
    SegmentedLog,
    read_events,
    segment_paths,
)
from repro.observability.live import TelemetryPublisher, follow_events
from repro.observability.timeseries import StepSample, TimeSeriesRecorder
from repro.observability.tracer import ChromeTracer, tracing
from repro.observability.watch import WatchView, watch_run

__all__ = [
    "SpanEvent", "CounterSeries", "RingBuffer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "set_detail", "detail_enabled",
    "ChromeTracer", "tracing",
    "RankProfiler", "RankProfileReport", "rank_profiling",
    "rank_scope", "rank_activity", "current_rank",
    "StepSample", "TimeSeriesRecorder",
    "FlightRecorder", "SegmentedLog", "read_events", "segment_paths",
    "TelemetryPublisher", "follow_events",
    "WatchView", "watch_run",
]
