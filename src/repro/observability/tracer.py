"""Event tracer: callbacks -> spans -> Chrome-trace JSON.

:class:`ChromeTracer` is a tool for the
:mod:`~repro.kokkos.callbacks` registry. Every kernel launch,
fence, and profiling region becomes a complete-span event
(``ph: "X"``) with microsecond timestamps in a bounded ring buffer;
:meth:`ChromeTracer.save` writes the Chrome trace-event JSON that
``chrome://tracing`` and Perfetto load directly.

Span categories:

- ``parallel_for`` / ``parallel_reduce`` / ``parallel_scan`` — kokkos
  pattern dispatches;
- ``kernel`` — generic timed blocks (``record_kernel``: the push,
  sort, field-solve, boundary sections of the simulation loop);
- ``comm`` — halo exchanges and other communication sections;
- ``region`` — ``push_region``/``pop_region`` nesting (one span per
  region instance, closed at pop);
- ``fence`` — device fences (zero-duration in the simulated runtime).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Iterator

from repro.kokkos.callbacks import register_tool, unregister_tool
from repro.observability.events import RingBuffer, SpanEvent

__all__ = ["ChromeTracer", "tracing"]


class ChromeTracer:
    """Collects span events from the callback registry.

    ``capacity`` bounds the ring buffer; once full, the *oldest*
    spans are evicted and counted (``buffer.dropped``), so a trace of
    a long run keeps its tail — the usual region of interest — and
    reports its own truncation in ``otherData``.

    The tracer is *telemetry-compatible*: it only needs (name,
    category, duration) per span, so the whole-step native lane can
    stay selected and feed it drained spans through
    :meth:`complete_kernel` instead of live begin/end interposition.
    """

    native_telemetry_ok = True

    def __init__(self, capacity: int = 65536, pid: int = 0,
                 clock=time.perf_counter, process_name: str | None = None,
                 epoch: float | None = None):
        self.buffer = RingBuffer(capacity)
        self.pid = pid
        self.process_name = process_name
        self._clock = clock
        # A shared *epoch* puts several tracers (e.g. one per simulated
        # rank) on one timeline, so their merged trace lines up.
        self._epoch = epoch if epoch is not None else clock()
        #: kernel_id -> (name, category, begin timestamp in us)
        self._open_kernels: dict[int, tuple[str, str, float]] = {}
        #: per-thread stack of (region name, begin timestamp in us)
        self._open_regions: dict[int, list[tuple[str, float]]] = {}
        self._open_fences: dict[int, tuple[str, float]] = {}
        #: launches partitioned per execution space name
        self.partitions: dict[str, int] = {}

    # -- clock ----------------------------------------------------------------

    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    @staticmethod
    def _tid() -> int:
        return threading.get_ident() & 0xFFFFFFFF

    # -- kernel callbacks (generic + per-pattern) -----------------------------

    def _begin(self, cat: str, name: str, kernel_id: int) -> None:
        self._open_kernels[kernel_id] = (name, cat, self._now_us())

    def _end(self, name: str, kernel_id: int) -> None:
        opened = self._open_kernels.pop(kernel_id, None)
        if opened is None:
            return                      # end without begin: tool attached mid-kernel
        name, cat, t0 = opened
        self.buffer.append(SpanEvent(name=name, cat=cat, start_us=t0,
                                     dur_us=self._now_us() - t0,
                                     pid=self.pid, tid=self._tid()))

    def complete_kernel(self, name: str, kind: str,
                        seconds: float) -> None:
        """Record a span for a kernel that already ran (the native
        telemetry channel): back-dated so it *ends* now and spans its
        measured duration."""
        end = self._now_us()
        dur = seconds * 1e6
        self.buffer.append(SpanEvent(name=name, cat=kind,
                                     start_us=end - dur, dur_us=dur,
                                     pid=self.pid, tid=self._tid()))

    def begin_kernel(self, name: str, kernel_id: int) -> None:
        self._begin("kernel", name, kernel_id)

    def end_kernel(self, name: str, kernel_id: int,
                   seconds: float) -> None:
        self._end(name, kernel_id)

    def begin_parallel_for(self, name: str, kernel_id: int) -> None:
        self._begin("parallel_for", name, kernel_id)

    def end_parallel_for(self, name: str, kernel_id: int,
                         seconds: float) -> None:
        self._end(name, kernel_id)

    def begin_parallel_reduce(self, name: str, kernel_id: int) -> None:
        self._begin("parallel_reduce", name, kernel_id)

    def end_parallel_reduce(self, name: str, kernel_id: int,
                            seconds: float) -> None:
        self._end(name, kernel_id)

    def begin_parallel_scan(self, name: str, kernel_id: int) -> None:
        self._begin("parallel_scan", name, kernel_id)

    def end_parallel_scan(self, name: str, kernel_id: int,
                          seconds: float) -> None:
        self._end(name, kernel_id)

    def begin_comm(self, name: str, kernel_id: int) -> None:
        self._begin("comm", name, kernel_id)

    def end_comm(self, name: str, kernel_id: int,
                 seconds: float) -> None:
        self._end(name, kernel_id)

    # -- regions --------------------------------------------------------------

    def push_region(self, name: str) -> None:
        stack = self._open_regions.setdefault(self._tid(), [])
        stack.append((name, self._now_us()))

    def pop_region(self, name: str) -> None:
        stack = self._open_regions.get(self._tid())
        if not stack:
            return
        opened, t0 = stack.pop()
        self.buffer.append(SpanEvent(name=opened, cat="region",
                                     start_us=t0,
                                     dur_us=self._now_us() - t0,
                                     pid=self.pid, tid=self._tid()))

    # -- fences ---------------------------------------------------------------

    def begin_fence(self, name: str, fence_id: int) -> None:
        self._open_fences[fence_id] = (name, self._now_us())

    def end_fence(self, name: str, fence_id: int) -> None:
        opened = self._open_fences.pop(fence_id, None)
        if opened is None:
            return
        name, t0 = opened
        self.buffer.append(SpanEvent(name=name, cat="fence", start_us=t0,
                                     dur_us=self._now_us() - t0,
                                     pid=self.pid, tid=self._tid()))

    # -- partition accounting -------------------------------------------------

    def partition(self, space_name: str, begin: int, end: int) -> None:
        self.partitions[space_name] = self.partitions.get(space_name, 0) + 1

    # -- inspection and export ------------------------------------------------

    def spans(self) -> list[SpanEvent]:
        """Retained spans, oldest first."""
        return self.buffer.snapshot()

    def totals_by_name(self) -> dict[str, tuple[float, int]]:
        """``{name: (total seconds, span count)}`` over retained spans."""
        out: dict[str, tuple[float, int]] = {}
        for s in self.buffer:
            sec, n = out.get(s.name, (0.0, 0))
            out[s.name] = (sec + s.dur_us * 1e-6, n + 1)
        return out

    @property
    def epoch(self) -> float:
        """Clock reading all timestamps are relative to."""
        return self._epoch

    def metadata_events(self) -> list[dict]:
        """Chrome-trace metadata (``ph: "M"``) naming the lanes.

        Emits ``process_name`` when the tracer has one, and a
        ``thread_name`` per tid seen in the retained spans — live
        thread names where the thread still exists, a stable
        placeholder otherwise — so Perfetto shows names, not bare ids.
        """
        events = []
        if self.process_name:
            events.append({"name": "process_name", "ph": "M",
                           "pid": self.pid, "tid": 0,
                           "args": {"name": self.process_name}})
        alive = {t.ident & 0xFFFFFFFF: t.name
                 for t in threading.enumerate() if t.ident is not None}
        for tid in sorted({s.tid for s in self.buffer}):
            events.append({"name": "thread_name", "ph": "M",
                           "pid": self.pid, "tid": tid,
                           "args": {"name": alive.get(tid,
                                                      f"thread {tid}")}})
        return events

    def to_chrome(self) -> dict:
        """The full Chrome trace-event document."""
        return {
            "traceEvents": self.metadata_events()
            + [s.to_chrome() for s in self.buffer],
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_events": self.buffer.dropped,
                "retained_events": len(self.buffer),
                "partitions": dict(self.partitions),
            },
        }

    def save(self, path: str) -> str:
        """Write the trace as Chrome-trace JSON; returns *path*."""
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f)
        return path

    def clear(self) -> None:
        self.buffer.clear()
        self._open_kernels.clear()
        self._open_regions.clear()
        self._open_fences.clear()
        self.partitions.clear()


@contextlib.contextmanager
def tracing(capacity: int = 65536,
            tracer: ChromeTracer | None = None) -> Iterator[ChromeTracer]:
    """``with tracing() as t: ...`` — register a tracer for the block.

    The tracer is unregistered on exit but keeps its buffer, so the
    caller can export after the block closes.
    """
    t = tracer if tracer is not None else ChromeTracer(capacity)
    register_tool(t)
    try:
        yield t
    finally:
        unregister_tool(t)
