"""Per-rank timelines for the simulated MPI world (Figures 9-10).

The paper explains its scaling behaviour with per-rank attribution:
which fraction of a step each rank spends pushing particles versus
waiting on halo exchanges, and how unevenly the push is spread across
ranks. The simulated :class:`~repro.mpi.distributed.
DistributedSimulation` executes every rank in one process, so a real
MPI profiler cannot see the rank structure — this module recovers it
at the source: the distributed driver marks which rank's work is
executing (:func:`rank_scope` / :func:`rank_activity`), and a
:class:`RankProfiler` tool routes each span to a per-rank
:class:`~repro.observability.tracer.ChromeTracer` sharing one epoch.
The merged export is a single Chrome trace with one named lane
(process) per rank plus a ``collective`` lane for unattributed work.

With no tool registered both markers return a shared no-op context —
the instrumented driver pays one boolean check per call site.

The summary feeds the scaling analysis: ``load_imbalance``
((max-mean)/mean of per-rank push seconds) plugs into
:func:`repro.cluster.scaling.imbalance_adjusted`, and
``halo_wait_fraction`` is the measured equivalent of
:attr:`~repro.cluster.scaling.ScalingPoint.comm_fraction`.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Iterator

from repro.kokkos.callbacks import (register_tool, tools_active,
                                    unregister_tool)
from repro.observability.tracer import ChromeTracer

__all__ = [
    "current_rank",
    "rank_scope",
    "rank_activity",
    "RankProfiler",
    "RankProfileReport",
    "rank_profiling",
    "report_from_components",
]

#: Rank whose work is currently executing (None = collective).
_current_rank: int | None = None

#: Shared no-op context — rank markers return this when no tool is
#: registered, so the off path allocates nothing.
_NULL_CONTEXT = contextlib.nullcontext()


def current_rank() -> int | None:
    """The rank the executing code is attributed to (None: collective)."""
    return _current_rank


@contextlib.contextmanager
def _scope(rank: int | None) -> Iterator[None]:
    global _current_rank
    previous = _current_rank
    _current_rank = rank
    try:
        yield
    finally:
        _current_rank = previous


def rank_scope(rank: int | None):
    """Attribute the enclosed work to *rank* (no span of its own)."""
    if not tools_active():
        return _NULL_CONTEXT
    return _scope(rank)


@contextlib.contextmanager
def _activity(rank: int | None, label: str, kind: str) -> Iterator[None]:
    from repro.kokkos.profiling import record_kernel
    with _scope(rank):
        with record_kernel(label, kind=kind):
            yield


def rank_activity(rank: int | None, label: str, kind: str = "kernel"):
    """Attribute the enclosed work to *rank* AND time it as a kernel
    span named *label* (category *kind*)."""
    if not tools_active():
        return _NULL_CONTEXT
    return _activity(rank, label, kind)


@dataclass(frozen=True)
class RankProfileReport:
    """Per-rank time split plus the paper's two summary metrics."""

    n_ranks: int
    push_seconds: tuple[float, ...]
    comm_seconds: tuple[float, ...]
    field_seconds: tuple[float, ...]
    other_seconds: tuple[float, ...]

    @property
    def busy_seconds(self) -> tuple[float, ...]:
        return tuple(p + c + f + o for p, c, f, o in
                     zip(self.push_seconds, self.comm_seconds,
                         self.field_seconds, self.other_seconds))

    @property
    def load_imbalance(self) -> float:
        """(max - mean) / mean of per-rank push seconds (0 = even)."""
        if not self.push_seconds:
            return 0.0
        mean = sum(self.push_seconds) / len(self.push_seconds)
        if mean <= 0:
            return 0.0
        return (max(self.push_seconds) - mean) / mean

    @property
    def halo_wait_fraction(self) -> float:
        """Communication share of total busy rank time."""
        busy = sum(self.busy_seconds)
        if busy <= 0:
            return 0.0
        return sum(self.comm_seconds) / busy

    def rows(self) -> list[dict]:
        return [{"rank": r,
                 "push_seconds": self.push_seconds[r],
                 "comm_seconds": self.comm_seconds[r],
                 "field_seconds": self.field_seconds[r],
                 "other_seconds": self.other_seconds[r],
                 "busy_seconds": self.busy_seconds[r]}
                for r in range(self.n_ranks)]

    def table(self) -> str:
        header = (f"{'rank':>4} {'push ms':>9} {'comm ms':>9} "
                  f"{'field ms':>9} {'other ms':>9} {'busy ms':>9}")
        lines = [header, "-" * len(header)]
        for row in self.rows():
            lines.append(
                f"{row['rank']:>4} {row['push_seconds'] * 1e3:>9.2f} "
                f"{row['comm_seconds'] * 1e3:>9.2f} "
                f"{row['field_seconds'] * 1e3:>9.2f} "
                f"{row['other_seconds'] * 1e3:>9.2f} "
                f"{row['busy_seconds'] * 1e3:>9.2f}")
        lines.append(f"load imbalance {self.load_imbalance:.3f}, "
                     f"halo wait fraction {self.halo_wait_fraction:.3f}")
        return "\n".join(lines)


def report_from_components(push, comm, field, other) -> RankProfileReport:
    """Build a :class:`RankProfileReport` from already-bucketed
    per-rank seconds and export the two summary gauges.

    The processes backend measures its time split directly in the
    workers (shared stats array) instead of through callback spans;
    this gives it the same report type — and the same
    ``rank/load_imbalance`` / ``rank/halo_wait_fraction`` gauges —
    as the span-based :meth:`RankProfiler.report`.
    """
    push = tuple(float(v) for v in push)
    n = len(push)
    report = RankProfileReport(
        n_ranks=n,
        push_seconds=push,
        comm_seconds=tuple(float(v) for v in comm),
        field_seconds=tuple(float(v) for v in field),
        other_seconds=tuple(float(v) for v in other),
    )
    from repro.observability.metrics import default_registry
    registry = default_registry()
    registry.gauge("rank/load_imbalance").set(report.load_imbalance)
    registry.gauge("rank/halo_wait_fraction").set(
        report.halo_wait_fraction)
    return report


class RankProfiler:
    """Callback tool routing spans to one tracer lane per rank.

    All lanes share one epoch, so the merged Chrome trace lines the
    ranks up on a single timeline; spans executing outside any rank
    scope land in the ``collective`` lane (pid ``n_ranks``).
    """

    def __init__(self, n_ranks: int, capacity: int = 65536):
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.n_ranks = n_ranks
        self.collective = ChromeTracer(capacity=capacity, pid=n_ranks,
                                       process_name="collective")
        epoch = self.collective.epoch
        self.rank_tracers = [
            ChromeTracer(capacity=capacity, pid=r,
                         process_name=f"rank {r}", epoch=epoch)
            for r in range(n_ranks)
        ]
        #: kernel_id -> tracer that saw the begin (ends route back to
        #: it even if the rank scope changed mid-span).
        self._open: dict[int, ChromeTracer] = {}

    # -- lane selection ----------------------------------------------------

    def _target(self) -> ChromeTracer:
        r = _current_rank
        if r is None or not 0 <= r < self.n_ranks:
            return self.collective
        return self.rank_tracers[r]

    def tracers(self) -> list[ChromeTracer]:
        return [*self.rank_tracers, self.collective]

    # -- callback surface --------------------------------------------------

    def _begin(self, method: str, name: str, kernel_id: int) -> None:
        tracer = self._target()
        self._open[kernel_id] = tracer
        getattr(tracer, method)(name, kernel_id)

    def _end(self, method: str, name: str, kernel_id: int,
             seconds: float) -> None:
        tracer = self._open.pop(kernel_id, None)
        if tracer is None:
            return
        getattr(tracer, method)(name, kernel_id, seconds)

    def complete_kernel(self, name, kind, seconds):
        """A kernel timed elsewhere (the native drain: a rank's C push)
        lands in its rank's lane with its measured seconds; a begin/end
        pair synthesized now would last no time."""
        self._target().complete_kernel(name, kind, seconds)

    def begin_kernel(self, name, kid):
        self._begin("begin_kernel", name, kid)

    def end_kernel(self, name, kid, seconds):
        self._end("end_kernel", name, kid, seconds)

    def begin_parallel_for(self, name, kid):
        self._begin("begin_parallel_for", name, kid)

    def end_parallel_for(self, name, kid, seconds):
        self._end("end_parallel_for", name, kid, seconds)

    def begin_parallel_reduce(self, name, kid):
        self._begin("begin_parallel_reduce", name, kid)

    def end_parallel_reduce(self, name, kid, seconds):
        self._end("end_parallel_reduce", name, kid, seconds)

    def begin_parallel_scan(self, name, kid):
        self._begin("begin_parallel_scan", name, kid)

    def end_parallel_scan(self, name, kid, seconds):
        self._end("end_parallel_scan", name, kid, seconds)

    def begin_comm(self, name, kid):
        self._begin("begin_comm", name, kid)

    def end_comm(self, name, kid, seconds):
        self._end("end_comm", name, kid, seconds)

    def push_region(self, name):
        self._target().push_region(name)

    def pop_region(self, name):
        self._target().pop_region(name)

    def partition(self, space_name, begin, end):
        self._target().partition(space_name, begin, end)

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def _classify(name: str, cat: str) -> str:
        if name.startswith("push/") or "/push/" in name \
                or "native_push/" in name:
            return "push"
        if cat == "comm" or name.startswith("halo/"):
            return "comm"
        if name.startswith("field/") or "/field" in name:
            return "field"
        return "other"

    def report(self) -> RankProfileReport:
        """Fold the rank lanes into the per-rank time split and export
        the two summary gauges to the metrics registry."""
        buckets = {k: [0.0] * self.n_ranks
                   for k in ("push", "comm", "field", "other")}
        for r, tracer in enumerate(self.rank_tracers):
            for span in tracer.spans():
                kind = self._classify(span.name, span.cat)
                buckets[kind][r] += span.dur_us * 1e-6
        report = RankProfileReport(
            n_ranks=self.n_ranks,
            push_seconds=tuple(buckets["push"]),
            comm_seconds=tuple(buckets["comm"]),
            field_seconds=tuple(buckets["field"]),
            other_seconds=tuple(buckets["other"]),
        )
        from repro.observability.metrics import default_registry
        registry = default_registry()
        registry.gauge("rank/load_imbalance").set(report.load_imbalance)
        registry.gauge("rank/halo_wait_fraction").set(
            report.halo_wait_fraction)
        return report

    # -- export ------------------------------------------------------------

    def merged_chrome(self) -> dict:
        """One Chrome trace-event document, one lane per rank plus the
        collective lane, metadata naming every lane."""
        events: list[dict] = []
        lanes: dict[str, dict] = {}
        for tracer in self.tracers():
            doc = tracer.to_chrome()
            events.extend(doc["traceEvents"])
            lanes[tracer.process_name or str(tracer.pid)] = \
                doc["otherData"]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"n_ranks": self.n_ranks, "lanes": lanes},
        }

    def save(self, path: str) -> str:
        """Write the merged trace as Chrome-trace JSON."""
        with open(path, "w") as f:
            json.dump(self.merged_chrome(), f)
        return path


@contextlib.contextmanager
def rank_profiling(n_ranks: int,
                   capacity: int = 65536) -> Iterator[RankProfiler]:
    """``with rank_profiling(4) as rp: ...`` — register a
    :class:`RankProfiler` for the block (kept after exit for export)."""
    profiler = RankProfiler(n_ranks, capacity=capacity)
    register_tool(profiler)
    try:
        yield profiler
    finally:
        unregister_tool(profiler)
