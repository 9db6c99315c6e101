"""Kokkos-Tools-style profiling: regions and kernel timers.

The paper's evaluation separates "particle push kernel" time from full
simulation time; this module provides the hooks that make that split
observable in the reproduction: nested named regions and per-kernel
wall-time accumulation.

Every hook also dispatches into the pluggable tool registry
(:mod:`repro.kokkos.callbacks`), the way ``Kokkos::Profiling``
forwards to loaded Kokkos-Tools libraries — so a tracer or counter
tool sees every kernel begin/end and region push/pop without any
kernel code changing. With no tool registered, dispatch is a single
boolean check.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator

from repro.kokkos import callbacks as _tools

__all__ = [
    "push_region",
    "pop_region",
    "profiling_region",
    "profiling_session",
    "record_kernel",
    "add_kernel_time",
    "KernelTimer",
    "kernel_timings",
    "reset_kernel_timings",
    "region_stack",
]

_region_stack: list[str] = []


@dataclass
class KernelTimer:
    """Accumulated wall time and launch count for one kernel label."""

    label: str
    seconds: float = 0.0
    launches: int = 0

    def add(self, dt: float, launches: int = 1) -> None:
        self.seconds += dt
        self.launches += launches

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.launches if self.launches else 0.0


_timers: dict[str, KernelTimer] = {}


def push_region(name: str) -> None:
    """Enter a named profiling region (``Kokkos::Profiling::pushRegion``)."""
    _region_stack.append(name)
    if _tools.tools_active():
        _tools.dispatch_push_region(name)


def pop_region() -> str:
    """Leave the innermost region, returning its name."""
    if not _region_stack:
        raise RuntimeError("pop_region with empty region stack")
    name = _region_stack.pop()
    if _tools.tools_active():
        _tools.dispatch_pop_region(name)
    return name


def region_stack() -> tuple[str, ...]:
    """Snapshot of the active region nesting (outermost first)."""
    return tuple(_region_stack)


@contextlib.contextmanager
def profiling_region(name: str) -> Iterator[None]:
    """``with profiling_region("push"): ...`` convenience wrapper."""
    push_region(name)
    try:
        yield
    finally:
        pop_region()


def _qualified(label: str) -> str:
    if _region_stack:
        return "/".join(_region_stack) + "/" + label
    return label


@contextlib.contextmanager
def record_kernel(label: str, kind: str = "kernel") -> Iterator[None]:
    """Time one kernel launch under the current region path.

    *kind* names the dispatch pattern for attached tools
    (``parallel_for`` / ``parallel_reduce`` / ``parallel_scan`` /
    ``comm``; default plain ``kernel``) — see
    :data:`repro.kokkos.callbacks.KERNEL_KINDS`.
    """
    key = _qualified(label)
    active = _tools.tools_active()
    kid = _tools.dispatch_begin_kernel(kind, key) if active else -1
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        timer = _timers.get(key)
        if timer is None:
            timer = _timers[key] = KernelTimer(key)
        timer.add(dt)
        if active:
            _tools.dispatch_end_kernel(kind, key, kid, dt)


def add_kernel_time(label: str, seconds: float,
                    kind: str = "kernel", launches: int = 1) -> None:
    """Credit *seconds* over *launches* launches to *label* under the
    current region path.

    For work whose duration was measured elsewhere — the whole-step
    native lane times its field/push/sort phases inside C and reports
    them back here — so phase attribution stays complete even when
    Python never wraps the individual kernels. A native call that
    advanced k steps passes ``launches=k``, so the timer keeps
    counting per step. Registered tools see one event per call
    through ``dispatch_complete_kernel``, whatever *launches* is,
    under the identical region-qualified name a live
    ``record_kernel`` would have used — that is what keeps tracer
    spans and counter rows consistent across the native and Python
    lanes.
    """
    key = _qualified(label)
    timer = _timers.get(key)
    if timer is None:
        timer = _timers[key] = KernelTimer(key)
    timer.add(seconds, launches)
    if _tools.tools_active():
        _tools.dispatch_complete_kernel(kind, key, seconds)


def kernel_timings() -> dict[str, KernelTimer]:
    """All accumulated timers, keyed by region-qualified label."""
    return dict(_timers)


def reset_kernel_timings() -> None:
    """Clear accumulated timers (tests and benchmark harness)."""
    _timers.clear()


@contextlib.contextmanager
def profiling_session() -> Iterator[None]:
    """Isolate timer and region state for one measurement.

    Snapshots the accumulated timers and the region stack, starts the
    block with both empty, and restores the outer state on exit — so
    figure generators and benchmarks that run simulations internally
    stop leaking timings into each other (and into the caller's run).
    """
    saved_timers = dict(_timers)
    saved_stack = list(_region_stack)
    _timers.clear()
    _region_stack.clear()
    try:
        yield
    finally:
        _timers.clear()
        _timers.update(saved_timers)
        _region_stack[:] = saved_stack
