"""Kokkos-Tools-style profiling callback registry.

The real VPIC 2.0 study attributes runtime through the Kokkos-Tools
interface: the runtime calls ``kokkosp_begin_parallel_for(name,
devID, &kernelID)`` / ``kokkosp_end_parallel_for(kernelID)`` on every
launch, and any number of tools (tracers, loggers, counters) attach
without the application changing. This module is that seam for the
reproduction: the kokkos layer dispatches here, tools register here.

A *tool* is any object exposing a subset of the callback surface:

- ``begin_parallel_for(name, kernel_id)`` / ``end_parallel_for(name,
  kernel_id, seconds)`` — likewise ``..._reduce`` and ``..._scan``;
- ``begin_kernel`` / ``end_kernel`` — generic fallback used when the
  tool does not implement the specific pattern hook (and for timed
  blocks that are not parallel dispatches, e.g. ``record_kernel`` in
  the simulation loop);
- ``begin_fence(name, fence_id)`` / ``end_fence(name, fence_id)``;
- ``push_region(name)`` / ``pop_region(name)``;
- ``partition(space_name, begin, end)`` — an execution space carved
  an iteration range into batches (once per launch, not per batch).

Missing callbacks are simply skipped. With no tool registered, every
dispatch site short-circuits on :func:`tools_active` — one boolean
read, which is what keeps the instrumented-but-off overhead
negligible (see :mod:`repro.bench.overhead`).

Tools also declare how they consume events. A tool whose class sets
``native_telemetry_ok = True`` can be fed *after the fact* from the
native telemetry channel — it only needs (name, kind, duration)
tuples, not a live Python frame around each kernel — and therefore
does not force the simulation off the whole-step native lane. Tools
without the marker are *interposing*: they need Python to interleave
with every kernel launch (custom begin hooks, region bookkeeping,
fences), so the step falls back to the per-kernel lanes. Unknown
tools default to interposing — the safe direction.

``complete_kernel(name, kind, seconds)`` is the drain-side hook: a
kernel that already ran (inside compiled code) is announced once,
with its measured duration. Tools without the hook receive a
synthesized ``begin``/``end`` pair instead.
"""

from __future__ import annotations

import itertools

__all__ = [
    "register_tool",
    "unregister_tool",
    "registered_tools",
    "tools_active",
    "clear_tools",
    "native_telemetry_compatible",
    "interposing_tools",
    "tools_native_compatible",
    "dispatch_begin_kernel",
    "dispatch_end_kernel",
    "dispatch_complete_kernel",
    "dispatch_begin_fence",
    "dispatch_end_fence",
    "dispatch_push_region",
    "dispatch_pop_region",
    "dispatch_partition",
    "KERNEL_KINDS",
]

#: Kernel kinds with dedicated begin/end hooks; anything else falls
#: back to the generic ``begin_kernel``/``end_kernel`` pair.
KERNEL_KINDS = ("parallel_for", "parallel_reduce", "parallel_scan",
                "kernel", "comm")

_tools: list = []
_active: bool = False
_kernel_ids = itertools.count(1)
_fence_ids = itertools.count(1)


def register_tool(tool) -> object:
    """Attach *tool* to the dispatch stream; returns it for chaining."""
    if tool in _tools:
        raise ValueError(f"tool {tool!r} already registered")
    _tools.append(tool)
    _set_active()
    return tool


def unregister_tool(tool) -> None:
    """Detach *tool*; raises ``ValueError`` if it was not registered."""
    _tools.remove(tool)
    _set_active()


def registered_tools() -> tuple:
    return tuple(_tools)


def clear_tools() -> None:
    """Detach every tool (test teardown)."""
    _tools.clear()
    _set_active()


def tools_active() -> bool:
    """Fast path guard: True iff at least one tool is registered."""
    return _active


def native_telemetry_compatible(tool) -> bool:
    """True when *tool* opted into the drained native channel."""
    return bool(getattr(tool, "native_telemetry_ok", False))


def interposing_tools() -> tuple:
    """Registered tools that need per-kernel Python interposition —
    the ones that force the step off the whole-step native lane."""
    return tuple(t for t in _tools
                 if not native_telemetry_compatible(t))


def tools_native_compatible() -> bool:
    """True when every registered tool (possibly none) can be fed
    from the native telemetry channel."""
    return all(native_telemetry_compatible(t) for t in _tools)


def _set_active() -> None:
    global _active
    _active = bool(_tools)


def _call(phase: str, kind: str, *args) -> None:
    specific = f"{phase}_{kind}"
    generic = f"{phase}_kernel"
    for tool in _tools:
        cb = getattr(tool, specific, None)
        if cb is None and kind != "kernel":
            cb = getattr(tool, generic, None)
        if cb is not None:
            cb(*args)


def dispatch_begin_kernel(kind: str, name: str) -> int:
    """Announce a kernel launch; returns its unique kernel id."""
    kid = next(_kernel_ids)
    _call("begin", kind, name, kid)
    return kid


def dispatch_end_kernel(kind: str, name: str, kernel_id: int,
                        seconds: float) -> None:
    """Announce kernel completion with its measured wall time."""
    _call("end", kind, name, kernel_id, seconds)


def dispatch_complete_kernel(kind: str, name: str,
                             seconds: float) -> None:
    """Announce a kernel that already ran, with a duration measured
    out-of-band (the native telemetry channel). Tools implementing
    ``complete_kernel`` get the single call; the rest get a
    synthesized begin/end pair through their usual hooks."""
    for tool in _tools:
        cb = getattr(tool, "complete_kernel", None)
        if cb is not None:
            cb(name, kind, seconds)
            continue
        specific_end = getattr(tool, f"end_{kind}", None)
        end = (specific_end if specific_end is not None
               else getattr(tool, "end_kernel", None))
        if end is None:
            continue
        kid = next(_kernel_ids)
        specific_begin = getattr(tool, f"begin_{kind}", None)
        begin = (specific_begin if specific_begin is not None
                 else getattr(tool, "begin_kernel", None))
        if begin is not None:
            begin(name, kid)
        end(name, kid, seconds)


def dispatch_begin_fence(name: str) -> int:
    fid = next(_fence_ids)
    for tool in _tools:
        cb = getattr(tool, "begin_fence", None)
        if cb is not None:
            cb(name, fid)
    return fid


def dispatch_end_fence(name: str, fence_id: int) -> None:
    for tool in _tools:
        cb = getattr(tool, "end_fence", None)
        if cb is not None:
            cb(name, fence_id)


def dispatch_push_region(name: str) -> None:
    for tool in _tools:
        cb = getattr(tool, "push_region", None)
        if cb is not None:
            cb(name)


def dispatch_pop_region(name: str) -> None:
    for tool in _tools:
        cb = getattr(tool, "pop_region", None)
        if cb is not None:
            cb(name)


def dispatch_partition(space_name: str, begin: int, end: int) -> None:
    for tool in _tools:
        cb = getattr(tool, "partition", None)
        if cb is not None:
            cb(space_name, begin, end)
