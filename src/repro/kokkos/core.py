"""Runtime lifecycle for the mini-Kokkos layer.

Mirrors ``Kokkos::initialize`` / ``Kokkos::finalize``: a process-wide
runtime object holds the default execution space and global options.
Unlike the C++ library, initialization here is idempotent and cheap;
it exists so code written against the Kokkos idiom ports verbatim and
so tests can swap the default execution space.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.kokkos import callbacks as _tools

__all__ = [
    "KokkosRuntime",
    "initialize",
    "finalize",
    "is_initialized",
    "fence",
    "runtime",
    "scoped_runtime",
]


@dataclass
class KokkosRuntime:
    """Global state: default execution space and option flags."""

    default_space: "object" = None        # ExecutionSpace; set lazily
    num_threads: int = 8
    device_id: int = 0
    finalized: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def resolve_default_space(self):
        """Default space, constructing a Serial space on first use."""
        if self.default_space is None:
            from repro.kokkos.execution import OpenMP
            self.default_space = OpenMP(self.num_threads)
        return self.default_space


_runtime: KokkosRuntime | None = None


def initialize(num_threads: int = 8, device_id: int = 0,
               default_space=None) -> KokkosRuntime:
    """Create (or return) the process-wide runtime.

    Safe to call repeatedly; subsequent calls return the existing
    runtime unchanged, matching Kokkos' single-initialization rule
    without making double-init an error in tests.
    """
    global _runtime
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")
    if _runtime is None or _runtime.finalized:
        _runtime = KokkosRuntime(default_space=default_space,
                                 num_threads=num_threads,
                                 device_id=device_id)
    return _runtime


def is_initialized() -> bool:
    return _runtime is not None and not _runtime.finalized


def runtime() -> KokkosRuntime:
    """The active runtime, initializing with defaults if needed."""
    global _runtime
    if _runtime is None or _runtime.finalized:
        initialize()
    assert _runtime is not None
    return _runtime


def finalize() -> None:
    """Tear down the runtime. Subsequent use re-initializes."""
    global _runtime
    if _runtime is not None:
        _runtime.finalized = True


def fence(label: str = "") -> None:
    """Device synchronization barrier.

    All simulated execution here is synchronous, so the barrier
    itself is a no-op kept for API fidelity (ported code calls it
    around timers) — but attached profiling tools still see the
    begin/end fence pair, matching Kokkos-Tools' fence callbacks.
    """
    if _tools.tools_active():
        name = label or "fence"
        fid = _tools.dispatch_begin_fence(name)
        _tools.dispatch_end_fence(name, fid)


@contextlib.contextmanager
def scoped_runtime(**kwargs) -> Iterator[KokkosRuntime]:
    """Context manager giving a fresh runtime, restoring the old one.

    Used by tests that need a specific default execution space
    without leaking state.
    """
    global _runtime
    saved = _runtime
    _runtime = None
    try:
        yield initialize(**kwargs)
    finally:
        _runtime = saved
