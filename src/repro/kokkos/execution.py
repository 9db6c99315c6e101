"""Execution spaces: how parallel iterations are grouped and run.

Kokkos maps a ``parallel_for`` onto its backend's execution model:
OpenMP slices the range into per-thread chunks; CUDA/HIP launch the
range as blocks of warps. Both details matter here —

- chunking determines which iterations run *concurrently*, which
  drives the atomic-contention and coalescing models;
- warp grouping is exactly what the strided sort (Algorithm 1)
  exploits: after sorting, consecutive lanes of a warp hold particles
  of consecutive cells.

Every space turns a range ``[begin, end)`` into an ordered list of
index *batches* (numpy arrays). A batch is dispatched to the kernel in
one call, so the pure-Python overhead is O(batches), not O(N) —
following the HPC-Python guide's "vectorise the inner loop" rule.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro._util import check_positive
from repro.kokkos import callbacks as _tools

if TYPE_CHECKING:
    from repro.machine.specs import PlatformSpec

__all__ = [
    "ExecutionSpace",
    "Serial",
    "OpenMP",
    "CudaSim",
    "HIPSim",
    "DefaultExecutionSpace",
    "space_for_platform",
]


class ExecutionSpace(abc.ABC):
    """Common interface: concurrency, grouping, and batch partition."""

    #: human-readable backend name (matches Kokkos space names)
    name: str = "Abstract"
    #: platform this space models timing for (optional)
    platform: PlatformSpec | None = None

    @property
    @abc.abstractmethod
    def concurrency(self) -> int:
        """Number of hardware execution streams (threads / warps)."""

    @property
    @abc.abstractmethod
    def group_size(self) -> int:
        """Lanes that execute in lockstep (SIMD width / warp size)."""

    @abc.abstractmethod
    def _partition(self, begin: int, end: int) -> Iterator[np.ndarray]:
        """Yield index batches covering ``[begin, end)`` in order."""

    def partition(self, begin: int, end: int) -> Iterator[np.ndarray]:
        """Index batches for ``[begin, end)``; announces the launch
        to attached profiling tools (once per launch, not per batch)."""
        if _tools.tools_active():
            _tools.dispatch_partition(self.name, begin, end)
        return self._partition(begin, end)

    def batches(self, begin: int, end: int) -> list[np.ndarray]:
        """Materialised :meth:`partition` (convenience for models)."""
        return list(self.partition(begin, end))

    def __repr__(self) -> str:
        plat = f", platform={self.platform.name!r}" if self.platform else ""
        return f"{type(self).__name__}(concurrency={self.concurrency}{plat})"


class Serial(ExecutionSpace):
    """Single-stream execution; the whole range is one batch."""

    name = "Serial"

    def __init__(self, platform: PlatformSpec | None = None):
        self.platform = platform

    @property
    def concurrency(self) -> int:
        return 1

    @property
    def group_size(self) -> int:
        return 1

    def _partition(self, begin: int, end: int) -> Iterator[np.ndarray]:
        if end > begin:
            yield np.arange(begin, end, dtype=np.int64)


class OpenMP(ExecutionSpace):
    """Thread-parallel CPU space: contiguous chunk per thread.

    The static-schedule chunking mirrors Kokkos' OpenMP backend
    default. Each chunk is one batch; with ``num_threads`` chunks the
    kernel body is dispatched ``num_threads`` times per parallel
    region regardless of N.
    """

    name = "OpenMP"

    def __init__(self, num_threads: int = 8,
                 platform: PlatformSpec | None = None):
        check_positive("num_threads", num_threads)
        self.num_threads = int(num_threads)
        self.platform = platform

    @property
    def concurrency(self) -> int:
        return self.num_threads

    @property
    def group_size(self) -> int:
        # Lockstep granule on CPUs is the SIMD vector; 8 lanes of f32
        # (AVX2) is the fleet-wide common denominator when no platform
        # is attached.
        if self.platform is not None:
            from repro.machine.specs import isa_lanes
            isa = self.platform.best_isa(self.platform.compiler_isas)
            return isa_lanes(isa, 4)
        return 8

    def _partition(self, begin: int, end: int) -> Iterator[np.ndarray]:
        n = end - begin
        if n <= 0:
            return
        nchunks = min(self.num_threads, n)
        bounds = np.linspace(begin, end, nchunks + 1, dtype=np.int64)
        for i in range(nchunks):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                yield np.arange(lo, hi, dtype=np.int64)


class _SimtSpace(ExecutionSpace):
    """Shared machinery for simulated GPU spaces (CUDA / HIP).

    The range is tiled into warp/wavefront-sized batches of
    *consecutive* indices — the CUDA ``blockIdx*blockDim+threadIdx``
    flattening Kokkos uses for ``RangePolicy``. Batches are capped at
    ``max_batches`` by widening each batch to a multiple of warps,
    keeping Python dispatch bounded for huge ranges while preserving
    warp-aligned grouping.
    """

    def __init__(self, warp_size: int, n_cores: int,
                 platform: PlatformSpec | None = None,
                 max_batches: int = 4096):
        check_positive("warp_size", warp_size)
        check_positive("n_cores", n_cores)
        check_positive("max_batches", max_batches)
        self.warp_size = int(warp_size)
        self.n_cores = int(n_cores)
        self.platform = platform
        self.max_batches = int(max_batches)

    @property
    def concurrency(self) -> int:
        return max(1, self.n_cores // self.warp_size)

    @property
    def group_size(self) -> int:
        return self.warp_size

    def _partition(self, begin: int, end: int) -> Iterator[np.ndarray]:
        n = end - begin
        if n <= 0:
            return
        warps = -(-n // self.warp_size)
        warps_per_batch = max(1, -(-warps // self.max_batches))
        step = warps_per_batch * self.warp_size
        for lo in range(begin, end, step):
            yield np.arange(lo, min(lo + step, end), dtype=np.int64)


class CudaSim(_SimtSpace):
    """Simulated CUDA execution space (32-lane warps)."""

    name = "Cuda"

    def __init__(self, platform: PlatformSpec | None = None,
                 max_batches: int = 4096):
        warp = platform.warp_size if platform is not None else 32
        cores = platform.core_count if platform is not None else 4096
        super().__init__(warp, cores, platform, max_batches)


class HIPSim(_SimtSpace):
    """Simulated HIP execution space (64-lane wavefronts)."""

    name = "HIP"

    def __init__(self, platform: PlatformSpec | None = None,
                 max_batches: int = 4096):
        warp = platform.warp_size if platform is not None else 64
        cores = platform.core_count if platform is not None else 4096
        super().__init__(warp, cores, platform, max_batches)


def DefaultExecutionSpace() -> ExecutionSpace:
    """The runtime's default space (Kokkos' ``DefaultExecutionSpace``)."""
    from repro.kokkos.core import runtime
    return runtime().resolve_default_space()


def space_for_platform(platform: PlatformSpec) -> ExecutionSpace:
    """Construct the natural execution space for a Table-1 platform.

    CPUs get an :class:`OpenMP` space with one thread per core; NVIDIA
    GPUs a :class:`CudaSim`; AMD GPUs a :class:`HIPSim`.
    """
    from repro.machine.specs import PlatformKind
    if platform.kind is PlatformKind.CPU:
        return OpenMP(platform.core_count, platform=platform)
    if platform.vendor == "NVIDIA":
        return CudaSim(platform=platform)
    return HIPSim(platform=platform)
