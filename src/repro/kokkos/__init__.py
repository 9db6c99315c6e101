"""A miniature Kokkos: the portability layer the optimizations target.

The paper's whole point is that optimizations written once against a
portability framework's abstractions (Views, execution policies,
parallel patterns, atomics, ``sort_by_key``, the SIMD library) carry
across platforms. This subpackage provides a working Python analogue
of the Kokkos 4.x surface that VPIC 2.0 uses:

- :class:`~repro.kokkos.view.View` — multidimensional arrays with
  ``LayoutLeft``/``LayoutRight`` and host/device memory spaces;
- execution spaces (:class:`~repro.kokkos.execution.Serial`,
  :class:`~repro.kokkos.execution.OpenMP`,
  :class:`~repro.kokkos.execution.CudaSim`,
  :class:`~repro.kokkos.execution.HIPSim`) that partition iteration
  ranges the way the real backends do (thread chunks vs. warps);
- :func:`~repro.kokkos.parallel.parallel_for`,
  :func:`~repro.kokkos.parallel.parallel_reduce`,
  :func:`~repro.kokkos.parallel.parallel_scan` over
  :class:`~repro.kokkos.policy.RangePolicy` /
  :class:`~repro.kokkos.policy.TeamPolicy`;
- :mod:`~repro.kokkos.atomics` with contention accounting;
- :func:`~repro.kokkos.sort.sort_by_key` and
  :class:`~repro.kokkos.sort.BinSort`;
- :mod:`~repro.kokkos.profiling` regions and kernel timers.
- :mod:`~repro.kokkos.callbacks`, the Kokkos-Tools seam: the registry
  the kernels dispatch into and the tools of :mod:`repro.observability`
  attach to.

Kernels receive numpy index *batches* rather than single indices: a
batch is the set of iterations one execution grouping (thread chunk /
warp) runs, which both keeps pure-Python dispatch off the hot path
(guide: vectorise the inner loop) and exposes the grouping structure
the performance models need.
"""

from repro.kokkos.core import (
    KokkosRuntime,
    initialize,
    finalize,
    is_initialized,
    fence,
    runtime,
    scoped_runtime,
)
from repro.kokkos.view import (
    Layout,
    MemSpace,
    View,
    create_mirror_view,
    deep_copy,
)
from repro.kokkos.execution import (
    ExecutionSpace,
    Serial,
    OpenMP,
    CudaSim,
    HIPSim,
    DefaultExecutionSpace,
    space_for_platform,
)
from repro.kokkos.policy import RangePolicy, MDRangePolicy, TeamPolicy, TeamMember
from repro.kokkos.parallel import parallel_for, parallel_reduce, parallel_scan
from repro.kokkos.reducers import Sum, Prod, Min, Max, MinMax
from repro.kokkos.atomics import (
    atomic_add,
    atomic_sub,
    atomic_min,
    atomic_max,
    atomic_fetch_add,
    AtomicCounters,
    atomic_counters,
    reset_atomic_counters,
)
from repro.kokkos.sort import sort_by_key, argsort_stable, BinSort
from repro.kokkos.profiling import (
    push_region,
    pop_region,
    profiling_region,
    profiling_session,
    KernelTimer,
    kernel_timings,
    reset_kernel_timings,
)

__all__ = [
    "KokkosRuntime", "initialize", "finalize", "is_initialized", "fence",
    "runtime", "scoped_runtime",
    "Layout", "MemSpace", "View", "create_mirror_view", "deep_copy",
    "ExecutionSpace", "Serial", "OpenMP", "CudaSim", "HIPSim",
    "DefaultExecutionSpace", "space_for_platform",
    "RangePolicy", "MDRangePolicy", "TeamPolicy", "TeamMember",
    "parallel_for", "parallel_reduce", "parallel_scan",
    "Sum", "Prod", "Min", "Max", "MinMax",
    "atomic_add", "atomic_sub", "atomic_min", "atomic_max",
    "atomic_fetch_add", "AtomicCounters", "atomic_counters",
    "reset_atomic_counters",
    "sort_by_key", "argsort_stable", "BinSort",
    "push_region", "pop_region", "profiling_region", "profiling_session",
    "KernelTimer", "kernel_timings", "reset_kernel_timings",
]
