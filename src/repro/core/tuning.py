"""Hardware-targeted selection: which sort, tile size, and strategy.

This is where the paper's "optimizations applied once and preserved
across platforms" becomes operational: given a Table-1 platform and a
problem size, pick

- the particle ordering (§3.2: standard on CPUs, tiled-strided on
  GPUs, *no sort* when the grid partition fits in last-level cache —
  the §5.5 superlinear regime);
- the tile size (§5.4: the thread count on CPUs, 3x the core count on
  GPUs);
- the vectorization strategy (§5.3: manual where Kokkos SIMD covers
  the native ISA, guided where it doesn't — A64FX/Grace-class SVE
  chips — and plain SIMT on GPUs).
"""

from __future__ import annotations

from repro._util import check_positive
from repro.core.plan import SortPlan
from repro.core.sorting import SortKind
from repro.machine.specs import ISA, PlatformSpec, isa_lanes
from repro.simd.autovec import Strategy
from repro.simd.packs import simd_width_for

__all__ = [
    "select_sort",
    "select_tile_size",
    "select_strategy",
    "grid_fits_in_cache",
]

#: Bytes of grid data the push kernel touches per grid point:
#: interpolator coefficients + accumulator, single precision (§5.5's
#: ">3.5M grid points in 256 MB" implies ~72 B/point).
BYTES_PER_GRID_POINT = 72


def grid_fits_in_cache(platform: PlatformSpec, grid_points: int,
                       bytes_per_point: int = BYTES_PER_GRID_POINT) -> bool:
    """Whether the whole grid partition is LLC-resident (§5.5)."""
    check_positive("grid_points", grid_points)
    return grid_points * bytes_per_point <= platform.llc_bytes


def select_tile_size(platform: PlatformSpec) -> int:
    """Paper §5.4: tile = #CPU threads, or 3x the GPU core count."""
    if platform.is_gpu:
        return 3 * platform.core_count
    return platform.core_count


def select_sort(platform: PlatformSpec, grid_points: int,
                bytes_per_point: int = BYTES_PER_GRID_POINT) -> SortPlan:
    """Hardware-targeted ordering choice for one platform + grid."""
    check_positive("grid_points", grid_points)
    if platform.is_gpu and grid_fits_in_cache(platform, grid_points,
                                              bytes_per_point):
        return SortPlan(
            SortKind.NONE, 0,
            f"grid ({grid_points} pts) fits in {platform.name} LLC; "
            "skip sorting and take the superlinear cache regime",
        )
    if platform.is_gpu:
        return SortPlan(
            SortKind.TILED_STRIDED, select_tile_size(platform),
            "GPU: coalesced accesses plus cache-window reuse",
        )
    return SortPlan(
        SortKind.STANDARD, 0,
        "CPU: per-thread cell ownership maximizes cache reuse",
    )


def select_strategy(platform: PlatformSpec) -> Strategy:
    """Best portable vectorization strategy for a platform (§5.3).

    GPUs vectorize through the SIMT model itself — Kokkos' hierarchical
    parallelism (the AUTO strategy) is already optimal. On CPUs, use
    MANUAL when the Kokkos SIMD pack is at least as wide as what the
    compiler can target; otherwise (SVE-only chips) GUIDED keeps the
    compiler's wider native vectors.
    """
    if platform.is_gpu:
        return Strategy.AUTO
    manual_width = simd_width_for(platform)
    compiler_isa = platform.best_isa(platform.compiler_isas)
    compiler_width = isa_lanes(compiler_isa, 4)
    if compiler_isa in (ISA.SVE, ISA.SVE2):
        # Account for multiple narrow SIMD units (Grace: 4x128-bit)
        # which favour NEON-width manual packs despite SVE's nominal
        # width (§5.3's Grace observation).
        if platform.simd_units * manual_width >= compiler_width:
            return Strategy.MANUAL
        return Strategy.GUIDED
    if manual_width >= compiler_width:
        return Strategy.MANUAL
    return Strategy.GUIDED
