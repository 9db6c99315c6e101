"""Roofline analysis (Figure 8).

The roofline model bounds attainable throughput by
``min(peak_flops, arithmetic_intensity x bandwidth)``. The paper uses
nsight-compute / rocprof-compute rooflines to show that tiled strided
sort keeps the particle push's arithmetic intensity high (reuse) while
finally *utilising* the compute it always nominally had.

:class:`RooflineModel` wraps a platform's ceilings;
:class:`RooflinePoint` is one measured/modelled kernel placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_nonnegative
from repro.machine.specs import PlatformSpec

__all__ = ["RooflinePoint", "RooflineModel"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's placement on a roofline.

    ``arithmetic_intensity`` in FLOP/byte (algorithmic flops over
    DRAM-side bytes actually moved), ``gflops`` the achieved rate,
    ``label`` e.g. the sorting variant.
    """

    label: str
    arithmetic_intensity: float
    gflops: float

    def __post_init__(self) -> None:
        check_nonnegative("arithmetic_intensity", self.arithmetic_intensity)
        check_nonnegative("gflops", self.gflops)


@dataclass(frozen=True)
class RooflineModel:
    """Peak-compute and bandwidth ceilings for one platform."""

    platform: PlatformSpec

    @property
    def peak_gflops(self) -> float:
        return self.platform.peak_fp32_gflops

    @property
    def bandwidth_gbs(self) -> float:
        return self.platform.stream_bw_gbs

    @property
    def ridge_point(self) -> float:
        """AI at which the kernel stops being bandwidth-bound."""
        return self.platform.machine_balance

    def attainable_gflops(self, arithmetic_intensity: float) -> float:
        """Roofline ceiling at the given arithmetic intensity."""
        check_nonnegative("arithmetic_intensity", arithmetic_intensity)
        return min(self.peak_gflops, arithmetic_intensity * self.bandwidth_gbs)

    def utilization(self, point: RooflinePoint) -> float:
        """Achieved fraction of absolute peak FP32 (paper's '% of peak')."""
        return point.gflops / self.peak_gflops

    def ceiling_fraction(self, point: RooflinePoint) -> float:
        """Achieved fraction of the AI-limited attainable ceiling."""
        ceiling = self.attainable_gflops(point.arithmetic_intensity)
        if ceiling == 0.0:
            return 0.0
        return point.gflops / ceiling

    def is_memory_bound(self, point: RooflinePoint) -> bool:
        """True when the kernel sits left of the ridge point."""
        return point.arithmetic_intensity < self.ridge_point
