"""Fold counter-annotated kernels into roofline placements.

This is the half of a vendor profiler that draws Figure 8: given the
modeled counters of :mod:`repro.bench.counters`, each kernel
becomes one :class:`~repro.machine.roofline.RooflinePoint` against the
platform's ceilings, with utilization and boundedness classification
attached. It replaces the hand-wired roofline plumbing the bench layer
used to carry (``fig8_roofline_points`` builds on
:meth:`RooflineProfiler.from_predictions` now) and backs the
``repro profile`` dashboard.

Roofline coordinates are *derived from the counters exactly the way*
:class:`~repro.perfmodel.predict.Prediction` derives them — same
inputs, same arithmetic — so a dashboard point and a
``perfmodel.predict`` component breakdown agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.counters import (CounterTool, ModeledCounters,
                                  counters_from_prediction)
from repro.machine.roofline import RooflineModel, RooflinePoint
from repro.machine.specs import PlatformSpec

__all__ = ["KernelProfileEntry", "RooflineProfiler"]


@dataclass(frozen=True)
class KernelProfileEntry:
    """One profiled kernel: counters plus measured wall accumulation."""

    name: str
    counters: ModeledCounters
    measured_seconds: float = 0.0
    launches: int = 0

    @property
    def point(self) -> RooflinePoint:
        """The kernel's Figure-8 placement (modeled coordinates)."""
        return RooflinePoint(
            label=self.name,
            arithmetic_intensity=self.counters.arithmetic_intensity,
            gflops=self.counters.gflops,
        )


class RooflineProfiler:
    """Per-kernel roofline placement against one platform's ceilings."""

    def __init__(self, platform: PlatformSpec):
        self.platform = platform
        self.model = RooflineModel(platform)
        self.entries: dict[str, KernelProfileEntry] = {}

    # -- construction ------------------------------------------------------

    def add(self, name: str, counters: ModeledCounters,
            measured_seconds: float = 0.0, launches: int = 0) -> None:
        self.entries[name] = KernelProfileEntry(
            name=name, counters=counters,
            measured_seconds=measured_seconds, launches=launches)

    @classmethod
    def from_predictions(cls, platform: PlatformSpec, predictions,
                         exclude: tuple[str, ...] = ()) -> "RooflineProfiler":
        """Build from a ``{label: Prediction}`` mapping.

        This is the bench-layer entry point: Figure 8 feeds it the
        Figure 7 runtimes. Counter derivation reuses the prediction
        memo, so this adds no model evaluations.
        """
        profiler = cls(platform)
        for label, pred in predictions.items():
            if label in exclude:
                continue
            profiler.add(label,
                         counters_from_prediction(pred, kernel=label))
        return profiler

    @classmethod
    def from_counter_tool(cls, tool: CounterTool) -> "RooflineProfiler":
        """Build from a run's :class:`CounterTool` accumulation.

        Only kernels with a (trace, cost) binding carry counters and
        appear on the roofline; unbound kernels (field solve, sorting)
        stay in the tool's measured table.
        """
        profiler = cls(tool.platform)
        for name, counters in tool.bound_kernels().items():
            acc = tool.measured[name]
            profiler.add(name, counters,
                         measured_seconds=acc.seconds,
                         launches=acc.launches)
        return profiler

    # -- views -------------------------------------------------------------

    def points(self) -> list[RooflinePoint]:
        """Roofline points in insertion order."""
        return [e.point for e in self.entries.values()]

    def rows(self) -> list[dict]:
        """Plain-data rows for tables/JSON, insertion order."""
        rows = []
        for entry in self.entries.values():
            point = entry.point
            c = entry.counters
            rows.append({
                "name": entry.name,
                "arithmetic_intensity": point.arithmetic_intensity,
                "gflops": point.gflops,
                "utilization": self.model.utilization(point),
                "ceiling_fraction": self.model.ceiling_fraction(point),
                "memory_bound": self.model.is_memory_bound(point),
                "cache_hit_rate": c.cache_hit_rate,
                "coalescing_efficiency": c.coalescing_efficiency,
                "vector_lane_utilization": c.vector_lane_utilization,
                "atomic_conflicts": c.atomic_conflicts,
                "flops": c.flops,
                "dram_bytes": c.dram_bytes,
                "modeled_seconds": c.modeled_seconds,
                "measured_seconds": entry.measured_seconds,
                "launches": entry.launches,
            })
        return rows

    def table(self) -> str:
        """Fixed-width text table of the per-kernel placements."""
        rows = self.rows()
        if not rows:
            return "(no profiled kernels)"
        name_w = max(len(r["name"]) for r in rows) + 1
        header = (f"{'kernel':<{name_w}} {'AI':>8} {'GFLOP/s':>9} "
                  f"{'%peak':>6} {'%ceil':>6} {'bound':>6} "
                  f"{'LLC':>5} {'coal':>5} {'lanes':>5} {'conflicts':>10}")
        lines = [header, "-" * len(header)]
        for r in rows:
            bound = "mem" if r["memory_bound"] else "comp"
            lines.append(
                f"{r['name']:<{name_w}} {r['arithmetic_intensity']:>8.2f} "
                f"{r['gflops']:>9.1f} {r['utilization'] * 100:>5.1f}% "
                f"{r['ceiling_fraction'] * 100:>5.1f}% {bound:>6} "
                f"{r['cache_hit_rate']:>5.2f} "
                f"{r['coalescing_efficiency']:>5.2f} "
                f"{r['vector_lane_utilization']:>5.2f} "
                f"{r['atomic_conflicts']:>10d}")
        return "\n".join(lines)

    def ascii(self, title: str = "") -> str:
        """ASCII roofline of all placements (CLI view)."""
        from repro.bench.plots import roofline_plot
        if not title:
            title = (f"Roofline — {self.platform.name} "
                     f"(ridge AI={self.model.ridge_point:.1f})")
        return roofline_plot(self.model, self.points(), title=title)
