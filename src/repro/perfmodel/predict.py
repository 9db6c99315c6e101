"""Unified prediction facade over the CPU and GPU kernel models.

:func:`predict_time` is what the benchmark harness calls: it picks the
right model for the platform, runs it, and wraps the result in a
:class:`Prediction` carrying the paper's derived metrics — effective
bandwidth (§5.4), achieved GFLOP/s, and DRAM-side arithmetic intensity
(the roofline coordinates of Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.specs import PlatformSpec
from repro.perfmodel.cpu_model import CpuKernelModel
from repro.perfmodel.gpu_model import GpuKernelModel
from repro.perfmodel.kernel_cost import KernelCost
from repro.perfmodel.trace import AccessTrace
from repro.simd.autovec import Strategy

__all__ = ["Prediction", "predict_time", "model_for"]

_model_cache: dict[str, object] = {}


def model_for(platform: PlatformSpec):
    """The (cached) kernel model matching the platform kind."""
    model = _model_cache.get(platform.name)
    if model is None:
        if platform.is_gpu:
            model = GpuKernelModel(platform)
        else:
            model = CpuKernelModel(platform)
        _model_cache[platform.name] = model
    return model


@dataclass
class Prediction:
    """Predicted runtime plus the paper's derived metrics."""

    platform: PlatformSpec
    trace: AccessTrace
    cost: KernelCost
    strategy: Strategy | None
    seconds: float
    components: dict = field(repr=False, default_factory=dict)

    @property
    def effective_bandwidth_gbs(self) -> float:
        """Algorithmic bytes / runtime (Figures 5-6's y axis)."""
        return self.trace.algorithmic_bytes / self.seconds / 1e9

    @property
    def total_flops(self) -> float:
        return self.cost.flops * self.trace.n_ops

    @property
    def gflops(self) -> float:
        """Achieved compute rate (Figure 8's y axis)."""
        return self.total_flops / self.seconds / 1e9

    @property
    def dram_bytes(self) -> float:
        """Modelled DRAM-side traffic (CPU models report algorithmic
        traffic when no finer estimate exists)."""
        return float(self.components.get("dram_bytes",
                                         self.trace.algorithmic_bytes))

    @property
    def arithmetic_intensity(self) -> float:
        """FLOP per DRAM byte (Figure 8's x axis)."""
        db = self.dram_bytes
        if db <= 0:
            return float("inf")
        return self.total_flops / db

    def summary(self) -> str:
        strat = f", {self.strategy.value}" if self.strategy else ""
        return (f"{self.cost.name} on {self.platform.name}{strat}: "
                f"{self.seconds * 1e3:.3f} ms, "
                f"{self.effective_bandwidth_gbs:.1f} GB/s eff, "
                f"{self.gflops:.1f} GFLOP/s, AI={self.arithmetic_intensity:.2f}")


def predict_time(platform: PlatformSpec, trace: AccessTrace,
                 cost: KernelCost,
                 strategy: Strategy = Strategy.GUIDED,
                 memoize: bool = True) -> Prediction:
    """Predict one kernel launch on *platform*.

    *strategy* applies to CPUs only; GPUs always execute through the
    SIMT model (§3.1).

    Predictions are pure functions of their inputs, so results are
    memoized by content (see :mod:`repro.perfmodel.memo`): repeated
    calls with an identical (platform, cost, trace-content, strategy)
    combination reuse the first call's component breakdown instead of
    re-simulating the trace. Pass ``memoize=False`` (or disable the
    global memo) to force a fresh model evaluation.
    """
    from repro.perfmodel import memo as _memo
    strat = None if platform.is_gpu else strategy
    key = None
    components = None
    use_memo = memoize and _memo.memo_enabled()
    if use_memo:
        cache = _memo.default_memo()
        key = cache.key(platform.name, trace, cost,
                        strat.value if strat else None)
        components = cache.get(key)
    if components is None:
        model = model_for(platform)
        if platform.is_gpu:
            components = model.predict(trace, cost)
        else:
            components = model.predict(trace, cost, strategy)
        if use_memo:
            _memo.default_memo().put(key, components)
    return Prediction(
        platform=platform,
        trace=trace,
        cost=cost,
        strategy=strat,
        seconds=components["total"],
        components=components,
    )
