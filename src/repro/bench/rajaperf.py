"""RAJAPerf-derived microkernels under the four strategies (Fig. 3).

Each kernel is a :class:`~repro.bench.strategies.StrategyKernel` with
*executable* implementations: the auto/guided paths are whole-array
numpy (what a vectorizing compiler produces), the manual path drives
:func:`repro.simd.packs.pack_loop` with explicit packs and masks, and
the ad hoc path uses the VPIC 1.2 intrinsics classes. All paths
compute identical results (tested), so they are genuinely the same
kernel under different vectorization regimes.

:func:`fig3_normalized_runtimes` produces the figure's series:
runtimes per (kernel, strategy, CPU) from the performance model,
normalized to the auto strategy.
"""

from __future__ import annotations

import numpy as np

from repro.bench.strategies import Strategy, StrategyKernel
from repro.machine.specs import PlatformSpec, cpu_platforms
from repro.perfmodel.kernel_cost import (axpy_cost, pi_reduce_cost,
                                         planckian_cost)
from repro.perfmodel.predict import predict_time
from repro.perfmodel.trace import AccessTrace
from repro.simd.packs import Mask, Pack, pack_loop

__all__ = [
    "axpy_kernel",
    "planckian_kernel",
    "pi_reduce_kernel",
    "RAJAPERF_KERNELS",
    "rajaperf_trace",
    "fig3_normalized_runtimes",
]


# ---------------------------------------------------------------------------
# AXPY: y += a * x
# ---------------------------------------------------------------------------

def _axpy_auto(a: float, x: np.ndarray, y: np.ndarray) -> None:
    y += np.float32(a) * x


def _axpy_manual(width: int, a: float, x: np.ndarray, y: np.ndarray) -> None:
    av = Pack.broadcast(a, width, dtype=x.dtype)

    def body(off: int, w: int, mask: Mask | None) -> None:
        if mask is None:
            xv = Pack.load(x, off, w)
            yv = Pack.load(y, off, w)
            xv.fma(av, yv).store(y, off)
        else:
            xv = Pack.masked_load(x, off, w, mask)
            yv = Pack.masked_load(y, off, w, mask)
            xv.fma(av, yv).masked_store(y, off, mask)

    pack_loop(x.shape[0], width, body)


def _axpy_adhoc(vfloat, a: float, x: np.ndarray, y: np.ndarray) -> None:
    w = vfloat.WIDTH
    n = x.shape[0]
    main = (n // w) * w
    for off in range(0, main, w):
        xv = vfloat.load(x, off)
        yv = vfloat.load(y, off)
        xv.fma(a, yv).store(y, off)
    if main < n:   # scalar epilogue, as the VPIC library does
        y[main:] += np.float32(a) * x[main:]


def axpy_kernel() -> StrategyKernel:
    """``y += a x`` — the simplest SIMD kernel (§5.3)."""
    return StrategyKernel(
        name="axpy",
        traits=axpy_cost().traits,
        auto_impl=_axpy_auto,
        manual_impl=_axpy_manual,
        adhoc_impl=_axpy_adhoc,
    )


# ---------------------------------------------------------------------------
# PLANCKIAN: w = (u / v) / (exp(x) - 1)
# ---------------------------------------------------------------------------

def _planckian_auto(x, u, v, out) -> None:
    out[...] = (u / v) / (np.exp(x) - np.float32(1.0))


def _planckian_guided(x, u, v, out) -> None:
    # Kernel splitting (§4.2): hoist the exponential into its own
    # pass so the arithmetic loop vectorizes cleanly.
    expx = np.exp(x)
    out[...] = (u / v) / (expx - np.float32(1.0))


def _planckian_manual(width: int, x, u, v, out) -> None:
    one = Pack.broadcast(1.0, width, dtype=x.dtype)

    def body(off: int, w: int, mask: Mask | None) -> None:
        if mask is None:
            xv = Pack.load(x, off, w)
            uv = Pack.load(u, off, w)
            vv = Pack.load(v, off, w)
            res = (uv / vv) / (xv.exp() - one)
            res.store(out, off)
        else:
            # Fill masked-off lanes with values that keep the masked
            # arithmetic finite (exp(1)-1 != 0).
            xv = Pack.masked_load(x, off, w, mask, fill=1)
            uv = Pack.masked_load(u, off, w, mask)
            vv = Pack.masked_load(v, off, w, mask, fill=1)
            res = (uv / vv) / (xv.exp() - one)
            res.masked_store(out, off, mask)

    pack_loop(x.shape[0], width, body)


def planckian_kernel() -> StrategyKernel:
    """Planck's-law ratio with an exponential (§5.3)."""
    return StrategyKernel(
        name="planckian",
        traits=planckian_cost().traits,
        auto_impl=_planckian_auto,
        guided_impl=_planckian_guided,
        manual_impl=_planckian_manual,
    )


# ---------------------------------------------------------------------------
# PI_REDUCE: pi = sum 4 dx / (1 + ((i + 0.5) dx)^2)
# ---------------------------------------------------------------------------

def _pi_auto(n: int) -> float:
    dx = 1.0 / n
    # Deliberately chunked like a scalar reduction loop (the compiler
    # cannot reassociate; numpy sum here stands in for the serial
    # result, which is what correctness compares against).
    i = np.arange(n, dtype=np.float64)
    x = (i + 0.5) * dx
    return float(np.sum(4.0 * dx / (1.0 + x * x)))


def _pi_manual(width: int, n: int) -> float:
    dx = 1.0 / n
    acc = Pack.broadcast(0.0, width, dtype=np.float64)
    x_all = ((np.arange(n, dtype=np.float64) + 0.5) * dx)

    def body(off: int, w: int, mask: Mask | None) -> None:
        nonlocal acc
        if mask is None:
            xv = Pack.load(x_all, off, w)
            contrib = Pack.broadcast(4.0 * dx, w, dtype=np.float64) / \
                (Pack.broadcast(1.0, w, dtype=np.float64) + xv * xv)
        else:
            xv = Pack.masked_load(x_all, off, w, mask)
            raw = Pack.broadcast(4.0 * dx, w, dtype=np.float64) / \
                (Pack.broadcast(1.0, w, dtype=np.float64) + xv * xv)
            contrib = Pack.where(mask, raw,
                                 Pack.broadcast(0.0, w, dtype=np.float64))
        acc = acc + contrib

    pack_loop(n, width, body)
    return float(acc.reduce_add())


def pi_reduce_kernel() -> StrategyKernel:
    """Quadrature for pi — the reduction kernel (§5.3)."""
    return StrategyKernel(
        name="pi_reduce",
        traits=pi_reduce_cost().traits,
        auto_impl=_pi_auto,
        manual_impl=_pi_manual,
    )


RAJAPERF_KERNELS = {
    "AXPY": (axpy_kernel, axpy_cost),
    "PLANCKIAN": (planckian_kernel, planckian_cost),
    "PI_REDUCE": (pi_reduce_kernel, pi_reduce_cost),
}

#: Figure 3 problem size (1M elements, LLC-resident on every CPU).
FIG3_N = 1_000_000


def rajaperf_trace(cost, n: int = FIG3_N) -> AccessTrace:
    """Streaming trace for one RAJAPerf kernel."""
    return AccessTrace(n_ops=n, streamed_bytes=float(n) * cost.traits.bytes_total,
                       label=cost.name)


def fig3_normalized_runtimes(platforms: list[PlatformSpec] | None = None,
                             n: int = FIG3_N) -> dict:
    """Figure 3's series: per kernel and CPU, runtime of each strategy
    normalized to auto.

    Returns ``{kernel: {platform: {strategy: normalized_runtime}}}``.
    """
    if platforms is None:
        platforms = cpu_platforms()
    out: dict = {}
    for kname, (_kfactory, cfactory) in RAJAPERF_KERNELS.items():
        cost = cfactory()
        trace = rajaperf_trace(cost, n)
        out[kname] = {}
        for p in platforms:
            times = {}
            for s in (Strategy.AUTO, Strategy.GUIDED, Strategy.MANUAL):
                times[s.value] = predict_time(p, trace, cost, s).seconds
            base = times[Strategy.AUTO.value]
            out[kname][p.name] = {k: v / base for k, v in times.items()}
    return out
