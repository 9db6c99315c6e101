"""ASCII plotting: figures as terminal graphics.

The paper's figures are log-log bandwidth bars, rooflines, and
scaling curves; these renderers draw the same shapes in plain text so
the CLI and examples can show them without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.machine.roofline import RooflineModel, RooflinePoint

__all__ = ["bar_chart", "xy_plot", "roofline_plot",
           "roofline_profile_plot"]


def bar_chart(values: Mapping[str, float], title: str = "",
              width: int = 50, log: bool = False) -> str:
    """Horizontal bar chart; optionally log-scaled bars."""
    if not values:
        return f"{title}\n(empty)"
    vals = {k: float(v) for k, v in values.items()}
    if log:
        if any(v <= 0 for v in vals.values()):
            raise ValueError("log bars need positive values")
        lo = min(math.log10(v) for v in vals.values())
        hi = max(math.log10(v) for v in vals.values())
        span = max(hi - lo, 1e-12)
        scale = {k: (math.log10(v) - lo) / span for k, v in vals.items()}
    else:
        top = max(vals.values())
        scale = {k: (v / top if top else 0.0) for k, v in vals.items()}
    name_w = max(len(k) for k in vals) + 1
    lines = [title] if title else []
    for k, v in vals.items():
        bar = "#" * max(1, int(round(scale[k] * width)))
        lines.append(f"{k:<{name_w}} {bar} {v:.3g}")
    return "\n".join(lines)


def xy_plot(x: Sequence[float], y: Sequence[float], title: str = "",
            width: int = 60, height: int = 16,
            logx: bool = False, logy: bool = False) -> str:
    """Scatter/line plot on a character grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size == 0:
        return f"{title}\n(empty)"
    if (logx and np.any(x <= 0)) or (logy and np.any(y <= 0)):
        raise ValueError("log axes need positive data")
    fx = np.log10(x) if logx else x
    fy = np.log10(y) if logy else y
    x0, x1 = fx.min(), fx.max()
    y0, y1 = fy.min(), fy.max()
    sx = max(x1 - x0, 1e-12)
    sy = max(y1 - y0, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for xi, yi in zip(fx, fy):
        col = int(round((xi - x0) / sx * (width - 1)))
        row = (height - 1) - int(round((yi - y0) / sy * (height - 1)))
        grid[row][col] = "*"
    lines = [title] if title else []
    ymax_lab = f"{y1:.3g}" if not logy else f"1e{y1:.2f}"
    ymin_lab = f"{y0:.3g}" if not logy else f"1e{y0:.2f}"
    for r, row in enumerate(grid):
        label = ymax_lab if r == 0 else (ymin_lab if r == height - 1
                                         else "")
        lines.append(f"{label:>9} |" + "".join(row))
    xmin_lab = f"{x0:.3g}" if not logx else f"1e{x0:.2f}"
    xmax_lab = f"{x1:.3g}" if not logx else f"1e{x1:.2f}"
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(" " * 11 + f"{xmin_lab}" +
                 " " * max(1, width - len(xmin_lab) - len(xmax_lab)) +
                 f"{xmax_lab}")
    return "\n".join(lines)


def roofline_profile_plot(profiler, title: str = "") -> str:
    """Roofline chart plus the per-kernel counter table for one
    :class:`~repro.bench.roofline_profiler.RooflineProfiler`
    (the terminal view of ``repro profile``)."""
    return profiler.ascii(title) + "\n\n" + profiler.table()


def roofline_plot(model: RooflineModel, points: Sequence[RooflinePoint],
                  title: str = "", width: int = 60,
                  height: int = 16) -> str:
    """Log-log roofline with the ceiling drawn and points lettered."""
    if not points:
        return f"{title}\n(no points)"
    ai = np.array([p.arithmetic_intensity for p in points])
    gf = np.array([p.gflops for p in points])
    if np.any(ai <= 0) or np.any(gf <= 0):
        raise ValueError("roofline points must be positive")
    x0 = math.log10(min(ai.min(), model.ridge_point) / 4)
    x1 = math.log10(max(ai.max(), model.ridge_point) * 4)
    y1 = math.log10(model.peak_gflops * 2)
    y0 = math.log10(min(gf.min() / 4, model.peak_gflops / 1e4))
    grid = [[" "] * width for _ in range(height)]

    def place(cx: float, cy: float, ch: str) -> None:
        col = int(round((cx - x0) / (x1 - x0) * (width - 1)))
        row = (height - 1) - int(round((cy - y0) / (y1 - y0)
                                       * (height - 1)))
        if 0 <= row < height and 0 <= col < width:
            if grid[row][col] == " " or ch != ".":
                grid[row][col] = ch

    # The ceiling: min(peak, ai*bw) sampled across the width.
    for col in range(width):
        cx = x0 + (x1 - x0) * col / (width - 1)
        ceiling = min(model.peak_gflops, (10 ** cx) * model.bandwidth_gbs)
        place(cx, math.log10(ceiling), ".")
    letters = "ABCDEFGHIJKLMNOP"
    legend = []
    for i, p in enumerate(points):
        ch = letters[i % len(letters)]
        place(math.log10(p.arithmetic_intensity), math.log10(p.gflops), ch)
        legend.append(f"  {ch} = {p.label}: AI {p.arithmetic_intensity:.2f},"
                      f" {p.gflops:.0f} GFLOP/s")
    lines = [title] if title else []
    lines += ["".join(row) for row in grid]
    lines.append(f"(ceiling dots; ridge at AI={model.ridge_point:.1f}, "
                 f"peak {model.peak_gflops:.0f} GFLOP/s)")
    lines += legend
    return "\n".join(lines)
