"""Benchmark harness: regenerates every table and figure.

Each module produces the paper-shaped data series for one experiment
family; the ``benchmarks/`` pytest suite wraps them with shape
assertions and wall-clock timing of the real kernels:

- :mod:`repro.bench.rajaperf` — Figure 3: AXPY / PLANCKIAN /
  PI_REDUCE under the four strategies (executable kernels + modelled
  platform runtimes).
- :mod:`repro.bench.gather_scatter` — Figures 5-6: the gather-scatter
  microbenchmark (contiguous / repeated / stencil keys x sorts x
  platforms).
- :mod:`repro.bench.push_bench` — Figures 4, 7, 8: the VPIC particle
  push under strategies (CPUs), sort orders (GPUs), and rooflines.
- :mod:`repro.bench.scaling_bench` — Figures 9-10: cache peaks and
  strong scaling.
- :mod:`repro.bench.reporting` — table formatting shared by the
  benches and the EXPERIMENTS.md generator.
- :mod:`repro.bench.history` — reads the ``perfbench/1`` envelopes
  in ``perfbench/out/`` for ``repro bench history`` and for the
  dashboard's regression panel.
"""

from repro.bench.rajaperf import (
    RAJAPERF_KERNELS,
    axpy_kernel,
    planckian_kernel,
    pi_reduce_kernel,
    fig3_normalized_runtimes,
)
from repro.bench.gather_scatter import (
    KeyPattern,
    make_keys,
    apply_ordering,
    run_gather_scatter,
    bandwidth_table,
)
from repro.bench.push_bench import (
    collect_push_trace,
    fig4_strategy_speedups,
    fig7_sort_runtimes,
    fig8_roofline_points,
)
from repro.bench.scaling_bench import (
    fig9_series,
    fig10_series,
)
from repro.bench.reporting import format_table, format_series
from repro.bench.plots import bar_chart, roofline_plot, xy_plot
from repro.bench.runner import full_report
from repro.bench.history import (
    load_envelopes,
    history_rows,
    format_history,
    phase_baseline,
)

__all__ = [
    "RAJAPERF_KERNELS", "axpy_kernel", "planckian_kernel",
    "pi_reduce_kernel", "fig3_normalized_runtimes",
    "KeyPattern", "make_keys", "apply_ordering", "run_gather_scatter",
    "bandwidth_table",
    "collect_push_trace", "fig4_strategy_speedups", "fig7_sort_runtimes",
    "fig8_roofline_points",
    "fig9_series", "fig10_series",
    "format_table", "format_series",
    "bar_chart", "roofline_plot", "xy_plot", "full_report",
    "load_envelopes", "history_rows", "format_history", "phase_baseline",
]
