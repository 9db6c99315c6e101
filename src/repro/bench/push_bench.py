"""The VPIC particle push under strategies and sort orders
(Figures 4, 7, and 8).

The traces come from a *real* simulation: a reduced laser-plasma deck
runs a few steps, and the electron population's voxel indices — the
exact gather/scatter keys the push kernel uses at that moment — are
captured and reordered by each sorting algorithm. The performance
model then prices the identical kernel on each platform:

- Figure 4: CPU runtimes under auto / guided / manual / ad hoc
  (standard sort, non-atomic thread-owned deposition, as VPIC's CPU
  path works);
- Figure 7: GPU runtimes under random / standard / strided /
  tiled-strided orders (atomic deposition, 12 accumulator updates
  per particle);
- Figure 8: roofline placements (arithmetic intensity x achieved
  GFLOP/s) per sort order on one GPU.
"""

from __future__ import annotations

import numpy as np

from repro.bench.parallel import parallel_map
from repro.bench.roofline_profiler import RooflineProfiler
from repro.core.sorting import SortKind
from repro.kokkos.profiling import profiling_session
from repro.machine.roofline import RooflineModel, RooflinePoint
from repro.machine.specs import PlatformSpec, cpu_platforms
from repro.perfmodel.kernel_cost import push_kernel_cost
from repro.perfmodel.predict import Prediction, predict_time
from repro.perfmodel.trace import AccessTrace
from repro.simd.autovec import Strategy
from repro.vpic.workloads import laser_plasma_deck

__all__ = [
    "collect_push_trace",
    "push_trace_from_keys",
    "fig4_strategy_speedups",
    "fig7_sort_runtimes",
    "fig8_roofline_points",
    "INTERPOLATOR_BYTES",
    "ACCUMULATOR_BYTES",
    "PARTICLE_STREAM_BYTES",
    "DEPOSIT_OPS",
]

#: Per-cell interpolator record (18 floats, §5.4's gather granularity).
INTERPOLATOR_BYTES = 72
#: Per-cell accumulator record (12 floats).
ACCUMULATOR_BYTES = 48
#: Particle struct traffic per push (read + write back).
PARTICLE_STREAM_BYTES = 64
#: Atomic accumulator component updates per particle.
DEPOSIT_OPS = 12

#: Paper-scale *occupied* cell count in the laser-plasma benchmark's
#: per-GPU partition — cache_scale anchors reduced traces against
#: this so the working-set/LLC ratio matches the full run.
FULL_BENCH_CELLS = 2_000_000


def collect_push_trace(nx: int = 32, ny: int = 16, nz: int = 16,
                       ppc: int = 48, warm_steps: int = 3,
                       seed: int = 0) -> tuple[np.ndarray, int]:
    """Run a reduced laser-plasma deck and capture push-kernel keys.

    Returns (electron voxel indices after *warm_steps* steps, voxel
    table size). The laser slab layout gives the non-uniform
    cell-occupancy distribution the benchmark relies on.
    """
    deck = laser_plasma_deck(nx=nx, ny=ny, nz=nz, ppc=ppc,
                             num_steps=warm_steps, seed=seed,
                             sort_interval=0)
    # The warm-up steps are measurement scaffolding, not the workload
    # under study — keep their kernel timings out of the caller's run.
    with profiling_session():
        sim = deck.build()
        for _ in range(warm_steps):
            sim.step()
    electrons = sim.get_species("electron")
    return electrons.live("voxel").copy(), sim.grid.n_voxels


def push_trace_from_keys(keys: np.ndarray, table_entries: int,
                         atomic: bool,
                         full_cells: int = FULL_BENCH_CELLS
                         ) -> AccessTrace:
    """Build the push kernel's access trace from voxel keys.

    ``cache_scale`` is derived from the *occupied* cell count — the
    grid working set the push actually touches.
    """
    occupied = int(np.unique(keys).size)
    return AccessTrace(
        n_ops=keys.size,
        streamed_bytes=float(keys.size) * PARTICLE_STREAM_BYTES,
        gather_indices=keys,
        gather_elem_bytes=INTERPOLATOR_BYTES,
        gather_table_entries=table_entries,
        scatter_indices=keys,
        scatter_elem_bytes=ACCUMULATOR_BYTES,
        scatter_table_entries=table_entries,
        scatter_is_atomic=atomic,
        scatter_ops_per_element=DEPOSIT_OPS if atomic else 1,
        cache_scale=occupied / full_cells,
        label="particle_push",
    )


def _ordered(keys: np.ndarray, kind: SortKind, platform: PlatformSpec,
             table_entries: int) -> np.ndarray:
    from repro.bench.gather_scatter import shared_ordering
    return shared_ordering(kind, keys, platform, table_entries)


def fig4_strategy_speedups(platforms: list[PlatformSpec] | None = None,
                           keys: np.ndarray | None = None,
                           table_entries: int | None = None) -> dict:
    """Figure 4: push-kernel runtime per CPU x strategy.

    Returns ``{platform: {strategy: Prediction}}``; the paper plots
    raw runtimes — tests normalize to auto. Ad hoc is skipped where
    VPIC 1.2 had no implementation.
    """
    if platforms is None:
        platforms = cpu_platforms()
    if keys is None or table_entries is None:
        keys, table_entries = collect_push_trace()
    cost = push_kernel_cost()
    # The standard sort does not depend on the platform, so every cell
    # prices the same trace; the platform x strategy cells themselves
    # are independent and fan out through parallel_map.
    ordered = _ordered(keys, SortKind.STANDARD, platforms[0], table_entries)
    trace = push_trace_from_keys(ordered, table_entries, atomic=False)
    cells = [(p, s) for p in platforms
             for s in (Strategy.AUTO, Strategy.GUIDED, Strategy.MANUAL,
                       Strategy.ADHOC)]

    def run_cell(cell: tuple) -> Prediction | None:
        p, s = cell
        try:
            return predict_time(p, trace, cost, s)
        except LookupError:
            return None

    predictions = parallel_map(run_cell, cells)
    out: dict = {}
    for p in platforms:
        out[p.name] = {}
    for (p, s), pred in zip(cells, predictions):
        if pred is not None:
            out[p.name][s.value] = pred
    return out


def fig7_sort_runtimes(platforms: list[PlatformSpec],
                       keys: np.ndarray | None = None,
                       table_entries: int | None = None) -> dict:
    """Figure 7: push-kernel runtime per GPU x sort order.

    Returns ``{platform: {order: Prediction}}``.
    """
    if keys is None or table_entries is None:
        keys, table_entries = collect_push_trace()
    for p in platforms:
        if not p.is_gpu:
            raise ValueError(f"Figure 7 is a GPU study; got {p.name}")
    cost = push_kernel_cost()
    cells = [(p, kind) for p in platforms
             for kind in (SortKind.RANDOM, SortKind.STANDARD,
                          SortKind.STRIDED, SortKind.TILED_STRIDED)]

    def run_cell(cell: tuple) -> Prediction:
        p, kind = cell
        ordered = _ordered(keys, kind, p, table_entries)
        trace = push_trace_from_keys(ordered, table_entries, atomic=True)
        return predict_time(p, trace, cost)

    predictions = parallel_map(run_cell, cells)
    out: dict = {}
    for (p, kind), pred in zip(cells, predictions):
        out.setdefault(p.name, {})[kind.value] = pred
    return out


def fig8_roofline_points(platform: PlatformSpec,
                         keys: np.ndarray | None = None,
                         table_entries: int | None = None
                         ) -> tuple[RooflineModel, list[RooflinePoint]]:
    """Figure 8: roofline placements of the push per sort order.

    The placement logic lives in the profiler layer now
    (:class:`~repro.bench.roofline_profiler.RooflineProfiler`);
    this keeps the historical (model, points) return shape. Random
    order is excluded as in the paper's Figure 8.
    """
    if keys is None or table_entries is None:
        keys, table_entries = collect_push_trace()
    runtimes = fig7_sort_runtimes([platform], keys, table_entries)
    profiler = RooflineProfiler.from_predictions(
        platform, runtimes[platform.name], exclude=("random",))
    return profiler.model, profiler.points()
