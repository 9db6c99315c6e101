"""The Figure 10 strong-scaling harness.

Strong scaling: fix the global grid and particle count, grow the GPU
count, measure time per step. Each point combines

- **push time**: particles-per-GPU divided by the cache-model push
  rate at the per-GPU grid size (:mod:`repro.cluster.cache_scaling`)
  — shrinking partitions eventually drop into cache and the rate
  jumps, which is where superlinearity comes from;
- **communication time**: the six-face halo exchange (field
  components on the partition surface) plus migrating particles,
  priced by the system's link model — constant-ish per step while
  compute shrinks as 1/n, so it eventually dominates (the Sierra
  flattening in Figure 10a).

:func:`strong_scaling` evaluates that *model*; the measured
counterpart on this host is perfbench's ``ranks-procs`` /
``ranks-threads`` workloads (``mpi.speedup_vs_1rank``,
``mpi.overlap_eff``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.cluster.cache_scaling import push_rate
from repro.cluster.systems import SystemSpec
from repro.mpi.decomposition import CartDecomposition, balanced_dims

__all__ = ["ScalingPoint", "strong_scaling", "speedups",
           "imbalance_adjusted"]

#: Bytes exchanged per surface cell per step: 9 field components x
#: 4 B, exchanged for both ghost fill and current reduction.
HALO_BYTES_PER_CELL = 9 * 4 * 2
#: Fraction of local particles crossing a face per step (Courant-
#: limited drift) and bytes per migrated particle.
MIGRATION_FRACTION = 0.01
PARTICLE_BYTES = 32


@dataclass(frozen=True)
class ScalingPoint:
    """One (gpu count, time) sample of a strong-scaling curve."""

    n_gpus: int
    grid_per_gpu: int
    particles_per_gpu: float
    push_seconds: float
    comm_seconds: float

    @property
    def step_seconds(self) -> float:
        return self.push_seconds + self.comm_seconds

    @property
    def comm_fraction(self) -> float:
        return self.comm_seconds / self.step_seconds


def _cube_dims(n: int) -> tuple[int, int, int]:
    return balanced_dims(n)


def strong_scaling(system: SystemSpec, gpu_counts: list[int],
                   total_grid_points: int, total_particles: float
                   ) -> list[ScalingPoint]:
    """Evaluate one Figure 10 curve.

    The global grid is modelled as a cube split into per-GPU bricks
    via the balanced decomposition; per-GPU push rate comes from the
    cache model at the local grid size.
    """
    check_positive("total_grid_points", total_grid_points)
    check_positive("total_particles", total_particles)
    gpu = system.gpu
    cost = system.cost_model()
    side = round(total_grid_points ** (1.0 / 3.0))
    points = []
    for n in gpu_counts:
        check_positive("n_gpus", n)
        if n > system.max_gpus:
            raise ValueError(
                f"{system.name} has at most {system.max_gpus} GPUs, "
                f"asked for {n}")
        grid_local = max(1, total_grid_points // n)
        particles_local = total_particles / n
        rate = push_rate(gpu, grid_local)
        t_push = particles_local / rate

        # Surface of the local brick (cube-root sizing of the local
        # grid under the balanced decomposition).
        dims = _cube_dims(n)
        local = (max(1, side // dims[0]), max(1, side // dims[1]),
                 max(1, side // dims[2]))
        per_face_cells = (local[1] * local[2], local[1] * local[2],
                          local[0] * local[2], local[0] * local[2],
                          local[0] * local[1], local[0] * local[1])
        mean_face = float(np.mean(per_face_cells))
        halo_bytes = mean_face * HALO_BYTES_PER_CELL
        migrated = particles_local * MIGRATION_FRACTION
        particle_bytes = migrated / 6.0 * PARTICLE_BYTES
        frac_inter = _internode_fraction(n, system.gpus_per_node, dims)
        t_comm = cost.exchange_time(halo_bytes + particle_bytes, 6,
                                    frac_inter)
        points.append(ScalingPoint(n, grid_local, particles_local,
                                   t_push, t_comm))
    return points


def _internode_fraction(n_gpus: int, gpus_per_node: int,
                        dims: tuple[int, int, int]) -> float:
    """Fraction of a rank's six neighbors living on other nodes.

    With ranks packed along the fastest-varying axis, neighbors along
    that axis tend to share the node; the other four face neighbors
    are ``gpus_per_node`` ranks away and usually remote once the job
    spans multiple nodes.
    """
    if n_gpus <= gpus_per_node:
        return 0.0
    packed_axis_local = min(1.0, gpus_per_node / (2.0 * dims[2]))
    return float(np.clip(1.0 - packed_axis_local / 3.0, 0.5, 1.0))


def imbalance_adjusted(points: list[ScalingPoint],
                       load_imbalance: float) -> list[ScalingPoint]:
    """Apply a measured per-rank load imbalance to a scaling curve.

    :func:`strong_scaling` assumes perfectly balanced ranks, but a
    BSP step completes when its *slowest* rank does: with measured
    imbalance ``(max - mean) / mean`` of per-rank push time (see
    :class:`repro.observability.rank_profile.RankProfileReport`), the
    critical-path push time is ``mean x (1 + imbalance)``.
    Communication time is unchanged — the halo wait of the laggard is
    already what the imbalance describes.
    """
    if load_imbalance < 0:
        raise ValueError(
            f"load_imbalance must be non-negative, got {load_imbalance}")
    return [
        ScalingPoint(
            n_gpus=p.n_gpus,
            grid_per_gpu=p.grid_per_gpu,
            particles_per_gpu=p.particles_per_gpu,
            push_seconds=p.push_seconds * (1.0 + load_imbalance),
            comm_seconds=p.comm_seconds,
        )
        for p in points
    ]


def speedups(points: list[ScalingPoint],
             baseline: ScalingPoint | None = None) -> np.ndarray:
    """Speedup of each point relative to *baseline* (default: the
    first point), normalized per the paper's Figure 10 axes."""
    if not points:
        raise ValueError("empty scaling curve")
    base = baseline if baseline is not None else points[0]
    return np.array([base.step_seconds / p.step_seconds for p in points])
