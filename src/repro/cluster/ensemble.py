"""Ensemble campaigns: batches of small simulations (§6).

The paper's closing argument: superlinear strong scaling makes
*batches of small runs* the sweet spot — ML training-set generation,
stochastic parameter studies, upscaling models. This module provides
both halves of that workflow:

- :func:`plan_campaign` — given a system model and a batch of runs,
  choose the per-run GPU count that maximizes batch throughput
  (exploiting the cache-resident regime) and report the schedule;
- :class:`EnsembleRunner` — actually execute a batch of (small) decks
  locally, with per-run seeds and a result-extraction callback —
  the "generate a dataset" path, runnable in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._util import check_positive
from repro.cluster.cache_scaling import peak_grid_points, push_rate
from repro.cluster.systems import SystemSpec
from repro.vpic.deck import Deck

__all__ = ["CampaignPlan", "plan_campaign", "EnsembleRunner", "RunResult"]


@dataclass(frozen=True)
class CampaignPlan:
    """Chosen schedule for a batch of identical small runs."""

    system: str
    runs: int
    grid_points_per_run: int
    particles_per_run: float
    steps_per_run: int
    gpus_per_run: int
    concurrent_runs: int
    seconds_per_run: float
    total_seconds: float

    @property
    def runs_per_hour(self) -> float:
        return self.runs / self.total_seconds * 3600.0


def plan_campaign(system: SystemSpec, runs: int, grid_points: int,
                  particles: float, steps: int,
                  total_gpus: int | None = None) -> CampaignPlan:
    """Pick the per-run GPU count maximizing batch throughput.

    Sweeps the GPUs-per-run choice: more GPUs per run shrink the
    local grid toward (and past) the cache peak — the §5.5 effect —
    but fewer runs fit concurrently. The optimum is where the product
    of per-run speed and concurrency peaks.
    """
    check_positive("runs", runs)
    check_positive("grid_points", grid_points)
    check_positive("particles", particles)
    check_positive("steps", steps)
    total = total_gpus if total_gpus is not None else system.max_gpus
    check_positive("total_gpus", total)
    gpu = system.gpu
    cost = system.cost_model()
    best: CampaignPlan | None = None
    g = 1
    while g <= min(total, 64):
        local_grid = max(1, grid_points // g)
        rate = push_rate(gpu, local_grid)
        t_push = particles / g / rate
        if g > 1:
            # Per-step halo exchange on the run's partition surface.
            side = max(1, round(local_grid ** (1.0 / 3.0)))
            halo_bytes = side * side * 9 * 4 * 2
            frac_inter = 0.0 if g <= system.gpus_per_node else 0.8
            t_comm = cost.exchange_time(halo_bytes, 6, frac_inter)
        else:
            t_comm = 0.0
        seconds_per_run = (t_push + t_comm) * steps
        concurrent = max(1, total // g)
        waves = int(np.ceil(runs / concurrent))
        total_seconds = waves * seconds_per_run
        plan = CampaignPlan(
            system=system.name, runs=runs,
            grid_points_per_run=grid_points,
            particles_per_run=particles, steps_per_run=steps,
            gpus_per_run=g, concurrent_runs=concurrent,
            seconds_per_run=seconds_per_run,
            total_seconds=total_seconds,
        )
        if best is None or plan.total_seconds < best.total_seconds:
            best = plan
        g *= 2
    assert best is not None
    return best


@dataclass
class RunResult:
    """Outcome of one ensemble member."""

    index: int
    seed: int
    payload: object
    steps: int


class EnsembleRunner:
    """Execute a batch of deck variants locally.

    ``deck_factory(seed)`` builds each member's deck; ``extract(sim)``
    pulls whatever the dataset needs (fields, spectra, moments) after
    the run. Results arrive in submission order.
    """

    def __init__(self, deck_factory: Callable[[int], Deck],
                 extract: Callable, base_seed: int = 0):
        self.deck_factory = deck_factory
        self.extract = extract
        self.base_seed = base_seed
        self.results: list[RunResult] = []

    def run(self, count: int) -> list[RunResult]:
        check_positive("count", count)
        for i in range(count):
            seed = self.base_seed + i
            deck = self.deck_factory(seed)
            sim = deck.build()
            sim.run(deck.num_steps)
            self.results.append(RunResult(
                index=i, seed=seed,
                payload=self.extract(sim), steps=sim.step_count))
        return self.results
