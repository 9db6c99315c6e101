#!/usr/bin/env python
"""Ensemble campaigns + what-if analysis (the paper's §6 workflows).

1. Plan a 1000-run campaign on the Selene model: the planner exploits
   the superlinear cache regime (§5.5) to pick GPUs-per-run.
2. Execute a small local ensemble for real, producing a dataset
   (final field energy vs drift velocity — a toy training set).
3. What-if: capture the push trace of one live run and price it on
   every GPU in Table 1.

Run:  python examples/ensemble_campaign.py
"""

import numpy as np

from repro.bench.collect import what_if
from repro.cluster.cache_scaling import peak_grid_points
from repro.cluster.ensemble import EnsembleRunner, plan_campaign
from repro.cluster.systems import get_system
from repro.machine.specs import gpu_platforms
from repro.vpic.workloads import two_stream_deck, uniform_plasma_deck


def main() -> None:
    # --- 1. plan a big campaign on the Selene model -----------------
    selene = get_system("Selene")
    peak = peak_grid_points(selene.gpu)
    plan = plan_campaign(selene, runs=1000, grid_points=4 * peak,
                         particles=4e8, steps=2000, total_gpus=512)
    print("campaign plan on Selene:")
    print(f"  {plan.runs} runs of {plan.grid_points_per_run} cells / "
          f"{plan.particles_per_run:.0e} particles x "
          f"{plan.steps_per_run} steps")
    print(f"  -> {plan.gpus_per_run} GPUs per run, "
          f"{plan.concurrent_runs} concurrent, "
          f"{plan.seconds_per_run:.1f} s per run, "
          f"{plan.runs_per_hour:.0f} runs/hour")

    # --- 2. run a real (small) ensemble locally ---------------------
    drifts = np.linspace(0.05, 0.15, 4)

    def factory(seed):
        return two_stream_deck(nx=16, ppc=16, num_steps=80,
                               drift=float(drifts[seed % len(drifts)]),
                               seed=seed)

    def extract(sim):
        e, b = sim.fields.field_energy()
        return e

    runner = EnsembleRunner(factory, extract)
    runner.run(len(drifts))
    print("\nlocal ensemble (two-stream field energy vs drift):")
    for r, drift in zip(runner.results, drifts):
        print(f"  drift {drift:.3f} -> E_field {r.payload:.3e}")

    # --- 3. what-if: this run on every GPU --------------------------
    sim = uniform_plasma_deck(nx=12, ny=12, nz=12, ppc=8,
                              uth=0.1).build()
    sim.run(3)
    report = what_if(sim, gpu_platforms())
    print()
    print(report.summary())


if __name__ == "__main__":
    main()
