#!/usr/bin/env python
"""Sweep every registered deck under the physics guard.

Runs each deck of the zoo (``repro.vpic.workloads.registered_decks()``)
for a few steps with ``--guard=raise`` semantics: any invariant
violation fails the deck, and the exit code is 1 when any deck failed.
What the guard costs is not measured here: perfbench's ``observed``
workload reports it (``guard.before_s``, ``guard.after_s``,
``obs.tools_share``).

    PYTHONPATH=src python scripts/guard_sweep.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def sweep_decks(steps: int, seed: int) -> bool:
    from repro.validate import GuardViolationError, SimulationGuard
    from repro.vpic.workloads import make_deck, registered_decks

    ok = True
    print(f"{'deck':14s} {'status':10s} {'steps':>6s} {'checks':>7s} "
          f"{'seconds':>8s}")
    for name in registered_decks():
        sim = make_deck(name, steps=steps, seed=seed).build()
        guard = SimulationGuard(policy="raise")
        guard.attach(sim)
        t0 = time.perf_counter()
        try:
            sim.run(steps)
            status = "clean"
        except GuardViolationError as exc:
            status = "VIOLATION"
            ok = False
            print(f"  {exc}")
        finally:
            guard.close()
        checks = sum(guard.report.checks_run.values())
        print(f"{name:14s} {status:10s} {sim.step_count:>6d} "
              f"{checks:>7d} {time.perf_counter() - t0:>8.2f}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=6,
                        help="steps per deck in the sweep (default 6)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if not sweep_decks(args.steps, args.seed):
        print("sweep FAILED: at least one deck violated an invariant")
        return 1
    print("sweep passed: all decks clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
