#!/usr/bin/env python
"""Sweep every registered deck under the physics guard.

Runs each deck of the zoo (``repro.vpic.workloads.registered_decks()``)
for a few steps with ``--guard=raise`` semantics: any invariant
violation fails the deck, and the exit code is 1 when any deck failed.
What the guard costs is not measured here: perfbench's ``observed``
workload reports it (``guard.before_s``, ``guard.after_s``,
``obs.tools_share``).

``--detail`` turns detail metrics on as well, as ``run-deck --metrics``
does: every deck on the whole-step native lane then takes the step
that sorts in C, counts the sort's disorder and measures its energy
for the tools, the path a sanitizer sweep should cover.

A deck with a moving window runs at least until the window has shifted
twice (its ``start + 2 * interval``), however few ``--steps`` ask for:
the wakefield window waits out the laser launch, and a sweep that stops
before it never runs the shift.

    PYTHONPATH=src python scripts/guard_sweep.py [--detail]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def window_steps(sim) -> int:
    """Steps that take *sim*'s moving windows through two shifts; 0
    without one."""
    from repro.vpic.window import MovingWindow

    return max((src.start + 2 * src.interval for src in sim.sources
                if isinstance(src, MovingWindow)), default=0)


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
            sim.run(max(steps, window_steps(sim)))
            status = "clean"
        except GuardViolationError as exc:
            status = "VIOLATION"
            ok = False
            print(f"  {exc}")
        checks = sum(guard.report.checks_run.values())
        print(f"{name:14s} {status:10s} {sim.step_count:>6d} "
              f"{checks:>7d} {time.perf_counter() - t0:>8.2f}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=6,
                        help="steps per deck in the sweep (default 6)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--detail", action="store_true",
                        help="turn detail metrics on for the sweep")
    args = parser.parse_args(argv)

    from repro.observability.metrics import set_detail
    set_detail(args.detail)
    try:
        ok = sweep_decks(args.steps, args.seed)
    finally:
        set_detail(False)
    if not ok:
        print("sweep FAILED: at least one deck violated an invariant")
        return 1
    print("sweep passed: all decks clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
