"""Batched multi-deck stepping (ISSUE 7): step_many == N runs.

``Simulation.step_many`` advances independent decks round-robin —
through one batched native call per wavefront of steps when every
deck qualifies, and through interleaved Python ``step()`` calls when
any deck carries a guard, a recorder, or fails a native gate. Either
way the result must be byte-identical to stepping each deck to
completion on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.vpic.simulation import Simulation
from repro.vpic.workloads import two_stream_deck, uniform_plasma_deck

PARTICLE = ("x", "y", "z", "ux", "uy", "uz", "w", "voxel", "tag")
FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")


def _build_fleet(count, seed0=0, factory=uniform_plasma_deck,
                 sort_interval=None):
    sims = []
    for i in range(count):
        sim = factory(seed=seed0 + i).build()
        if sort_interval is not None:
            sim.sort_step.interval = sort_interval
        sims.append(sim)
    return sims


def _assert_fleets_identical(batch, solo):
    for a, b in zip(batch, solo):
        assert a.step_count == b.step_count
        for sp_a, sp_b in zip(a.species, b.species):
            assert sp_a.n == sp_b.n
            assert sp_a._voxels_stale == sp_b._voxels_stale
            for attr in PARTICLE:
                assert np.array_equal(getattr(sp_a, attr),
                                      getattr(sp_b, attr)), (
                    f"seed-split {sp_a.name}.{attr} differs")
        for name in FIELDS:
            assert np.array_equal(getattr(a.fields, name).data,
                                  getattr(b.fields, name).data), (
                f"fields.{name} differs")
        assert (a.sort_step.sorts_performed
                == b.sort_step.sorts_performed)


def test_step_many_byte_identical_to_independent_runs():
    """The batched lane (sort at step 20 included) vs N back-to-back
    independent runs: every particle, field, staleness flag, and sort
    count matches bytewise."""
    batch = _build_fleet(4, sort_interval=20)
    solo = _build_fleet(4, sort_interval=20)
    steps = 25
    Simulation.step_many(batch, steps)
    for sim in solo:
        for _ in range(steps):
            sim.step()
    _assert_fleets_identical(batch, solo)


def test_step_many_mixed_decks():
    batch = (_build_fleet(2, factory=uniform_plasma_deck)
             + _build_fleet(2, factory=two_stream_deck))
    solo = (_build_fleet(2, factory=uniform_plasma_deck)
            + _build_fleet(2, factory=two_stream_deck))
    Simulation.step_many(batch, 10)
    for sim in solo:
        for _ in range(10):
            sim.step()
    _assert_fleets_identical(batch, solo)


def test_step_many_with_guard_attached(tmp_path):
    """A guard on any deck forces the interleaved fallback; results
    stay byte-identical and the guard screens every step."""
    from repro.validate import SimulationGuard

    batch = _build_fleet(3)
    solo = _build_fleet(3)
    guards = []
    for sim in batch:
        g = SimulationGuard(policy="raise")
        g.attach(sim)
        guards.append(g)
    Simulation.step_many(batch, 8)
    for sim in solo:
        for _ in range(8):
            sim.step()
    _assert_fleets_identical(batch, solo)
    for g in guards:
        assert not g.report.violations


def test_step_many_with_recorder_attached(tmp_path):
    """A flight recorder on any deck forces the interleaved fallback;
    results stay byte-identical and every step is sampled."""
    from repro.observability.flight import FlightRecorder, read_events

    batch = _build_fleet(2)
    solo = _build_fleet(2)
    run_dir = str(tmp_path / "batch-run")
    rec = FlightRecorder(run_dir, stride=1)
    rec.attach(batch[0])
    with rec:
        Simulation.step_many(batch, 6)
    for sim in solo:
        for _ in range(6):
            sim.step()
    _assert_fleets_identical(batch, solo)
    events = [e for e in read_events(run_dir) if e["ev"] == "step"]
    assert len(events) == 6


def test_step_many_reference_plans_fall_back():
    """Decks pinned to the reference plan can't batch natively; the
    fallback still advances them correctly."""
    batch = _build_fleet(2)
    solo = _build_fleet(2)
    for sim in batch + solo:
        sim.step_plan = StepPlan.REFERENCE
    Simulation.step_many(batch, 3)
    for sim in solo:
        for _ in range(3):
            sim.step()
    _assert_fleets_identical(batch, solo)


def test_step_many_empty_and_zero_steps():
    Simulation.step_many([], 5)
    sims = _build_fleet(1)
    Simulation.step_many(sims, 0)
    assert sims[0].step_count == 0
