"""Multi-step native calls: ``Simulation.run`` as the one driver.

When nothing observes individual steps, ``run()`` hands the whole-step
native lane a chunk of steps per C call (``step_simulation(steps=k)``),
ending each chunk at the next diagnostic sample or the target; when
anything does — a guard, a recorder, a registered tool, detail mode, a
sort the C step cannot take — or the deck is off the whole-step lane,
it steps one call at a time. ``step_many`` decides with the same
predicate. The contract pinned here:

- a chunked run equals stepping one at a time: full-state sha256,
  every energy sample, the registry counters, ``sorts_performed`` and
  the voxel staleness flags — across decks, a sample interval that
  does not divide the sort interval, a run resumed from a checkpoint,
  one-step chunks, and one CPU vs every CPU of the mask;
- every observed or demoted configuration keeps one native call per
  step on the whole-step lane (none off it);
- the chunk-growth rule, on injected call durations.

Needs a C compiler; skips without one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.core.sorting import SortKind
from repro.kokkos.profiling import kernel_timings, profiling_session
from repro.observability.metrics import default_registry, set_detail
from repro.vpic import native, simulation, workloads
from repro.vpic.diagnostics import EnergyDiagnostic
from repro.vpic.simulation import Simulation

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]

ROOT = Path(__file__).resolve().parents[1]
PARTICLE = ("x", "y", "z", "ux", "uy", "uz", "w", "voxel", "tag")
FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
COUNTERS = ("sim/steps", "sim/particles_pushed", "step_lane/native-step",
            "sort/applied", "native/cell_crossings", "native/ghost_folds",
            "native/sort_events")
SORT_EVERY = 20
SAMPLE_EVERY = 7

DECKS = {
    "two-stream": lambda: workloads.two_stream_deck(seed=3),
    "uniform": lambda: workloads.uniform_plasma_deck(nx=8, ny=8, nz=8,
                                                     seed=3),
    "weibel": lambda: workloads.weibel_deck(nx=16, ny=16, ppc=8, seed=3),
    "laser-plasma": lambda: workloads.laser_plasma_deck(
        nx=16, ny=4, nz=4, ppc=8, seed=3),
}


def _build(deck: str) -> Simulation:
    sim = DECKS[deck]().build()
    sim.sort_step.interval = SORT_EVERY
    return sim


def _digest(sim) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        for attr in PARTICLE:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


def _state(sim, diag) -> dict:
    """Everything a chunked run must reproduce, JSON-able."""
    counters = default_registry().snapshot()["counters"]
    return {
        "digest": _digest(sim),
        "step_count": sim.step_count,
        "samples": [repr(s) for s in diag.samples],
        "counters": {c: counters.get(c, 0) for c in COUNTERS},
        "sorts": sim.sort_step.sorts_performed,
        "stale": [sp._voxels_stale for sp in sim.species],
    }


def _per_step(sim, steps: int, diag, every: int = SAMPLE_EVERY) -> None:
    """What ``run()`` did before it chunked: one ``step()`` per pass,
    a sample at every multiple of *every*."""
    if sim.step_count == 0:
        diag.record(sim)
    for _ in range(steps):
        sim.step()
        if sim.step_count % every == 0:
            diag.record(sim)


@pytest.fixture
def calls(monkeypatch):
    """Counts native whole-step calls and their steps, and ``step()``
    calls."""
    seen = {"native": 0, "native_steps": 0, "step": 0}
    real_native = native.step_simulation
    real_step = Simulation.step

    def counted_native(sim, *args, steps=1, **kwargs):
        seen["native"] += 1
        seen["native_steps"] += steps
        return real_native(sim, *args, steps=steps, **kwargs)

    def counted_step(self, *args):
        seen["step"] += 1
        return real_step(self, *args)

    monkeypatch.setattr(native, "step_simulation", counted_native)
    monkeypatch.setattr(Simulation, "step", counted_step)
    return seen


def _chunked(sim, steps: int) -> dict:
    default_registry().reset()
    diag = EnergyDiagnostic()
    sim.run(steps, diag, sample_every=SAMPLE_EVERY)
    return _state(sim, diag)


def _stepped(sim, steps: int) -> dict:
    default_registry().reset()
    diag = EnergyDiagnostic()
    _per_step(sim, steps, diag)
    return _state(sim, diag)


# -- identity -------------------------------------------------------------------

@pytest.mark.parametrize("deck", sorted(DECKS))
def test_chunked_run_equals_per_step(deck, calls):
    """60 steps, a sort every 20 and a sample every 7: the chunked run
    leaves the per-step state, samples, counters and sort count, and
    takes fewer native calls than steps."""
    steps = 60
    got = _chunked(_build(deck), steps)
    chunked_calls, chunk_steps = calls["native"], calls["native_steps"]
    assert calls["step"] == 0
    want = _stepped(_build(deck), steps)
    assert got == want
    assert chunk_steps == steps
    assert chunked_calls < steps
    assert got["sorts"] > 0 and got["counters"]["sort/applied"] > 0
    assert len(got["samples"]) == 1 + steps // SAMPLE_EVERY


def test_resumed_run_equals_uninterrupted(tmp_path):
    """Chunked to step 13, checkpointed, restored into a new
    simulation and chunked on to 50: the uninterrupted per-step run's
    state and its later samples."""
    from repro.vpic.checkpoint import load_checkpoint, save_checkpoint

    first = _build("two-stream")
    first.run(13, EnergyDiagnostic(), sample_every=SAMPLE_EVERY)
    resumed = load_checkpoint(save_checkpoint(first, tmp_path / "c.npz"))
    resumed.sort_step.interval = SORT_EVERY
    resumed.sort_step.sorts_performed = first.sort_step.sorts_performed
    default_registry().reset()
    diag = EnergyDiagnostic()
    resumed.run(37, diag, sample_every=SAMPLE_EVERY)
    got = _state(resumed, diag)

    ref = _build("two-stream")
    _per_step(ref, 13, EnergyDiagnostic())
    default_registry().reset()
    diag = EnergyDiagnostic()
    _per_step(ref, 37, diag)
    want = _state(ref, diag)
    assert got["digest"] == want["digest"]
    assert got["samples"] == want["samples"]
    assert got["sorts"] == want["sorts"]
    assert got["counters"] == want["counters"]


def test_one_step_chunks(monkeypatch, calls):
    """Chunks held at one step: one native call per step, same
    result."""
    monkeypatch.setattr(simulation, "_next_chunk", lambda c, k, s: 1)
    got = _chunked(_build("uniform"), 30)
    assert calls["native"] == calls["native_steps"] == 30
    assert got == _stepped(_build("uniform"), 30)


def test_run_without_diagnostic_chunks_to_the_target(calls):
    """No diagnostic: the only stop is the target."""
    sim = _build("two-stream")
    sim.run(40)
    assert calls["step"] == 0 and calls["native_steps"] == 40
    assert calls["native"] < 40
    ref = _build("two-stream")
    for _ in range(40):
        ref.step()
    assert sim.step_count == 40 and _digest(sim) == _digest(ref)


#: Chunked and per-step runs of every deck in a process pinned to
#: {cpus}; prints the team size and each run's state.
_PINNED_CHILD = """
import json, os
os.sched_setaffinity(0, {cpus!r})
from repro.vpic import native
from tests import test_run_chunks as t
out = {{"team": native.step_team_size()}}
for deck in sorted(t.DECKS):
    out[deck] = [t._chunked(t._build(deck), 45),
                 t._stepped(t._build(deck), 45)]
print(json.dumps(out))
"""


def _pinned(cpus) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PINNED_CHILD.format(cpus=sorted(cpus))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_setaffinity")
def test_chunked_equals_per_step_on_one_and_every_cpu():
    """A one-thread team and a team on every CPU of the mask: chunked
    equals per-step in each, and both agree across team sizes."""
    cpus = os.sched_getaffinity(0)
    runs = [_pinned({min(cpus)})]
    if len(cpus) > 1:
        runs.append(_pinned(cpus))
    assert runs[0].pop("team") == 1
    for out in runs[1:]:
        assert out.pop("team") == min(len(cpus), native._TEAM_MAX)
    for out in runs:
        for deck, (chunked, stepped) in out.items():
            assert chunked == stepped, deck
    assert all(out == runs[0] for out in runs)


# -- what keeps one call per step -------------------------------------------------

def _guard(sim):
    from repro.validate import SimulationGuard
    SimulationGuard(policy="raise").attach(sim)


def _recorder(sim):
    from repro.observability.timeseries import TimeSeriesRecorder
    TimeSeriesRecorder(stride=1).attach(sim)


def _random_sort(sim):
    sim.sort_step.kind = SortKind.RANDOM
    sim.sort_step.interval = 5


def _float64_fields(sim):
    from repro.vpic.fields import FieldArrays
    fields = FieldArrays(sim.grid, np.float64)
    for name in FIELDS:
        getattr(fields, name).data[...] = getattr(sim.fields, name).data
    return Simulation(grid=sim.grid, fields=fields, species=sim.species)


def _reference(sim):
    sim.step_plan = StepPlan.REFERENCE


#: (deck, how it is observed or demoted, whether its steps stay on the
#: whole-step lane).
PER_STEP = {
    "guard": ("uniform", _guard, True),
    "recorder": ("uniform", _recorder, True),
    "random-sort": ("uniform", _random_sort, True),
    "sources": ("wakefield", None, False),
    "esirkepov": ("beam-plasma", None, False),
    "float64-fields": ("uniform", _float64_fields, False),
    "reference-plan": ("uniform", _reference, False),
}


def _small(deck: str) -> Simulation:
    if deck == "uniform":
        return workloads.uniform_plasma_deck(nx=8, ny=8, nz=8,
                                             seed=1).build()
    if deck == "wakefield":
        return workloads.laser_wakefield_deck(nx=32, seed=1).build()
    return workloads.beam_plasma_deck(nx=16, ppc=8, seed=1).build()


def _assert_per_step(sim, calls, steps: int, whole_step: bool) -> None:
    default_registry().reset()
    sim.run(steps, EnergyDiagnostic(), sample_every=SAMPLE_EVERY)
    assert calls["step"] == steps
    assert calls["native"] == calls["native_steps"] == (
        steps if whole_step else 0)
    lane = default_registry().counter("step_lane/native-step").value
    assert lane == (steps if whole_step else 0)


@pytest.mark.parametrize("case", sorted(PER_STEP))
def test_observed_or_demoted_runs_step_one_call_at_a_time(case, calls):
    deck, setup, whole_step = PER_STEP[case]
    sim = _small(deck)
    if setup is not None:
        sim = setup(sim) or sim
    _assert_per_step(sim, calls, 12, whole_step)


@pytest.mark.parametrize("tool", ["tracer", "counters"])
def test_registered_tools_keep_one_call_per_step(tool, calls):
    from repro.bench.counters import CounterTool
    from repro.kokkos.callbacks import register_tool, unregister_tool
    from repro.machine.specs import get_platform
    from repro.observability.tracer import ChromeTracer

    t = (ChromeTracer() if tool == "tracer"
         else CounterTool(get_platform("A100")))
    register_tool(t)
    try:
        _assert_per_step(_small("uniform"), calls, 12, True)
    finally:
        unregister_tool(t)


def test_detail_mode_keeps_one_call_per_step(calls):
    set_detail(True)
    try:
        _assert_per_step(_small("uniform"), calls, 12, True)
    finally:
        set_detail(False)


# -- step_many asks the same predicate ----------------------------------------------

def test_step_many_under_detail_steps_each_deck():
    """Detail mode, sorting off: the decks step one at a time, so the
    drift gauge and a per-step ``sim/step_seconds`` are recorded."""
    reg = default_registry()
    reg.reset()
    sims = [_small("uniform") for _ in range(2)]
    for sim in sims:
        sim.sort_step.interval = 0
    set_detail(True)
    try:
        Simulation.step_many(sims, 4)
    finally:
        set_detail(False)
    snap = reg.snapshot()
    assert "sim/energy_drift" in snap["gauges"]
    assert snap["histograms"]["sim/step_seconds"]["count"] == 8
    assert snap["counters"]["step_lane/native-step"] == 8


def test_step_many_with_tracer_steps_each_deck():
    """A registered ChromeTracer: one ``step`` region and one span per
    phase per deck step, not one for the whole batch."""
    from repro.kokkos.callbacks import register_tool, unregister_tool
    from repro.observability.tracer import ChromeTracer

    tracer = register_tool(ChromeTracer())
    try:
        Simulation.step_many([_small("uniform") for _ in range(2)], 3)
    finally:
        unregister_tool(tracer)
    spans = tracer.totals_by_name()
    assert spans["step"][1] == 6
    assert spans["step/field_solve"][1] == 6


# -- --timings launch counts ------------------------------------------------------

def test_launch_counts_stay_per_step():
    """A chunked run and a batch count one launch per step on every
    per-step label, and one per sort on the sort label."""
    with profiling_session():
        sim = _build("uniform")
        sim.run(45)
        timers = kernel_timings()
        assert timers["step/field_solve"].launches == 45
        assert timers["step/sort/native"].launches == 2
    with profiling_session():
        Simulation.step_many([_build("uniform") for _ in range(2)], 25)
        timers = kernel_timings()
        assert timers["step/field_solve"].launches == 50
        assert timers["step/sort/native"].launches == 2


# -- the chunk-growth rule ----------------------------------------------------------

def test_chunk_doubles_while_calls_are_quick():
    chunk, sizes = 1, []
    for _ in range(6):
        sizes.append(chunk)
        chunk = simulation._next_chunk(chunk, chunk, 0.001 * chunk)
    assert sizes == [1, 2, 4, 8, 16, 32]


def test_chunk_stops_growing_at_the_time_bound():
    limit = simulation._CHUNK_SECONDS
    assert simulation._next_chunk(64, 64, limit) == 64
    assert simulation._next_chunk(64, 64, 10 * limit) == 64
    assert simulation._next_chunk(1, 1, 100.0) == 1


def test_chunk_cut_short_does_not_grow():
    """A call ended early by a sample or the target says nothing about
    the full chunk's duration."""
    assert simulation._next_chunk(64, 10, 0.0001) == 64
