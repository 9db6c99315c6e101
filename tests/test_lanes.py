"""The lane truth table: what each requested lane resolves to, and that
the lane a step reports is the lane that ran.

``Simulation.lane()`` (``repro.vpic.simulation.resolve_lane``) is the
one place the lane is decided. These tests pin its answer on every zoo
deck for every :class:`~repro.core.tuning.StepPlan`, and check it
against what actually ran: which ``step_lane/*`` counter moved, which
C entry was called, and what ``native_fallback_reason()`` said. The
distributed half checks the same on ranks: a rank counts
``native-push`` only when native push calls ran.
"""

from __future__ import annotations

import contextlib
import multiprocessing

import pytest

from repro.core.tuning import StepPlan
from repro.kokkos.atomics import collect_atomics
from repro.mpi.distributed import DistributedSimulation
from repro.observability.metrics import default_registry
from repro.vpic import native
from repro.vpic.workloads import make_deck, registered_decks

pytestmark = pytest.mark.skipif(not native.native_available(),
                                reason="needs the compiled kernels")

NS, NP, NF, REF = "native-step", "native-push", "numpy-fused", "reference"
STEP, PUSH, ESK = "step_simulation", "push_simulation", "push_species_esirkepov"

#: deck -> per requested lane (NATIVE_STEP, NATIVE_PUSH, NUMPY_FUSED,
#: NUMPY, REFERENCE): (the ``step_lane/*`` label, the C entry that
#: carries the step or its push, or None for numpy).
TABLE = {
    "uniform": ((NS, STEP), (NP, PUSH), (NF, None), (NF, None),
                (REF, None)),
    "two-stream": ((NS, STEP), (NP, PUSH), (NF, None), (NF, None),
                   (REF, None)),
    "weibel": ((NS, STEP), (NP, PUSH), (NF, None), (NF, None),
               (REF, None)),
    "laser-plasma": ((NS, STEP), (NP, PUSH), (NF, None), (NF, None),
                     (REF, None)),
    "harris": ((NS, STEP), (NP, PUSH), (NF, None), (NF, None),
               (REF, None)),
    # Esirkepov: the push is the native kernel, counted numpy-fused
    "beam-plasma": ((NF, ESK), (NF, ESK), (NF, None), (NF, None),
                    (REF, None)),
    # antenna + moving window: the sources demote to the push lane
    "wakefield": ((NP, PUSH), (NP, PUSH), (NF, None), (NF, None),
                  (REF, None)),
    "reconnection": ((NF, ESK), (NF, ESK), (NF, None), (NF, None),
                     (REF, None)),
}

_ON = "; fields and sort on native kernels"
_ESK = "esirkepov deposition steps kernel by kernel; push on the " \
       "native Esirkepov kernel" + _ON
#: ``native_fallback_reason()`` of every zoo deck on the default lane,
#: word for word (the flight header, the watch panel and the run-deck
#: note print it).
DEFAULT_REASONS = {
    "uniform": None, "two-stream": None, "weibel": None,
    "laser-plasma": None, "harris": None,
    "beam-plasma": _ESK, "reconnection": _ESK,
    "wakefield": "per-step field sources attached: LaserAntenna, "
                 "MovingWindow" + _ON,
}
#: The reasons of the requests that pin a lane, on every deck.
PINNED_REASONS = {
    StepPlan.NUMPY_FUSED: "StepPlan disables native kernels",
    StepPlan.NUMPY: "StepPlan disables native kernels",
    StepPlan.REFERENCE: "reference StepPlan pinned",
}


def test_the_table_covers_every_zoo_deck():
    assert set(TABLE) == set(registered_decks()) == set(DEFAULT_REASONS)


@pytest.fixture
def entries(monkeypatch):
    """The C entries called, in order."""
    ran = []
    for module, name in ((native, STEP), (native, PUSH),
                         (native._NativeLib, ESK)):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            ran.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return ran


@pytest.mark.parametrize("plan", list(StepPlan), ids=str)
@pytest.mark.parametrize("deck", sorted(TABLE))
def test_lane_truth_table(deck, plan, entries):
    label, entry = TABLE[deck][list(StepPlan).index(plan)]
    sim = make_deck(deck, steps=2).build()
    sim.step_plan = plan
    lane = sim.lane()
    reason = sim.native_fallback_reason()
    default_registry().reset()
    sim.run(2)
    assert lane.label == label
    moved = {k: v for k, v in default_registry().snapshot()["counters"]
             .items() if k.startswith("step_lane/") and v}
    assert moved == {f"step_lane/{label}": 2}
    assert (reason is None) == (label == NS)
    assert set(entries) == ({entry} if entry else set())
    if plan is StepPlan.NATIVE_STEP:
        assert reason == DEFAULT_REASONS[deck]
    elif plan in PINNED_REASONS:
        assert reason == PINNED_REASONS[plan]


def _rank_run(plan, backend, accounting):
    """(step_lane counters that moved, rank lanes) of two steps of
    ``uniform`` on two ranks."""
    default_registry().reset()
    with collect_atomics() if accounting else contextlib.nullcontext():
        dsim = DistributedSimulation(make_deck("uniform", steps=2), 2,
                                     plan=plan, backend=backend)
        try:
            dsim.run(2)
            lanes = dsim.rank_lanes()
        finally:
            dsim.close()
    moved = {k: v for k, v in default_registry().snapshot()["counters"]
             .items() if k.startswith("step_lane/") and v}
    return moved, lanes


@pytest.mark.parametrize("accounting", [False, True],
                         ids=["plain", "accounting"])
@pytest.mark.parametrize("plan", list(StepPlan), ids=str)
def test_rank_lane_names_the_push_that_ran_threads(plan, accounting,
                                                   monkeypatch):
    """Threads backend: ``step_lane/native-push`` is counted, and
    ``rank_lanes()`` says ``native-push``, exactly when native push
    calls ran; accounting keeps the push on numpy and says so."""
    calls = []
    real = native._NativeLib.push_species

    def spy(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(native._NativeLib, "push_species", spy)
    moved, lanes = _rank_run(plan, "threads", accounting)
    label = lanes[0][0]
    assert lanes == [lanes[0]] * 2
    assert moved == {f"step_lane/{label}": 2}
    assert (label == NP) == bool(calls)
    assert bool(calls) == (not accounting and plan in (
        StepPlan.NATIVE_STEP, StepPlan.NATIVE_PUSH))
    if accounting and plan in (StepPlan.NATIVE_STEP, StepPlan.NATIVE_PUSH):
        assert lanes[0] == (NF, "atomics accounting enabled")


@pytest.mark.parametrize("plan", list(StepPlan), ids=str)
def test_rank_lane_names_the_push_that_ran_processes(plan, monkeypatch):
    """Processes backend: the workers' pre-marshalled native pushes run
    exactly when the handshake reported ``native-push``, which is
    what the parent counts. The count crosses the fork in shared
    memory."""
    ran = multiprocessing.get_context("fork").Value("i", 0)
    real = native.PreparedSpeciesPush.__call__

    def spy(self):
        with ran.get_lock():
            ran.value += 1
        return real(self)

    monkeypatch.setattr(native.PreparedSpeciesPush, "__call__", spy)
    moved, lanes = _rank_run(plan, "processes", False)
    label = lanes[0][0]
    assert lanes == [lanes[0]] * 2
    assert moved == {f"step_lane/{label}": 2}
    assert (label == NP) == (ran.value > 0)
