"""Execute fuzzer decks under the physics guard and classify results.

One deck in, one :class:`FuzzResult` out. The runner is the oracle of
the fuzz loop: it builds the deck, records which step lane the
simulation actually takes (and why the native lane demoted, if it
did), runs the full deck length under ``SimulationGuard`` with the
``raise`` policy, and classifies the outcome:

- ``ok``     — ran to completion, every invariant held;
- ``guard``  — a physics invariant tripped (the interesting case:
  a *valid* deck whose simulation violated conservation);
- ``error``  — an unexpected exception escaped (a plain bug).

Guard trips and errors carry enough structure for the minimizer to
test "does the shrunk deck still fail the same way". Failures can
also be dumped through the flight-recorder crash path
(``<dir>/crash.json``) so a fuzz finding lands as the same artifact
a production crash would.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.validate.checks import default_checks
from repro.validate.guard import SimulationGuard
from repro.validate.policy import GuardViolationError
from repro.vpic.deck import Deck

__all__ = ["FuzzResult", "run_deck", "run_deck_distributed",
           "distributed_eligible", "failure_key"]


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one fuzzed run."""

    deck: dict            # serialized deck (the reproducer)
    status: str           # "ok" | "guard" | "error"
    lane: str             # "native-step" or the fallback reason
    steps_run: int
    check: str | None = None       # guard: which invariant tripped
    step: int | None = None        # guard/error: step of failure
    value: float | None = None
    threshold: float | None = None
    message: str | None = None     # guard message / exception repr
    ranks: int | None = None       # distributed runs: rank count
    backend: str | None = None     # distributed runs: step backend

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def to_dict(self) -> dict:
        return asdict(self)

    def headline(self) -> str:
        tag = (f" ranks={self.ranks}/{self.backend}"
               if self.ranks is not None else "")
        if self.status == "ok":
            return (f"{self.deck['name']}: ok "
                    f"({self.steps_run} steps){tag}")
        where = f"step {self.step}" if self.step is not None else "?"
        what = self.check or self.message
        return (f"{self.deck['name']}: {self.status} at {where} "
                f"[{what}] lane={self.lane}{tag}")


def failure_key(result: FuzzResult) -> tuple:
    """What the minimizer must preserve while shrinking: the failure
    class, not its location — a smaller deck fails earlier/elsewhere
    but must fail the *same way*."""
    if result.status == "guard":
        return ("guard", result.check)
    if result.status == "error":
        return ("error", result.message.split("(")[0] if result.message
                else None)
    return ("ok",)


def run_deck(deck: Deck, record_dir: str | None = None) -> FuzzResult:
    """Run *deck* to completion under ``guard=raise``; classify.

    With *record_dir*, a flight recorder streams the run and dumps
    ``crash.json`` there on failure (the standard crash artifact).
    """
    payload = deck.to_dict()
    sim = deck.build()
    lane = sim.native_fallback_reason() or "native-step"
    guard = SimulationGuard(default_checks(), policy="raise",
                            checkpoint_interval=0)
    guard.attach(sim)
    recorder = None
    if record_dir is not None:
        from repro.observability.flight import FlightRecorder
        recorder = FlightRecorder(record_dir, stride=1,
                                  meta={"deck": deck.name,
                                        "fuzz": True})
        recorder.attach(sim)
    try:
        sim.run(deck.num_steps)
    except GuardViolationError as exc:
        v = exc.violation
        return FuzzResult(deck=payload, status="guard", lane=lane,
                          steps_run=sim.step_count, check=v.check,
                          step=v.step, value=float(v.value),
                          threshold=float(v.threshold),
                          message=v.message)
    except Exception as exc:  # noqa: BLE001 — the fuzzer's whole job
        return FuzzResult(deck=payload, status="error", lane=lane,
                          steps_run=sim.step_count,
                          step=sim.step_count,
                          message=f"{type(exc).__name__}({exc})")
    finally:
        if recorder is not None:
            recorder.close()
    return FuzzResult(deck=payload, status="ok", lane=lane,
                      steps_run=sim.step_count)


def distributed_eligible(deck: Deck, n_ranks: int) -> str | None:
    """Why *deck* cannot run distributed at *n_ranks* (None if it can).

    The distributed driver supports plain periodic decks whose global
    grid divides evenly over the balanced rank decomposition; the
    fuzzer skips (and counts) everything else rather than reporting
    construction rejections as findings.
    """
    from repro.mpi.decomposition import CartDecomposition
    from repro.vpic.boundary import BoundaryKind
    from repro.vpic.deck import DepositionKind, FieldBoundaryKind

    if deck.deposition is not DepositionKind.CIC:
        return (f"{deck.deposition.value} deposition (rank pushes "
                f"deposit CIC only)")
    if deck.field_init is not None or deck.perturbation is not None:
        return "field_init/perturbation assumes a global grid"
    if deck.boundary is not BoundaryKind.PERIODIC:
        return f"non-periodic particle boundary ({deck.boundary.value})"
    if deck.field_boundary is not FieldBoundaryKind.PERIODIC:
        return f"non-periodic field boundary ({deck.field_boundary.value})"
    try:
        CartDecomposition.create(deck.nx, deck.ny, deck.nz, n_ranks)
    except ValueError as exc:
        return str(exc)
    return None


def run_deck_distributed(deck: Deck, n_ranks: int,
                         backend: str = "processes",
                         overlap: bool = True,
                         record_dir: str | None = None) -> FuzzResult:
    """Run *deck* distributed over *n_ranks* under ``RankGuard``.

    The distributed analogue of :func:`run_deck`: the per-rank
    structural guard (finite fields/particles every step) is the
    oracle, worker crashes (:class:`~repro.mpi.process_backend.
    RankWorkerError` included) classify as errors, and *record_dir*
    streams the run through the flight recorder so a failure dumps
    the standard ``crash.json`` artifact.
    """
    from repro.mpi.distributed import DistributedSimulation
    from repro.validate.checks import rank_checks
    from repro.validate.guard import RankGuard

    reason = distributed_eligible(deck, n_ranks)
    if reason is not None:
        raise ValueError(
            f"deck {deck.name!r} is not distributed-eligible: {reason}")
    payload = deck.to_dict()
    dsim = DistributedSimulation(deck, n_ranks,
                                 guard=RankGuard(rank_checks()),
                                 backend=backend, overlap=overlap)
    lane = dsim.rank_lanes()[0][0]
    recorder = None
    if record_dir is not None:
        from repro.observability.flight import FlightRecorder
        recorder = FlightRecorder(record_dir, stride=1,
                                  meta={"deck": deck.name,
                                        "fuzz": True,
                                        "ranks": n_ranks,
                                        "backend": backend})
        recorder.attach(dsim)
    try:
        dsim.run(deck.num_steps)
    except GuardViolationError as exc:
        v = exc.violation
        return FuzzResult(deck=payload, status="guard", lane=lane,
                          steps_run=dsim.step_count, check=v.check,
                          step=v.step, value=float(v.value),
                          threshold=float(v.threshold),
                          message=v.message,
                          ranks=n_ranks, backend=backend)
    except Exception as exc:  # noqa: BLE001 — the fuzzer's whole job
        return FuzzResult(deck=payload, status="error", lane=lane,
                          steps_run=dsim.step_count,
                          step=dsim.step_count,
                          message=f"{type(exc).__name__}({exc})",
                          ranks=n_ranks, backend=backend)
    finally:
        if recorder is not None:
            recorder.close()
        dsim.close()
    return FuzzResult(deck=payload, status="ok", lane=lane,
                      steps_run=dsim.step_count,
                      ranks=n_ranks, backend=backend)
