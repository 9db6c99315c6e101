"""The plans a step reads: which ordering and which lane.

Plain data, kept apart from the platform tuners in
:mod:`repro.core.tuning` (which choose a :class:`SortPlan` from a
Table-1 platform and so import the machine model): the PIC step reads
these without importing that model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.sorting import SortKind

__all__ = ["SortPlan", "StepPlan", "STEP_TILE"]


@dataclass(frozen=True)
class SortPlan:
    """Chosen ordering + parameters, with the reasoning recorded."""

    kind: SortKind
    tile_size: int
    reason: str

    def __str__(self) -> str:
        extra = f", tile={self.tile_size}" if self.tile_size else ""
        return f"{self.kind.value}{extra} ({self.reason})"


#: Particles per tile in the fused push. A fixed constant — not
#: derived from the host's core count or cache size — so runs are
#: deterministic across machines (the checkpoint determinism
#: contract). 8K float32 lanes keep every scratch buffer L2-resident
#: on all Table-1 CPUs.
STEP_TILE = 8192


class StepPlan(Enum):
    """The step lane a caller asks for (mirrors SortPlan's choice).

    ``NATIVE_STEP``, the default, enters C once per timestep (Yee
    solve, ghost handling, fused push, counting sort). ``NATIVE_PUSH``
    keeps the step in Python with one native push per step on the step
    team and the field solve and sort on the native kernels;
    ``NUMPY_FUSED`` is the tiled zero-allocation numpy push and
    ``NUMPY`` the kernel-by-kernel numpy step (both with bin-reduce
    deposition); ``REFERENCE`` is the original kernel-by-kernel
    sequence the equivalence tests compare against.

    A request is not a promise: ``Simulation.lane()`` resolves it
    against the deck, the attached tools and the build, once per step,
    into the lane that actually runs — a deck the whole-step lane
    cannot take degrades to the push lane, a missing compiler to
    numpy, and ``Simulation.native_fallback_reason()`` says why.
    Distributed ranks resolve the same request: the native requests
    push natively on each rank, the threads backend fans ranks out
    unless the request is ``REFERENCE``.
    """

    NATIVE_STEP = "native-step"
    NATIVE_PUSH = "native-push"
    NUMPY_FUSED = "numpy-fused"
    NUMPY = "numpy"
    REFERENCE = "reference"

    def __str__(self) -> str:
        return self.value
