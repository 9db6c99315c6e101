"""Atomic-contention serialization model.

Current deposition in a PIC code scatters with atomic adds: every
particle updates the grid cell it sits in. When many concurrently
executing lanes hit the *same* address, the hardware serialises the
read-modify-write chain. The paper's "repeated keys" microbenchmark
(each key repeated 100x, Figures 5b/6b) is built to expose exactly
this: bandwidth collapses by ~2 orders of magnitude under standard
ordering, and the strided orders recover it by spreading duplicates
across different execution groups.

The model counts, per concurrently-executing group (a warp on GPUs, a
SIMD vector on CPUs), the multiplicity histogram of target addresses.
A group with max multiplicity *m* pays *m* serialized atomic slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.machine.specs import PlatformSpec

__all__ = ["AtomicContentionModel", "conflict_slots"]


def conflict_slots(keys: np.ndarray, group_size: int) -> int:
    """Total serialized atomic slots for grouped execution of *keys*.

    Lanes are grouped in-order into groups of *group_size*. Within a
    group, atomics to distinct addresses proceed in parallel (one
    slot), while duplicates serialise; the group costs
    ``max multiplicity`` slots. Returns the sum over groups.

    Fully vectorised: rows are sorted, run lengths found via boundary
    differences, and per-row maxima taken.
    """
    check_positive("group_size", group_size)
    keys = np.asarray(keys, dtype=np.int64).ravel()
    n = keys.size
    if n == 0:
        return 0
    pad = (-n) % group_size
    if pad:
        # Pad with unique sentinels so padding never inflates a run.
        sentinels = keys.max() + 1 + np.arange(pad, dtype=np.int64)
        keys = np.concatenate([keys, sentinels])
    rows = np.sort(keys.reshape(-1, group_size), axis=1)
    g, w = rows.shape
    boundary = np.ones((g, w), dtype=np.int64)
    boundary[:, 1:] = rows[:, 1:] != rows[:, :-1]
    # Position of each element within its run = index - index_of_run_start.
    idx = np.arange(w, dtype=np.int64)[None, :]
    run_start = np.maximum.accumulate(np.where(boundary.astype(bool), idx, 0), axis=1)
    run_pos = idx - run_start
    max_mult = run_pos.max(axis=1) + 1
    return int(max_mult.sum())


@dataclass(frozen=True)
class AtomicContentionModel:
    """Serialized-atomic timing bound to one platform."""

    platform: PlatformSpec

    @property
    def group_size(self) -> int:
        """Concurrent-lane group: warp on GPUs, SIMD width on CPUs."""
        p = self.platform
        if p.is_gpu:
            return p.warp_size
        # CPUs: conflicts matter across hardware threads hitting the
        # same line; model the vector width (4-byte lanes) as the
        # granule of simultaneous updates.
        from repro.machine.specs import isa_lanes
        return max(2, isa_lanes(p.best_isa(p.compiler_isas), 4))

    def serialized_slots(self, keys: np.ndarray) -> int:
        return conflict_slots(keys, self.group_size)
