"""Bounded auto-checkpoint ring backing guard rollback.

The guard pushes a validated snapshot every N steps; the ring keeps
the newest ``depth`` of them in memory and evicts the oldest. A
snapshot is a :class:`~repro.vpic.checkpoint.Snapshot`: copies of the
arrays :func:`~repro.vpic.checkpoint.save_checkpoint` would write (less
the voxel indices, which the positions determine) plus its metadata,
and a rollback restores it through the same
:func:`~repro.vpic.checkpoint.restore_state_into` as a file. A push
copies into the buffers of the snapshot it evicts, so once the ring is
full a push allocates no array.
"""

from __future__ import annotations

from collections import deque

from repro.vpic.checkpoint import Snapshot, capture_state, restore_state_into

__all__ = ["CheckpointRing"]


class CheckpointRing:
    """Newest-``depth`` rolling snapshots of one simulation."""

    def __init__(self, depth: int = 2):
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.depth = depth
        self._entries: deque[tuple[int, Snapshot]] = deque()
        self.pushes = 0

    @property
    def entries(self) -> list[tuple[int, Snapshot]]:
        """(step, snapshot) pairs, oldest first."""
        return list(self._entries)

    def newest(self) -> tuple[int, Snapshot] | None:
        return self._entries[-1] if self._entries else None

    def push(self, sim) -> Snapshot:
        """Snapshot *sim*, evicting the oldest entry beyond depth.

        Re-pushing the same step (it happens after a rollback re-runs
        to a checkpointed step) overwrites in place instead of
        duplicating the entry.
        """
        if self._entries and self._entries[-1][0] == sim.step_count:
            snap = capture_state(sim, into=self._entries[-1][1])
        else:
            spare = (self._entries.popleft()[1]
                     if len(self._entries) >= self.depth else None)
            snap = capture_state(sim, into=spare)
            self._entries.append((sim.step_count, snap))
        self.pushes += 1
        return snap

    def rollback(self, sim) -> int:
        """Restore the newest snapshot into *sim* in place; returns
        the restored step count."""
        newest = self.newest()
        if newest is None:
            raise LookupError("checkpoint ring is empty")
        return restore_state_into(sim, newest[1])

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        steps = [s for s, _ in self._entries]
        return f"CheckpointRing(depth={self.depth}, steps={steps})"
