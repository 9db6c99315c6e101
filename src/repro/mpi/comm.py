"""The simulated MPI world: ranks, point-to-point, collectives.

:class:`World` holds the mailboxes; each rank's
:class:`Communicator` exposes the familiar surface:

- ``send/recv`` and ``isend/irecv`` + ``Request.wait`` for buffers
  (numpy arrays are copied on send, like an eager-protocol MPI);
- ``allreduce``, ``bcast``, ``gather``, ``allgather``, ``barrier``
  as *phase collectives*: each rank deposits its contribution, and
  results become available once every rank has contributed —
  matching the BSP phase structure the drivers use.

Every message is recorded in a :class:`MessageLog`; the cost model
prices the log afterwards, so communication *time* is a pure function
of what actually moved.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro._util import check_positive
from repro.observability.metrics import default_registry

# Instrument objects are cached at import: registry resets zero them
# in place, so these references stay valid for the process lifetime.
_m_messages = default_registry().counter("mpi/messages")
_m_bytes = default_registry().counter("mpi/bytes")
_m_dropped = default_registry().counter("mpi/log_dropped")

__all__ = ["World", "Communicator", "Request", "MessageLog", "SentMessage",
           "NeighborChannels", "ChannelAborted"]


@dataclass(frozen=True)
class SentMessage:
    """Log row: one point-to-point message."""

    source: int
    dest: int
    tag: int
    nbytes: int


@dataclass
class MessageLog:
    """Counts and sizes of everything the world has sent.

    ``capacity`` bounds the retained per-message rows: once full, the
    *oldest* row is evicted (ring semantics) and ``dropped`` counts
    the loss — long runs keep recent traffic without growing without
    bound. The aggregate views (``count``, ``total_bytes``,
    ``per_rank_bytes``) are running tallies and stay exact regardless
    of eviction; only row-level consumers (e.g. the cost model's
    ``price_log``) see the bounded window.
    """

    messages: deque = field(default_factory=deque)
    capacity: int | None = None
    dropped: int = 0
    _total_count: int = 0
    _total_bytes: int = 0
    _rank_bytes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity is not None:
            check_positive("capacity", self.capacity)

    def record(self, source: int, dest: int, tag: int, nbytes: int) -> None:
        self._total_count += 1
        self._total_bytes += nbytes
        self._rank_bytes[source] = self._rank_bytes.get(source, 0) + nbytes
        if self.capacity is not None and len(self.messages) >= self.capacity:
            self.messages.popleft()
            self.dropped += 1
            _m_dropped.inc()
        self.messages.append(SentMessage(source, dest, tag, nbytes))
        _m_messages.inc()
        _m_bytes.inc(nbytes)

    def record_aggregate(self, source: int, count: int,
                         nbytes: int) -> None:
        """Fold *count* messages totalling *nbytes* from *source* into
        the running tallies without materializing per-message rows.

        The processes backend moves halo slabs through shared-memory
        mailboxes — per-message Python rows are exactly the overhead
        it exists to remove — but the cost model and the tests still
        want exact counts and bytes, so workers count natively and the
        parent drains the totals here.
        """
        if count <= 0 and nbytes <= 0:
            return
        self._total_count += int(count)
        self._total_bytes += int(nbytes)
        self._rank_bytes[source] = \
            self._rank_bytes.get(source, 0) + int(nbytes)
        _m_messages.inc(int(count))
        _m_bytes.inc(int(nbytes))

    @property
    def count(self) -> int:
        """Messages recorded (including any evicted rows)."""
        return self._total_count

    @property
    def total_bytes(self) -> int:
        """Payload bytes recorded (including any evicted rows)."""
        return self._total_bytes

    def per_rank_bytes(self, n_ranks: int) -> np.ndarray:
        out = np.zeros(n_ranks, dtype=np.int64)
        for rank, nbytes in self._rank_bytes.items():
            if 0 <= rank < n_ranks:
                out[rank] = nbytes
        return out

    def clear(self) -> None:
        self.messages.clear()
        self.dropped = 0
        self._total_count = 0
        self._total_bytes = 0
        self._rank_bytes.clear()


def _payload_bytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_bytes(v) for v in payload.values())
    return 64  # nominal pickled-scalar cost


class Request:
    """Handle for a non-blocking operation."""

    def __init__(self, resolve: Callable[[], Any]):
        self._resolve = resolve
        self._done = False
        self._value: Any = None

    def test(self) -> bool:
        """True when the operation can complete now."""
        if self._done:
            return True
        try:
            self._value = self._resolve()
        except KeyError:
            return False
        self._done = True
        return True

    def wait(self) -> Any:
        """Complete the operation; raises if the peer never sent."""
        if not self.test():
            raise RuntimeError(
                "wait() on a request whose matching message was never "
                "sent — phase ordering bug in the driver"
            )
        return self._value


class World:
    """N simulated ranks sharing mailboxes and a message log."""

    def __init__(self, size: int, log_capacity: int | None = None):
        check_positive("size", size)
        self.size = size
        self.log = MessageLog(capacity=log_capacity)
        # mailbox[(dest, source, tag)] -> deque of payloads
        self._mail: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self._collective: dict[tuple[str, int], dict[int, Any]] = {}
        self._comms = [Communicator(self, r) for r in range(size)]

    def comm(self, rank: int) -> "Communicator":
        return self._comms[rank]

    # -- internals used by Communicator ------------------------------------------

    def _post(self, source: int, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for world {self.size}")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        self._mail[(dest, source, tag)].append(payload)
        self.log.record(source, dest, tag, _payload_bytes(payload))

    def _take(self, dest: int, source: int, tag: int) -> Any:
        box = self._mail.get((dest, source, tag))
        if not box:
            raise KeyError((dest, source, tag))
        return box.popleft()

    def _contribute(self, op: str, phase: int, rank: int, value: Any) -> None:
        self._collective.setdefault((op, phase), {})[rank] = value

    def _collect(self, op: str, phase: int) -> dict[int, Any]:
        got = self._collective.get((op, phase), {})
        if len(got) < self.size:
            raise KeyError(f"collective {op}@{phase} incomplete: "
                           f"{len(got)}/{self.size}")
        return got


class Communicator:
    """One rank's endpoint (mpi4py-flavoured surface)."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point -----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.world._post(self.rank, dest, tag, payload)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        # Eager protocol: buffered immediately; the request is already
        # complete (matching small-message MPI behaviour).
        self.world._post(self.rank, dest, tag, payload)
        return Request(lambda: None)

    def recv(self, source: int, tag: int = 0) -> Any:
        try:
            return self.world._take(self.rank, source, tag)
        except KeyError:
            raise RuntimeError(
                f"rank {self.rank} recv(source={source}, tag={tag}): "
                "no matching message — phase ordering bug"
            ) from None

    def irecv(self, source: int, tag: int = 0) -> Request:
        return Request(lambda: self.world._take(self.rank, source, tag))


class ChannelAborted(RuntimeError):
    """Raised inside a worker's wait loop when another rank (or the
    parent) flagged the run as aborted — lets every healthy worker
    unwind instead of spinning on a neighbor that died."""


class NeighborChannels:
    """Sequence-counter signalling between real rank processes.

    The lightweight replacement for :class:`World`'s mailboxes when
    ranks are forked processes over shared memory: payloads move as
    memcpys into preallocated per-(rank, face) mailbox slabs, and
    availability is announced through one monotonically increasing
    ``int64`` counter per (rank, face). The producer packs the slab,
    then *publishes* by bumping its counter; the consumer spins until
    the producer's counter reaches the expected absolute count for
    its (step, phase) and then reads the slab.

    Correctness rests on two properties:

    - **Single writer.** Only rank *r* ever stores to ``seq[r, f]``,
      so the bump needs no atomicity beyond an aligned 8-byte store.
    - **Store ordering.** The payload stores precede the counter
      store in program order; on x86-TSO (and any architecture where
      the interpreter's own locking implies release/acquire at these
      granularities) a consumer that observes the new counter value
      also observes the payload. Counters live cache-line apart from
      payload slabs (arena alignment) to avoid false sharing.

    Blocking: every channel has exactly one producer and one consumer
    (the face's neighbor), and publishes/waits are strictly paired by
    the step schedule — so when *sems* is provided (one semaphore per
    (rank, face), inherited across fork), each publish releases one
    token and each wait acquires exactly one. The k-th acquire
    returns only after the k-th publish, which is precisely the
    ``seq >= target`` dataflow condition, but the consumer blocks in
    the kernel instead of burning the producer's CPU — on an
    oversubscribed host (ranks >> cores) this is what makes real
    processes faster than spinning would allow. Without semaphores,
    waits fall back to an escalating spin/yield/sleep poll. The
    shared *abort* slot breaks either wait when any process failed.
    """

    #: Spin iterations before the first yield / before sleeping
    #: (polling fallback only).
    _SPIN = 128
    _YIELD = 4096

    def __init__(self, seq: np.ndarray, abort: np.ndarray, sems=None):
        self.seq = seq          # int64[n_ranks, 6], shared
        self.abort = abort      # int64[1], shared
        self.sems = sems        # flat [rank*6 + face], or None

    def publish(self, rank: int, face: int) -> None:
        """Announce one more posted payload on (rank, face)."""
        self.seq[rank, face] += 1
        if self.sems is not None:
            self.sems[rank * 6 + face].release()

    def wait(self, rank: int, face: int, target: int) -> float:
        """Block until ``seq[rank, face] >= target``; returns seconds
        spent waiting (0.0 when already satisfied)."""
        if self.sems is not None:
            sem = self.sems[rank * 6 + face]
            if sem.acquire(False):
                return 0.0
            t0 = time.perf_counter()
            while not sem.acquire(True, 0.05):
                if self.abort[0]:
                    raise ChannelAborted(
                        f"abort flagged while waiting on rank {rank} "
                        f"face {face} (target {target})")
            return time.perf_counter() - t0
        seq = self.seq
        if seq[rank, face] >= target:
            return 0.0
        t0 = time.perf_counter()
        spins = 0
        while seq[rank, face] < target:
            spins += 1
            if spins > self._YIELD:
                if self.abort[0]:
                    raise ChannelAborted(
                        f"abort flagged while waiting on rank {rank} "
                        f"face {face} (target {target})")
                time.sleep(50e-6)
            elif spins > self._SPIN:
                time.sleep(0)
        return time.perf_counter() - t0

    def request_abort(self) -> None:
        self.abort[0] = 1

    @property
    def aborted(self) -> bool:
        return bool(self.abort[0])


def allreduce(world: World, values: list, op: str = "sum"):
    """World-level convenience allreduce over per-rank values."""
    if len(values) != world.size:
        raise ValueError(f"need {world.size} values, got {len(values)}")
    phase = id(values) & 0x7FFFFFFF
    for r, v in enumerate(values):
        world._contribute(f"allreduce-{op}", phase, r, v)
    got = world._collect(f"allreduce-{op}", phase)
    vals = [got[r] for r in range(world.size)]
    if op == "sum":
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if op == "max":
        return max(vals)
    if op == "min":
        return min(vals)
    raise ValueError(f"unknown allreduce op {op!r}")
