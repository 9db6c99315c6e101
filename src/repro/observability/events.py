"""Trace event records and the bounded ring buffer that holds them.

A long run can emit millions of kernel launches; an observability
layer must not turn into an unbounded allocation. The
:class:`RingBuffer` keeps the most recent ``capacity`` events and
counts what it evicted, so exports always state their own loss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["SpanEvent", "CounterSeries", "RingBuffer"]


@dataclass
class SpanEvent:
    """One completed begin/end interval (Chrome-trace ``ph: "X"``).

    Timestamps are microseconds relative to the owning tracer's
    epoch, matching the Chrome trace-event format's ``ts``/``dur``
    convention.
    """

    name: str
    cat: str
    start_us: float
    dur_us: float
    pid: int = 0
    tid: int = 0
    args: dict | None = None

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def to_chrome(self) -> dict:
        """The Chrome trace-event dict for this span."""
        ev = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self.start_us,
            "dur": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            ev["args"] = self.args
        return ev


@dataclass
class CounterSeries:
    """Sampled values of one counter over trace time (``ph: "C"``)."""

    name: str
    samples: list[tuple[float, float]] = field(default_factory=list)

    def sample(self, ts_us: float, value: float) -> None:
        self.samples.append((ts_us, value))

    def to_chrome(self, pid: int = 0) -> list[dict]:
        return [{"name": self.name, "ph": "C", "ts": ts, "pid": pid,
                 "args": {self.name: value}}
                for ts, value in self.samples]


class RingBuffer:
    """Bounded FIFO of events; eviction is counted, never silent."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque = deque(maxlen=self.capacity)
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Events evicted to make room since the last :meth:`clear`."""
        return self._dropped

    def append(self, item) -> None:
        if len(self._items) == self.capacity:
            self._dropped += 1
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def snapshot(self) -> list:
        """Materialised copy of the retained events, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        self._items.clear()
        self._dropped = 0

    def __repr__(self) -> str:
        return (f"RingBuffer(len={len(self)}, capacity={self.capacity}, "
                f"dropped={self._dropped})")
