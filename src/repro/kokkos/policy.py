"""Execution policies: what to iterate and on which space.

``RangePolicy`` covers the flat 1-D launches VPIC's particle kernels
use; ``MDRangePolicy`` the field-solver's 3-D sweeps; ``TeamPolicy``
hierarchical (league of teams) parallelism — the structure the paper's
"auto" vectorization strategy relies on (team = thread, vector range =
SIMD lanes / warp lanes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro._util import check_positive
from repro.kokkos.execution import DefaultExecutionSpace, ExecutionSpace

__all__ = ["RangePolicy", "MDRangePolicy", "TeamPolicy", "TeamMember"]


@dataclass
class RangePolicy:
    """Flat iteration over ``[begin, end)``."""

    begin: int
    end: int
    space: ExecutionSpace | None = None

    def __post_init__(self) -> None:
        if self.end < self.begin:
            raise ValueError(f"end {self.end} < begin {self.begin}")

    @classmethod
    def of(cls, n: int, space: ExecutionSpace | None = None) -> "RangePolicy":
        """``RangePolicy(0, n)`` shorthand."""
        return cls(0, n, space)

    @property
    def size(self) -> int:
        return self.end - self.begin

    def resolve_space(self) -> ExecutionSpace:
        return self.space if self.space is not None else DefaultExecutionSpace()

    def batches(self) -> Iterator[np.ndarray]:
        return self.resolve_space().partition(self.begin, self.end)


@dataclass
class MDRangePolicy:
    """Multidimensional iteration over a box ``[lower, upper)``.

    Batches carry *flattened* (C-order) indices plus the box shape so
    kernels can ``np.unravel_index`` cheaply; Kokkos similarly tiles
    MDRange and hands tiles to the backend.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    space: ExecutionSpace | None = None

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper rank mismatch")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"empty/negative box {self.lower}..{self.upper}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def resolve_space(self) -> ExecutionSpace:
        return self.space if self.space is not None else DefaultExecutionSpace()

    def batches(self) -> Iterator[np.ndarray]:
        """Flat-index batches; use :meth:`unflatten` to recover coords."""
        return self.resolve_space().partition(0, self.size)

    def unflatten(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Map flat batch indices back to per-dimension coordinates."""
        coords = np.unravel_index(flat, self.shape)
        return tuple(c + l for c, l in zip(coords, self.lower))


@dataclass
class TeamMember:
    """Handle passed to team kernels: league/team geometry + lanes.

    ``lanes`` is the index batch this team executes; ``team_scratch``
    is a per-team dict standing in for Kokkos scratch memory (the
    cache-resident staging the tiled sort exploits).
    """

    league_rank: int
    league_size: int
    team_size: int
    lanes: np.ndarray
    team_scratch: dict = field(default_factory=dict)


@dataclass
class TeamPolicy:
    """League of teams; each team gets a contiguous slice of work.

    ``league_size`` teams of ``team_size`` lanes. ``AUTO`` team size
    (``team_size=0``) resolves to the space's natural group size.
    """

    league_size: int
    team_size: int = 0
    space: ExecutionSpace | None = None

    def __post_init__(self) -> None:
        check_positive("league_size", self.league_size)
        if self.team_size < 0:
            raise ValueError(f"team_size must be >= 0, got {self.team_size}")

    def resolve_space(self) -> ExecutionSpace:
        return self.space if self.space is not None else DefaultExecutionSpace()

    def resolve_team_size(self) -> int:
        if self.team_size:
            return self.team_size
        return max(1, self.resolve_space().group_size)

    def members(self, total_work: int | None = None) -> Iterator[TeamMember]:
        """Yield one :class:`TeamMember` per team.

        When *total_work* is given, the work items are divided evenly
        across teams (the ``TeamThreadRange`` idiom); otherwise each
        team's lanes are ``team_size`` consecutive global lane IDs.
        """
        tsz = self.resolve_team_size()
        if total_work is None:
            for rank in range(self.league_size):
                lanes = np.arange(rank * tsz, (rank + 1) * tsz, dtype=np.int64)
                yield TeamMember(rank, self.league_size, tsz, lanes)
        else:
            bounds = np.linspace(0, total_work, self.league_size + 1,
                                 dtype=np.int64)
            for rank in range(self.league_size):
                lo, hi = int(bounds[rank]), int(bounds[rank + 1])
                lanes = np.arange(lo, hi, dtype=np.int64)
                yield TeamMember(rank, self.league_size, tsz, lanes)
