"""Particle sorting integration: applying §3.2 inside the PIC loop.

VPIC periodically reorders particles by cell index to keep the push
kernel's memory accesses structured. :class:`SortStep` owns the
policy — which :class:`~repro.core.sorting.SortKind` to use (chosen
per platform by :mod:`repro.core.tuning`), the tile size, and the
sorting interval — and applies it to a species' SoA arrays in one
fused permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import SortPlan
from repro.core.sorting import (SortKind, disorder_fraction, random_order,
                                strided_keys, tiled_strided_keys)
from repro.observability.metrics import default_registry, detail_enabled
from repro.vpic.species import Species

__all__ = ["SortStep"]


@dataclass
class SortStep:
    """Sorting policy bound into the simulation loop.

    ``interval``: sort every N steps (VPIC decks typically use 10-25;
    0 disables sorting — the §5.5 cache-resident regime).
    """

    kind: SortKind = SortKind.STANDARD
    tile_size: int = 0
    interval: int = 20
    seed: int = 0
    sorts_performed: int = 0

    @classmethod
    def from_plan(cls, plan: SortPlan, interval: int = 20) -> "SortStep":
        """Build from a :func:`repro.core.tuning.select_sort` plan."""
        if plan.kind is SortKind.NONE:
            interval = 0
        return cls(kind=plan.kind, tile_size=plan.tile_size,
                   interval=interval)

    def due(self, step: int) -> bool:
        """Whether the loop should sort at *step*."""
        return (self.interval > 0 and step > 0
                and step % self.interval == 0
                and self.kind is not SortKind.NONE)

    def permutation_for(self, voxels: np.ndarray) -> np.ndarray:
        """The reorder permutation this policy produces for *voxels*."""
        if self.kind is SortKind.RANDOM:
            rng = np.random.default_rng(self.seed + self.sorts_performed)
            return rng.permutation(voxels.size)
        if self.kind is SortKind.STANDARD:
            return np.argsort(voxels, kind="stable")
        if self.kind is SortKind.STRIDED:
            return np.argsort(strided_keys(voxels), kind="stable")
        if self.kind is SortKind.TILED_STRIDED:
            if self.tile_size <= 0:
                raise ValueError("tiled-strided sort requires tile_size > 0")
            return np.argsort(tiled_strided_keys(voxels, self.tile_size),
                              kind="stable")
        raise ValueError(f"no permutation for sort kind {self.kind}")

    def apply(self, species: Species, scratch=None,
              kernels=None) -> np.ndarray | None:
        """Reorder a species in place; returns the permutation.

        Pass a :class:`~repro.vpic.scratch.ScratchArena` to stage the
        permuted arrays in reused buffers instead of fresh
        allocations (the fast step path does). With *kernels* (the
        compiled :mod:`repro.vpic.native` library) as well, a
        ``STANDARD`` sort runs as one native stable counting sort —
        the same permutation as the ``argsort`` below, applied to the
        same nine arrays — and the returned permutation is a view of
        arena scratch, valid until the next sort.
        """
        if self.kind is SortKind.NONE or species.n == 0:
            return None
        reg = default_registry()
        detail = detail_enabled()
        if detail:
            reg.gauge("sort/disorder_before").set(
                disorder_fraction(species.live("voxel")))
        if (kernels is not None and scratch is not None
                and self.kind is SortKind.STANDARD):
            perm = kernels.sort_species(species, scratch)
        else:
            perm = self.permutation_for(species.live("voxel"))
            for name in Species._ARRAYS:
                arr = species.live(name)
                if scratch is None:
                    arr[...] = arr[perm]
                else:
                    buf = scratch.buf(f"sort/{arr.dtype}", arr.shape,
                                      arr.dtype)
                    np.take(arr, perm, out=buf)
                    arr[...] = buf
        self.sorts_performed += 1
        reg.counter("sort/applied").inc()
        if detail:
            reg.gauge("sort/disorder_after").set(
                disorder_fraction(species.live("voxel")))
        return perm
