"""3-D Cartesian domain decomposition with 6-neighbor topology.

VPIC decomposes its global grid into per-rank bricks; most
communication is non-blocking point-to-point with up to six face
neighbors (§2.1). :func:`balanced_dims` reproduces
``MPI_Dims_create``'s near-cubic factorization;
:class:`CartDecomposition` maps ranks to brick coordinates, computes
local extents, and enumerates periodic neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive

__all__ = ["balanced_dims", "CartDecomposition"]


def balanced_dims(n_ranks: int) -> tuple[int, int, int]:
    """Near-cubic factorization of *n_ranks* into 3 dims (descending).

    Greedy: repeatedly assign the largest prime factor to the
    currently smallest dimension — the same heuristic shape
    ``MPI_Dims_create`` produces for the counts used here.
    """
    check_positive("n_ranks", n_ranks)
    dims = [1, 1, 1]
    n = n_ranks
    factors = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


#: Face neighbors in VPIC order: -x, +x, -y, +y, -z, +z.
_FACES = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


@dataclass(frozen=True)
class CartDecomposition:
    """Periodic Cartesian decomposition of a global cell box."""

    global_nx: int
    global_ny: int
    global_nz: int
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        dx, dy, dz = self.dims
        check_positive("dims[0]", dx)
        check_positive("dims[1]", dy)
        check_positive("dims[2]", dz)
        for name, g, d in (("x", self.global_nx, dx),
                           ("y", self.global_ny, dy),
                           ("z", self.global_nz, dz)):
            if g % d:
                raise ValueError(
                    f"global_n{name}={g} not divisible by dims {d}")

    @classmethod
    def create(cls, global_nx: int, global_ny: int, global_nz: int,
               n_ranks: int) -> "CartDecomposition":
        """Balanced decomposition for *n_ranks* (dims aligned to the
        axis sizes: largest dim count on the largest axis)."""
        dims = balanced_dims(n_ranks)
        order = np.argsort([-global_nx, -global_ny, -global_nz])
        assigned = [0, 0, 0]
        for axis, d in zip(order, dims):
            assigned[axis] = d
        return cls(global_nx, global_ny, global_nz, tuple(assigned))

    @property
    def n_ranks(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.global_nx // self.dims[0],
                self.global_ny // self.dims[1],
                self.global_nz // self.dims[2])

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        dx, dy, dz = self.dims
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return (rank // (dy * dz), (rank // dz) % dy, rank % dz)

    def rank_of(self, cx: int, cy: int, cz: int) -> int:
        dx, dy, dz = self.dims
        return ((cx % dx) * dy + (cy % dy)) * dz + (cz % dz)

    def neighbors(self, rank: int) -> tuple[int, ...]:
        """The six periodic face-neighbor ranks, VPIC face order."""
        cx, cy, cz = self.coords_of(rank)
        return tuple(self.rank_of(cx + fx, cy + fy, cz + fz)
                     for fx, fy, fz in _FACES)

    def local_origin(self, rank: int,
                     dx: float = 1.0, dy: float = 1.0,
                     dz: float = 1.0) -> tuple[float, float, float]:
        """Physical corner of a rank's brick for unit cell sizes
        scaled by (dx, dy, dz)."""
        cx, cy, cz = self.coords_of(rank)
        lx, ly, lz = self.local_shape
        return (cx * lx * dx, cy * ly * dy, cz * lz * dz)
