"""GPU warp-level memory coalescing model.

GPUs issue memory requests per warp (32 threads on NVIDIA, 64-wide
wavefronts on AMD). The hardware merges the lanes' addresses into the
minimal set of line/sector transactions; throughput is proportional to
the transaction count, not the lane count. This is the mechanism the
paper's strided sort targets (Section 3.2): after strided sorting,
consecutive threads touch consecutive cells, so each warp needs the
minimum number of transactions.

:func:`count_transactions` counts transactions exactly from real index
arrays, fully vectorised: lanes are grouped into warps, lane addresses
reduced to line IDs, and unique-per-row counts taken.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive

__all__ = ["count_transactions"]


def count_transactions(indices: np.ndarray, elem_bytes: int, warp_size: int,
                       line_bytes: int) -> int:
    """Number of memory transactions for a SIMT access of *indices*.

    ``indices[i]`` is the element index accessed by lane ``i``; lanes
    are grouped into warps of *warp_size* in order. Each warp performs
    one transaction per distinct *line_bytes*-sized line its lanes
    touch. The trailing partial warp (if any) is counted too.
    """
    check_positive("elem_bytes", elem_bytes)
    check_positive("warp_size", warp_size)
    check_positive("line_bytes", line_bytes)
    indices = np.asarray(indices, dtype=np.int64).ravel()
    n = indices.size
    if n == 0:
        return 0
    lines = (indices * elem_bytes) // line_bytes
    pad = (-n) % warp_size
    if pad:
        # Pad the final warp by repeating its last lane: repeated
        # addresses never add transactions.
        lines = np.concatenate([lines, np.full(pad, lines[-1])])
    per_warp = lines.reshape(-1, warp_size)
    per_warp = np.sort(per_warp, axis=1)
    new_line = np.ones(per_warp.shape, dtype=bool)
    new_line[:, 1:] = per_warp[:, 1:] != per_warp[:, :-1]
    return int(new_line.sum())
