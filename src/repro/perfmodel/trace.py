"""Access traces: the memory behaviour of one kernel execution.

An :class:`AccessTrace` captures what a kernel *does* to memory,
separated into the three streams whose interplay the paper studies:

- **streamed** traffic — contiguous reads/writes (particle data,
  values arrays) that run at STREAM rate regardless of ordering;
- a **gather** stream — indexed loads from a table (field
  interpolation; the microbenchmark's ``in[key[i]]``);
- a **scatter** stream — indexed, usually atomic, stores to a table
  (current deposition; the microbenchmark's ``out[key[i]] +=``).

The index arrays are the *real* orderings produced by
:mod:`repro.core.sorting` — the models never see the sort's name, only
the pattern it produced, which is what makes the reproduction
mechanistic rather than a lookup table.

Traces are built at a representative scale (a few million elements)
and the models treat them as exact; the benchmark harness scales
workloads so that per-element behaviour (hit rates, transactions per
warp, conflicts per group) matches the paper's full-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_nonnegative, check_positive

__all__ = ["AccessTrace", "gather_scatter_trace"]


@dataclass
class AccessTrace:
    """Memory behaviour of one kernel launch.

    ``n_ops`` is the number of logical work items (particles /
    elements); all per-element costs in :class:`KernelCost` are
    multiplied by it. Index arrays may be shorter than ``n_ops`` when
    a kernel loops over a table multiple times — set ``trace_scale``
    to ``n_ops / len(indices)`` consistency checks use.
    """

    n_ops: int
    streamed_bytes: float = 0.0
    gather_indices: np.ndarray | None = None
    gather_elem_bytes: int = 8
    gather_table_entries: int = 0
    scatter_indices: np.ndarray | None = None
    scatter_elem_bytes: int = 8
    scatter_table_entries: int = 0
    scatter_is_atomic: bool = True
    #: Atomic RMW operations issued per scatter index (the VPIC
    #: deposit updates 12 accumulator components per particle); the
    #: traffic is covered by ``scatter_elem_bytes``, but contention
    #: scales with the op count.
    scatter_ops_per_element: int = 1
    #: Simulation-scaling factor: when this trace is a reduced-size
    #: stand-in for a larger run, set ``cache_scale = trace_table /
    #: full_table`` and the models shrink the effective cache by the
    #: same factor, preserving the working-set/cache ratio (standard
    #: scaled-simulation technique).
    cache_scale: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        check_positive("n_ops", self.n_ops)
        check_nonnegative("streamed_bytes", self.streamed_bytes)
        for name in ("gather", "scatter"):
            idx = getattr(self, f"{name}_indices")
            if idx is not None:
                idx = np.ascontiguousarray(idx, dtype=np.int64)
                setattr(self, f"{name}_indices", idx)
                entries = getattr(self, f"{name}_table_entries")
                if entries <= 0:
                    raise ValueError(
                        f"{name}_table_entries must be positive when "
                        f"{name}_indices is given"
                    )
                if idx.size and (idx.min() < 0 or idx.max() >= entries):
                    raise ValueError(
                        f"{name} indices out of range [0, {entries})"
                    )

    # -- derived -------------------------------------------------------------

    @property
    def gather_bytes(self) -> float:
        """Algorithmic gather traffic (useful bytes)."""
        if self.gather_indices is None:
            return 0.0
        return float(self.gather_indices.size) * self.gather_elem_bytes

    @property
    def scatter_bytes(self) -> float:
        """Algorithmic scatter traffic (useful bytes; RMW counts 2x)."""
        if self.scatter_indices is None:
            return 0.0
        factor = 2.0 if self.scatter_is_atomic else 1.0
        return float(self.scatter_indices.size) * self.scatter_elem_bytes * factor

    @property
    def algorithmic_bytes(self) -> float:
        """Total useful traffic — the numerator of the paper's
        effective-bandwidth metric (§5.4)."""
        return self.streamed_bytes + self.gather_bytes + self.scatter_bytes

    @property
    def gather_table_bytes(self) -> int:
        return self.gather_table_entries * self.gather_elem_bytes

    def scaled(self, n_ops: int) -> "AccessTrace":
        """Same pattern, different logical op count (workload scaling)."""
        check_positive("n_ops", n_ops)
        return AccessTrace(
            n_ops=n_ops,
            streamed_bytes=self.streamed_bytes * n_ops / self.n_ops,
            gather_indices=self.gather_indices,
            gather_elem_bytes=self.gather_elem_bytes,
            gather_table_entries=self.gather_table_entries,
            scatter_indices=self.scatter_indices,
            scatter_elem_bytes=self.scatter_elem_bytes,
            scatter_table_entries=self.scatter_table_entries,
            scatter_is_atomic=self.scatter_is_atomic,
            scatter_ops_per_element=self.scatter_ops_per_element,
            cache_scale=self.cache_scale,
            label=self.label,
        )


def gather_scatter_trace(keys: np.ndarray, table_entries: int,
                         elem_bytes: int = 8,
                         atomic: bool = True,
                         cache_scale: float = 1.0,
                         label: str = "") -> AccessTrace:
    """Trace of the paper's gather-scatter microbenchmark (§5.4).

    Per element i: read ``val[i]`` (streamed), gather ``table[key[i]]``,
    atomically accumulate into ``out[key[i]]``. *keys* must already be
    in the ordering under study (apply a sort first).
    """
    keys = np.asarray(keys, dtype=np.int64)
    check_positive("table_entries", table_entries)
    n = keys.size
    if n == 0:
        raise ValueError("empty key array")
    return AccessTrace(
        n_ops=n,
        streamed_bytes=float(n) * elem_bytes,   # the streamed values read
        gather_indices=keys,
        gather_elem_bytes=elem_bytes,
        gather_table_entries=table_entries,
        scatter_indices=keys,
        scatter_elem_bytes=elem_bytes,
        scatter_table_entries=table_entries,
        scatter_is_atomic=atomic,
        cache_scale=cache_scale,
        label=label,
    )
