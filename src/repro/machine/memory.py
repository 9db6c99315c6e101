"""Main-memory stream and latency model.

The paper's bandwidth plots (Figures 5 and 6) report *effective*
bandwidth: total algorithmic bytes divided by runtime. The runtime is
governed by how the access pattern interacts with the memory system:

- fully-streamed access sustains the platform's STREAM triad rate;
- access at cache-line granularity but random order pays a latency
  cost amortised over the memory-level parallelism (MLP) the chip can
  sustain;
- sub-line (scattered) access wastes the unused fraction of every
  line it pulls.

:class:`MemoryModel` turns (bytes requested, lines touched, locality)
into seconds, using only :class:`~repro.machine.specs.PlatformSpec`
parameters so that every platform in Table 1 is covered by one model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_nonnegative, check_positive
from repro.machine.specs import PlatformKind, PlatformSpec

__all__ = ["MemoryModel", "stream_triad_time"]


#: Sustainable outstanding-miss count per platform kind. CPUs keep
#: roughly a dozen line fill buffers per core busy; GPUs hide latency
#: with thousands of resident warps.
_DEFAULT_MLP_CPU_PER_CORE = 10.0
_DEFAULT_MLP_GPU_PER_CORE = 3.0


@dataclass(frozen=True)
class MemoryModel:
    """Latency/bandwidth model for one platform's main memory."""

    platform: PlatformSpec

    # -- aggregate machine limits -------------------------------------------

    @property
    def peak_bytes_per_s(self) -> float:
        return self.platform.stream_bw_bytes

    @property
    def mlp(self) -> float:
        """Total outstanding cache-line misses the platform sustains."""
        p = self.platform
        if p.kind is PlatformKind.GPU:
            return p.core_count * _DEFAULT_MLP_GPU_PER_CORE
        return p.core_count * _DEFAULT_MLP_CPU_PER_CORE

    @property
    def random_access_bytes_per_s(self) -> float:
        """Line-granular random access rate from Little's law.

        throughput = (outstanding misses x line size) / latency,
        capped by the streaming rate.
        """
        p = self.platform
        rate = self.mlp * p.cache_line_bytes / (p.mem_latency_ns * 1e-9)
        return min(rate, self.peak_bytes_per_s)

    # -- timing --------------------------------------------------------------

    def stream_time(self, nbytes: float) -> float:
        """Seconds to move *nbytes* with perfectly streamed access."""
        check_nonnegative("nbytes", nbytes)
        return nbytes / self.peak_bytes_per_s

    def line_traffic_time(self, lines: float, locality: float = 0.0) -> float:
        """Seconds to fetch *lines* cache lines from main memory.

        *locality* in [0, 1] interpolates between fully random (0.0,
        latency-limited rate) and fully streamed (1.0, STREAM rate).
        The interpolation is harmonic in bandwidth — i.e. linear in
        time per line — matching how mixed traces behave.
        """
        check_nonnegative("lines", lines)
        if not 0.0 <= locality <= 1.0:
            raise ValueError(f"locality must be in [0,1], got {locality}")
        nbytes = lines * self.platform.cache_line_bytes
        t_stream = nbytes / self.peak_bytes_per_s
        t_random = nbytes / self.random_access_bytes_per_s
        return locality * t_stream + (1.0 - locality) * t_random


def stream_triad_time(platform: PlatformSpec, n_elements: int,
                      dtype_bytes: int = 8) -> float:
    """Runtime of STREAM triad (a = b + s*c) on *platform*.

    Triad moves three arrays (two reads + one write; write-allocate
    traffic is already folded into vendors' reported triad figures, so
    we count 3 N words exactly as STREAM does).
    """
    check_positive("n_elements", n_elements)
    check_positive("dtype_bytes", dtype_bytes)
    nbytes = 3.0 * n_elements * dtype_bytes
    return MemoryModel(platform).stream_time(nbytes)
