"""Hardware platform models.

This subpackage provides parametric models of the twelve platforms in
Table 1 of the paper (six CPUs, six GPUs) plus the mechanisms the
paper's evaluation depends on:

- :mod:`repro.machine.specs` — the platform registry (core counts,
  memory type/capacity, last-level cache, STREAM triad bandwidth,
  vector ISAs, peak compute).
- :mod:`repro.machine.cache` — a set-associative LRU cache simulator
  used to turn real access traces into hit/miss counts.
- :mod:`repro.machine.memory` — DRAM/HBM stream and latency model.
- :mod:`repro.machine.coalescing` — GPU warp-level transaction model.
- :mod:`repro.machine.atomics_model` — atomic-contention serialization.
- :mod:`repro.machine.roofline` — roofline analysis (Figure 8).
"""

from repro.machine.specs import (
    ISA,
    MemoryKind,
    PlatformKind,
    PlatformSpec,
    PLATFORMS,
    get_platform,
    list_platforms,
    cpu_platforms,
    gpu_platforms,
)
from repro.machine.cache import CacheConfig, CacheSim, CacheStats
from repro.machine.memory import MemoryModel, stream_triad_time
from repro.machine.coalescing import count_transactions
from repro.machine.atomics_model import AtomicContentionModel
from repro.machine.roofline import RooflinePoint, RooflineModel

__all__ = [
    "ISA",
    "MemoryKind",
    "PlatformKind",
    "PlatformSpec",
    "PLATFORMS",
    "get_platform",
    "list_platforms",
    "cpu_platforms",
    "gpu_platforms",
    "CacheConfig",
    "CacheSim",
    "CacheStats",
    "MemoryModel",
    "stream_triad_time",
    "count_transactions",
    "AtomicContentionModel",
    "RooflinePoint",
    "RooflineModel",
]
