"""Platform registry reproducing Table 1 of the paper.

Each :class:`PlatformSpec` captures the architectural parameters the
paper's evaluation depends on: core count, main memory type and
capacity, last-level cache size, measured STREAM triad bandwidth, and
— beyond Table 1 — the parameters needed by the mechanistic
performance models (vector ISAs, warp size, clock, peak FP32 rate,
memory latency, atomic throughput).

Values in Table 1 are copied verbatim; the additional parameters are
public vendor specifications. Where the paper gives a platform both a
CPU and a GPU personality (the MI300A APU), two entries exist:
``"MI300A (CPU)"`` and ``"MI300A (GPU)"``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import GiB, MiB, check_positive

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
]


class PlatformKind(enum.Enum):
    """Whether a platform entry models a CPU socket pair or a GPU."""

    CPU = "cpu"
    GPU = "gpu"


class MemoryKind(enum.Enum):
    """Main-memory technology; drives latency defaults in the models."""

    DDR4 = "DDR4"
    DDR5 = "DDR5"
    LPDDR5X = "LPDDR5X"
    HBM2 = "HBM2"
    HBM2E = "HBM2e"
    HBM3 = "HBM3"


class ISA(enum.Enum):
    """Vector instruction sets relevant to the vectorization study.

    ``SCALAR`` is the 1-lane fallback used when a strategy has no
    supported vector ISA on a platform (e.g. Kokkos SIMD on SVE-only
    hardware, Section 5.3 of the paper).
    """

    SCALAR = "scalar"
    SSE = "SSE"
    AVX = "AVX"
    AVX2 = "AVX2"
    AVX512 = "AVX512"
    NEON = "NEON"
    SVE = "SVE"
    SVE2 = "SVE2"
    ALTIVEC = "Altivec"
    CUDA_SIMT = "CUDA"
    HIP_SIMT = "HIP"


#: Vector register width in bits for each ISA (per-unit width; some
#: chips have several units, captured by ``PlatformSpec.simd_units``).
ISA_WIDTH_BITS: dict[ISA, int] = {
    ISA.SCALAR: 64,
    ISA.SSE: 128,
    ISA.AVX: 256,
    ISA.AVX2: 256,
    ISA.AVX512: 512,
    ISA.NEON: 128,
    ISA.SVE: 512,
    ISA.SVE2: 128,
    ISA.ALTIVEC: 128,
    # SIMT "width" = warp/wavefront handled separately.
    ISA.CUDA_SIMT: 1024,
    ISA.HIP_SIMT: 2048,
}


def isa_lanes(isa: ISA, dtype_bytes: int = 4) -> int:
    """Number of lanes an ISA provides for elements of *dtype_bytes*."""
    if dtype_bytes <= 0:
        raise ValueError(f"dtype_bytes must be positive, got {dtype_bytes}")
    return max(1, ISA_WIDTH_BITS[isa] // (8 * dtype_bytes))


@dataclass(frozen=True)
class PlatformSpec:
    """Architectural description of one evaluation platform.

    Attributes mirror Table 1 plus model parameters:

    - ``core_count``: total hardware cores (CUDA/stream cores for GPUs),
      exactly as Table 1 reports them.
    - ``main_memory_bytes`` / ``memory_kind``: capacity and technology.
    - ``llc_bytes``: last-level cache capacity.
    - ``stream_bw_gbs``: measured STREAM triad bandwidth (GB/s decimal).
    - ``peak_fp32_gflops``: theoretical peak single-precision rate.
    - ``mem_latency_ns``: load-to-use latency of a main-memory miss.
    - ``cache_line_bytes``: line/sector granularity for the cache and
      coalescing models.
    - ``warp_size``: SIMT width (GPUs; 0 for CPUs).
    - ``compiler_isas``: ISAs the platform compiler can auto-vectorize
      for (drives the auto/guided strategies).
    - ``kokkos_simd_isas``: ISAs supported by the Kokkos SIMD library
      (drives the manual strategy; note SVE/SVE2 absent, §4.1).
    - ``adhoc_isas``: ISAs in VPIC 1.2's hand-written library
      (AVX, AVX2, AVX512-on-KNL-only, NEON, Altivec; §4.2).
    - ``simd_units``: number of vector pipes per core (Grace has 4×128b).
    - ``atomic_ns``: cost of one uncontended device-memory atomic RMW.
    - ``llc_bw_gbs``: last-level cache bandwidth (GB/s); bounds the
      benefit of cache-resident tiles.
    - ``scalar_ipc``: sustained scalar instructions/cycle per core —
      in-order cores (A64FX) are markedly weaker when a strategy
      falls back to scalar code.
    - ``llc_locality_fraction``: fraction of the LLC that behaves as a
      locality-capturing cache for kernel working sets. 1.0 for
      conventional L2/L3; lower for memory-side caches (MI300A's
      Infinity Cache), which the paper observes behave "distinctly
      different[ly]" (§5.5).
    - ``simt_efficiency``: residual whole-kernel SIMT efficiency
      factor for platforms the paper observes under-utilizing compute
      beyond what divergence/occupancy explain (MI300A, Fig. 8c).
    - ``atomics_cached``: whether floating-point atomics resolve in
      the LLC (NVIDIA) or bypass it as device-memory RMWs
      (CDNA1/CDNA2 — the vendor difference behind Figure 7's AMD
      results).
    """

    name: str
    kind: PlatformKind
    vendor: str
    core_count: int
    main_memory_bytes: int
    memory_kind: MemoryKind
    llc_bytes: int
    stream_bw_gbs: float
    peak_fp32_gflops: float
    clock_ghz: float
    mem_latency_ns: float
    cache_line_bytes: int = 64
    warp_size: int = 0
    compiler_isas: tuple[ISA, ...] = ()
    kokkos_simd_isas: tuple[ISA, ...] = ()
    adhoc_isas: tuple[ISA, ...] = ()
    simd_units: int = 2
    atomic_ns: float = 10.0
    llc_bw_gbs: float = 0.0
    scalar_ipc: float = 2.0
    llc_locality_fraction: float = 1.0
    simt_efficiency: float = 1.0
    atomics_cached: bool = True
    notes: str = ""

    def __post_init__(self) -> None:
        check_positive("core_count", self.core_count)
        check_positive("main_memory_bytes", self.main_memory_bytes)
        check_positive("llc_bytes", self.llc_bytes)
        check_positive("stream_bw_gbs", self.stream_bw_gbs)
        check_positive("peak_fp32_gflops", self.peak_fp32_gflops)
        check_positive("clock_ghz", self.clock_ghz)
        check_positive("mem_latency_ns", self.mem_latency_ns)
        if self.kind is PlatformKind.GPU and self.warp_size <= 0:
            raise ValueError(f"GPU platform {self.name} needs warp_size > 0")
        if self.llc_bw_gbs <= 0:
            # Default: LLC sustains ~5x main-memory bandwidth on CPUs,
            # ~3x on GPUs (L2 is closer to HBM speed there).
            factor = 5.0 if self.kind is PlatformKind.CPU else 3.0
            object.__setattr__(self, "llc_bw_gbs", factor * self.stream_bw_gbs)

    # -- derived quantities ------------------------------------------------

    @property
    def is_gpu(self) -> bool:
        return self.kind is PlatformKind.GPU

    @property
    def stream_bw_bytes(self) -> float:
        """STREAM triad bandwidth in bytes/s."""
        return self.stream_bw_gbs * 1e9

    @property
    def llc_bw_bytes(self) -> float:
        """Last-level-cache bandwidth in bytes/s."""
        return self.llc_bw_gbs * 1e9

    @property
    def machine_balance(self) -> float:
        """Roofline ridge point in FLOP/byte (peak FP32 / STREAM)."""
        return self.peak_fp32_gflops / self.stream_bw_gbs

    def best_isa(self, isas: tuple[ISA, ...]) -> ISA:
        """Widest supported ISA from *isas*, or ``ISA.SCALAR`` if none."""
        best = ISA.SCALAR
        for isa in isas:
            if ISA_WIDTH_BITS[isa] * 1 > ISA_WIDTH_BITS[best]:
                best = isa
        return best


def _cpu(**kw) -> PlatformSpec:
    kw.setdefault("kind", PlatformKind.CPU)
    return PlatformSpec(**kw)


def _gpu(**kw) -> PlatformSpec:
    kw.setdefault("kind", PlatformKind.GPU)
    return PlatformSpec(**kw)


_X86_COMPILER = (ISA.SSE, ISA.AVX, ISA.AVX2, ISA.AVX512)
_X86_KOKKOS = (ISA.AVX2, ISA.AVX512)
# VPIC 1.2's library: AVX512 exists but only tuned for Xeon Phi, so
# non-KNL x86 entries list AVX/AVX2 only (Figure 1 / §4.2).
_X86_ADHOC = (ISA.AVX, ISA.AVX2)

PLATFORMS: dict[str, PlatformSpec] = {}


def _register(spec: PlatformSpec) -> PlatformSpec:
    if spec.name in PLATFORMS:
        raise ValueError(f"duplicate platform {spec.name}")
    PLATFORMS[spec.name] = spec
    return spec


# --------------------------------------------------------------------------
# CPUs (Table 1, upper half)
# --------------------------------------------------------------------------

A64FX = _register(_cpu(
    name="A64FX",
    vendor="Fujitsu",
    core_count=48,
    main_memory_bytes=32 * GiB,
    memory_kind=MemoryKind.HBM2,
    llc_bytes=4 * 8 * MiB,
    stream_bw_gbs=424.0,
    peak_fp32_gflops=6_144.0,   # 48 cores * 2 * 512-bit FMA @ 2.0 GHz
    clock_ghz=2.0,
    mem_latency_ns=130.0,
    cache_line_bytes=256,
    compiler_isas=(ISA.NEON, ISA.SVE),
    # §4.1/§5.3: Kokkos 4.6 SIMD has no SVE support, and on A64FX its
    # fallback is effectively scalar — the "nearly twice as slow"
    # manual result in Figure 3.
    kokkos_simd_isas=(),
    adhoc_isas=(ISA.NEON,),
    simd_units=2,
    atomic_ns=30.0,
    scalar_ipc=0.7,     # narrow in-order issue: weak scalar fallback
    notes="HBM CPU; 512-bit SVE only reachable via compiler",
))

EPYC_7763 = _register(_cpu(
    name="EPYC 7763",
    vendor="AMD",
    core_count=2 * 64,
    main_memory_bytes=512 * GiB,
    memory_kind=MemoryKind.DDR4,
    llc_bytes=256 * MiB,
    stream_bw_gbs=165.0,
    peak_fp32_gflops=9_830.0,   # 128 cores * 2 * 256-bit FMA @ 2.4 GHz
    clock_ghz=2.45,
    mem_latency_ns=95.0,
    compiler_isas=(ISA.SSE, ISA.AVX, ISA.AVX2),
    kokkos_simd_isas=(ISA.AVX2,),
    adhoc_isas=_X86_ADHOC,
    atomic_ns=25.0,
    notes="Zen 3, dual socket",
))

SPR_DDR = _register(_cpu(
    name="Platinum 8480",
    vendor="Intel",
    core_count=2 * 56,
    main_memory_bytes=256 * GiB,
    memory_kind=MemoryKind.DDR5,
    llc_bytes=105 * MiB,
    stream_bw_gbs=96.77,
    peak_fp32_gflops=14_336.0,  # 112 cores * 2 * 512-bit FMA @ 2.0 GHz
    clock_ghz=2.0,
    mem_latency_ns=110.0,
    compiler_isas=_X86_COMPILER,
    kokkos_simd_isas=_X86_KOKKOS,
    adhoc_isas=_X86_ADHOC,
    atomic_ns=25.0,
    notes="Sapphire Rapids with DDR5 (SPR DDR)",
))

SPR_HBM = _register(_cpu(
    name="Xeon Max 9480",
    vendor="Intel",
    core_count=2 * 56,
    main_memory_bytes=128 * GiB,
    memory_kind=MemoryKind.DDR5,   # Table 1 lists the DDR tier capacity
    llc_bytes=105 * MiB,
    stream_bw_gbs=266.05,
    peak_fp32_gflops=12_544.0,
    clock_ghz=1.9,
    mem_latency_ns=125.0,
    compiler_isas=_X86_COMPILER,
    kokkos_simd_isas=_X86_KOKKOS,
    adhoc_isas=_X86_ADHOC,
    atomic_ns=25.0,
    notes="Sapphire Rapids with on-package HBM (SPR HBM)",
))

GRACE = _register(_cpu(
    name="Grace",
    vendor="NVIDIA",
    core_count=2 * 72,
    main_memory_bytes=480 * GiB,
    memory_kind=MemoryKind.LPDDR5X,
    llc_bytes=114 * MiB,
    stream_bw_gbs=390.0,
    peak_fp32_gflops=7_987.0,   # 144 cores * 4x128-bit FMA @ 3.4 GHz
    clock_ghz=3.4,
    mem_latency_ns=105.0,
    compiler_isas=(ISA.NEON, ISA.SVE2),
    kokkos_simd_isas=(ISA.NEON,),
    adhoc_isas=(ISA.NEON,),
    simd_units=4,               # 4x128-bit units align with NEON (§5.3)
    atomic_ns=25.0,
    notes="Grace superchip; SVE2 is 128-bit so NEON maps perfectly",
))

MI300A_CPU = _register(_cpu(
    name="MI300A (CPU)",
    vendor="AMD",
    core_count=24,
    main_memory_bytes=128 * GiB,
    memory_kind=MemoryKind.HBM3,
    llc_bytes=256 * MiB,
    stream_bw_gbs=202.18,
    peak_fp32_gflops=3_686.0,   # 24 Zen4 cores * 2 * 512-bit FMA @ 3.7 GHz
    clock_ghz=3.7,
    mem_latency_ns=140.0,
    compiler_isas=_X86_COMPILER,
    kokkos_simd_isas=_X86_KOKKOS,
    adhoc_isas=_X86_ADHOC,
    atomic_ns=28.0,
    notes="Zen 4 cores of the MI300A APU, sharing HBM3 + Infinity Cache",
))

# --------------------------------------------------------------------------
# GPUs (Table 1, lower half)
# --------------------------------------------------------------------------

V100 = _register(_gpu(
    name="V100S",
    vendor="NVIDIA",
    core_count=5120,
    main_memory_bytes=32 * GiB,
    memory_kind=MemoryKind.HBM2,
    llc_bytes=6 * MiB,
    stream_bw_gbs=886.4,
    peak_fp32_gflops=16_400.0,
    clock_ghz=1.597,
    mem_latency_ns=425.0,
    cache_line_bytes=32,        # sector granularity
    warp_size=32,
    compiler_isas=(ISA.CUDA_SIMT,),
    kokkos_simd_isas=(ISA.CUDA_SIMT,),
    adhoc_isas=(),
    atomic_ns=40.0,
    notes="Sierra-class Volta",
))

A100 = _register(_gpu(
    name="A100",
    vendor="NVIDIA",
    core_count=6912,
    main_memory_bytes=80 * GiB,
    memory_kind=MemoryKind.HBM2E,
    llc_bytes=40 * MiB,
    stream_bw_gbs=1_682.0,
    peak_fp32_gflops=19_500.0,
    clock_ghz=1.41,
    mem_latency_ns=400.0,
    cache_line_bytes=32,
    warp_size=32,
    compiler_isas=(ISA.CUDA_SIMT,),
    kokkos_simd_isas=(ISA.CUDA_SIMT,),
    adhoc_isas=(),
    atomic_ns=30.0,
    notes="Selene/DGX Ampere",
))

H100 = _register(_gpu(
    name="H100",
    vendor="NVIDIA",
    core_count=16896,
    main_memory_bytes=96 * GiB,
    memory_kind=MemoryKind.HBM3,
    llc_bytes=50 * MiB,
    stream_bw_gbs=3_713.0,
    peak_fp32_gflops=66_900.0,
    clock_ghz=1.98,
    mem_latency_ns=380.0,
    cache_line_bytes=32,
    warp_size=32,
    compiler_isas=(ISA.CUDA_SIMT,),
    kokkos_simd_isas=(ISA.CUDA_SIMT,),
    adhoc_isas=(),
    atomic_ns=30.0,
    notes="Hopper",
))

MI100 = _register(_gpu(
    name="MI100",
    vendor="AMD",
    core_count=7680,
    main_memory_bytes=32 * GiB,
    memory_kind=MemoryKind.HBM2,
    llc_bytes=8 * MiB,
    stream_bw_gbs=970.9,
    peak_fp32_gflops=23_100.0,
    clock_ghz=1.502,
    mem_latency_ns=470.0,
    cache_line_bytes=64,
    warp_size=64,
    compiler_isas=(ISA.HIP_SIMT,),
    kokkos_simd_isas=(ISA.HIP_SIMT,),
    adhoc_isas=(),
    atomic_ns=120.0,
    atomics_cached=False,
    notes="CDNA1; slow uncached atomics",
))

MI250 = _register(_gpu(
    name="MI250",
    vendor="AMD",
    core_count=13312,
    main_memory_bytes=128 * GiB,
    memory_kind=MemoryKind.HBM2E,
    llc_bytes=16 * MiB,
    stream_bw_gbs=2_498.0,
    peak_fp32_gflops=45_300.0,
    clock_ghz=1.7,
    mem_latency_ns=450.0,
    cache_line_bytes=64,
    warp_size=64,
    compiler_isas=(ISA.HIP_SIMT,),
    kokkos_simd_isas=(ISA.HIP_SIMT,),
    adhoc_isas=(),
    atomic_ns=100.0,
    atomics_cached=False,
    notes="CDNA2, dual-GCD package (figures use a single GCD)",
))

MI300A_GPU = _register(_gpu(
    name="MI300A (GPU)",
    vendor="AMD",
    core_count=14592,
    main_memory_bytes=128 * GiB,
    memory_kind=MemoryKind.HBM3,
    llc_bytes=256 * MiB,
    stream_bw_gbs=3_254.0,
    peak_fp32_gflops=61_300.0,
    clock_ghz=2.1,
    mem_latency_ns=420.0,
    cache_line_bytes=64,
    warp_size=64,
    compiler_isas=(ISA.HIP_SIMT,),
    kokkos_simd_isas=(ISA.HIP_SIMT,),
    adhoc_isas=(),
    atomic_ns=60.0,
    llc_locality_fraction=0.07,  # memory-side Infinity Cache captures
                                 # far less kernel locality than an L2
    simt_efficiency=0.4,         # the unexplained utilization gap the
                                 # paper reports for MI300A (Fig. 8c)
    notes="CDNA3 APU with 256 MB Infinity Cache (Tuolumne/El Capitan)",
))


# --------------------------------------------------------------------------
# Lookup helpers
# --------------------------------------------------------------------------

def get_platform(name: str) -> PlatformSpec:
    """Return the registered :class:`PlatformSpec` called *name*.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(f"unknown platform {name!r}; known: {known}") from None


def list_platforms(kind: PlatformKind | None = None) -> list[PlatformSpec]:
    """All platforms, optionally filtered to one :class:`PlatformKind`."""
    specs = list(PLATFORMS.values())
    if kind is not None:
        specs = [s for s in specs if s.kind is kind]
    return specs


def cpu_platforms() -> list[PlatformSpec]:
    """The six CPU rows of Table 1, in table order."""
    return list_platforms(PlatformKind.CPU)


def gpu_platforms() -> list[PlatformSpec]:
    """The six GPU rows of Table 1, in table order."""
    return list_platforms(PlatformKind.GPU)
