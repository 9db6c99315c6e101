"""Tests for the Table-1 platform registry."""

import pytest

from repro._util import GiB, MiB
from repro.machine.specs import (ISA, PLATFORMS, MemoryKind, PlatformKind,
                                 PlatformSpec, cpu_platforms, get_platform,
                                 gpu_platforms, isa_lanes, list_platforms)


class TestTable1Values:
    """Spot-check the registry against Table 1 verbatim."""

    @pytest.mark.parametrize("name,cores,bw", [
        ("A64FX", 48, 424.0),
        ("EPYC 7763", 128, 165.0),
        ("Platinum 8480", 112, 96.77),
        ("Xeon Max 9480", 112, 266.05),
        ("Grace", 144, 390.0),
        ("MI300A (CPU)", 24, 202.18),
        ("V100S", 5120, 886.4),
        ("A100", 6912, 1682.0),
        ("H100", 16896, 3713.0),
        ("MI100", 7680, 970.9),
        ("MI250", 13312, 2498.0),
        ("MI300A (GPU)", 14592, 3254.0),
    ])
    def test_core_count_and_stream(self, name, cores, bw):
        p = get_platform(name)
        assert p.core_count == cores
        assert p.stream_bw_gbs == bw

    @pytest.mark.parametrize("name,llc_mb", [
        ("EPYC 7763", 256), ("Platinum 8480", 105), ("Grace", 114),
        ("V100S", 6), ("A100", 40), ("H100", 50), ("MI100", 8),
        ("MI250", 16), ("MI300A (GPU)", 256),
    ])
    def test_llc_sizes(self, name, llc_mb):
        assert get_platform(name).llc_bytes == llc_mb * MiB

    @pytest.mark.parametrize("name,mem_gb", [
        ("A64FX", 32), ("EPYC 7763", 512), ("A100", 80), ("H100", 96),
    ])
    def test_memory_capacity(self, name, mem_gb):
        assert get_platform(name).main_memory_bytes == mem_gb * GiB

    def test_twelve_platforms(self):
        assert len(PLATFORMS) == 12
        assert len(cpu_platforms()) == 6
        assert len(gpu_platforms()) == 6


class TestDerived:
    def test_is_gpu(self):
        assert get_platform("A100").is_gpu
        assert not get_platform("Grace").is_gpu

    def test_machine_balance(self):
        p = get_platform("H100")
        assert p.machine_balance == pytest.approx(66900 / 3713, rel=1e-6)

    def test_llc_bw_default(self):
        cpu = get_platform("EPYC 7763")
        assert cpu.llc_bw_gbs == pytest.approx(5 * 165.0)
        gpu = get_platform("A100")
        assert gpu.llc_bw_gbs == pytest.approx(3 * 1682.0)

    def test_grid_points_in_llc_matches_paper(self):
        # §5.5: MI300A's 256 MB fits "more than 3.5 million" points.
        from repro.core.tuning import grid_fits_in_cache
        assert grid_fits_in_cache(get_platform("MI300A (GPU)"), 3_500_000)

    def test_best_isa(self):
        spr = get_platform("Platinum 8480")
        assert spr.best_isa(spr.compiler_isas) is ISA.AVX512
        assert spr.best_isa(()) is ISA.SCALAR

    def test_a64fx_kokkos_simd_gap(self):
        # §4.1: no SVE support in Kokkos SIMD.
        a64 = get_platform("A64FX")
        assert a64.best_isa(a64.kokkos_simd_isas) is ISA.SCALAR
        assert ISA.SVE in a64.compiler_isas

    def test_adhoc_never_on_gpus(self):
        for p in gpu_platforms():
            assert p.adhoc_isas == ()

    def test_cdna_atomics_uncached(self):
        assert not get_platform("MI100").atomics_cached
        assert not get_platform("MI250").atomics_cached
        assert get_platform("A100").atomics_cached


class TestIsaLanes:
    def test_f32_lanes(self):
        assert isa_lanes(ISA.AVX2) == 8
        assert isa_lanes(ISA.AVX512) == 16
        assert isa_lanes(ISA.NEON) == 4

    def test_f64_lanes(self):
        assert isa_lanes(ISA.AVX512, 8) == 8

    def test_scalar_is_one_lane(self):
        assert isa_lanes(ISA.SCALAR, 8) == 1

    def test_bad_dtype(self):
        with pytest.raises(ValueError):
            isa_lanes(ISA.AVX2, 0)


class TestLookup:
    def test_unknown_platform_lists_names(self):
        with pytest.raises(KeyError, match="A100"):
            get_platform("B200")

    def test_filter_by_kind(self):
        cpus = list_platforms(PlatformKind.CPU)
        assert all(not p.is_gpu for p in cpus)

    def test_validation_gpu_needs_warp(self):
        with pytest.raises(ValueError, match="warp"):
            PlatformSpec(
                name="bad", kind=PlatformKind.GPU, vendor="x",
                core_count=10, main_memory_bytes=GiB,
                memory_kind=MemoryKind.HBM2, llc_bytes=MiB,
                stream_bw_gbs=100.0, peak_fp32_gflops=1000.0,
                clock_ghz=1.0, mem_latency_ns=100.0)

    def test_validation_positive_fields(self):
        with pytest.raises(ValueError):
            PlatformSpec(
                name="bad", kind=PlatformKind.CPU, vendor="x",
                core_count=0, main_memory_bytes=GiB,
                memory_kind=MemoryKind.DDR4, llc_bytes=MiB,
                stream_bw_gbs=100.0, peak_fp32_gflops=1000.0,
                clock_ghz=1.0, mem_latency_ns=100.0)
