"""Tests for cache, memory, coalescing, atomics, and roofline models."""

import numpy as np
import pytest

from repro.machine.atomics_model import AtomicContentionModel, conflict_slots
from repro.machine.cache import (CacheConfig, CacheSim,
                                 reuse_previous_positions,
                                 stack_distance_hit_rate)
from repro.machine.coalescing import count_transactions
from repro.machine.memory import MemoryModel, stream_triad_time
from repro.machine.roofline import RooflineModel, RooflinePoint
from repro.machine.specs import get_platform


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64,
                        associativity=8)
        assert c.n_sets == 128

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=1000, line_bytes=64, associativity=8)


class TestCacheSim:
    def test_repeated_line_hits(self):
        sim = CacheSim(CacheConfig(4096, 64, 4), sample_sets=16)
        trace = np.zeros(1000, dtype=np.int64)
        stats = sim.run_addresses(trace)
        assert stats.hit_rate > 0.9

    def test_streaming_huge_footprint_misses(self):
        sim = CacheSim(CacheConfig(4096, 64, 4), sample_sets=16)
        trace = np.arange(100_000, dtype=np.int64) * 64
        stats = sim.run_addresses(trace)
        assert stats.hit_rate < 0.05

    def test_working_set_in_cache_hits_after_warmup(self):
        cfg = CacheConfig(64 * 1024, 64, 8)
        sim = CacheSim(cfg, sample_sets=cfg.n_sets)   # exact
        lines = np.tile(np.arange(100, dtype=np.int64), 50)
        stats = sim.run_lines(lines)
        # 100 cold misses out of 5000 accesses.
        assert stats.misses == 100
        assert stats.hits == 4900

    def test_empty_trace(self):
        sim = CacheSim(CacheConfig(4096, 64, 4))
        assert sim.run_lines(np.zeros(0, dtype=np.int64)).accesses == 0

    def test_rejects_2d(self):
        sim = CacheSim(CacheConfig(4096, 64, 4))
        with pytest.raises(ValueError):
            sim.run_addresses(np.zeros((2, 2), dtype=np.int64))


class TestReusePrev:
    def test_first_touch_minus_one(self):
        prev = reuse_previous_positions(np.array([5, 7, 5, 5]))
        assert np.array_equal(prev, [-1, -1, 0, 2])

    def test_empty(self):
        assert reuse_previous_positions(np.zeros(0)).size == 0


class TestStackDistance:
    def test_small_working_set_hits(self):
        trace = np.tile(np.arange(50), 40)
        assert stack_distance_hit_rate(trace, 1000) > 0.95

    def test_looping_larger_than_cache_misses(self):
        trace = np.tile(np.arange(5000), 4)
        assert stack_distance_hit_rate(trace, 100) < 0.02

    def test_all_unique_is_zero(self):
        assert stack_distance_hit_rate(np.arange(1000), 100) == 0.0

    def test_random_intermediate(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 10_000, 50_000)
        rate = stack_distance_hit_rate(trace, 2_000)
        assert 0.05 < rate < 0.5

    def test_rejects_bad_cache(self):
        with pytest.raises(ValueError):
            stack_distance_hit_rate(np.arange(10), 0)


class TestMemoryModel:
    def test_stream_time(self):
        m = MemoryModel(get_platform("EPYC 7763"))
        assert m.stream_time(165e9) == pytest.approx(1.0)

    def test_random_slower_than_stream(self):
        for name in ("EPYC 7763", "A100"):
            m = MemoryModel(get_platform(name))
            assert m.random_access_bytes_per_s <= m.peak_bytes_per_s

    def test_line_traffic_locality_interpolates(self):
        m = MemoryModel(get_platform("Platinum 8480"))
        t_rand = m.line_traffic_time(1e6, locality=0.0)
        t_seq = m.line_traffic_time(1e6, locality=1.0)
        t_mid = m.line_traffic_time(1e6, locality=0.5)
        assert t_seq <= t_mid <= t_rand

    def test_locality_bounds_checked(self):
        m = MemoryModel(get_platform("A100"))
        with pytest.raises(ValueError):
            m.line_traffic_time(10, locality=1.5)

    def test_triad_time_matches_table(self):
        # 1e9 doubles, 24 GB at the platform's STREAM rate.
        p = get_platform("A64FX")
        t = stream_triad_time(p, 1_000_000_000)
        assert t == pytest.approx(24e9 / 424e9, rel=1e-6)


class TestCoalescing:
    def test_fully_coalesced(self):
        # 32 consecutive 4-byte elements in one 128-byte span: 4 lines
        # of 32 B.
        tx = count_transactions(np.arange(32), 4, 32, 32)
        assert tx == 4

    def test_same_address_broadcast(self):
        tx = count_transactions(np.zeros(32, dtype=np.int64), 4, 32, 32)
        assert tx == 1

    def test_fully_scattered(self):
        idx = np.arange(32) * 1000
        tx = count_transactions(idx, 4, 32, 32)
        assert tx == 32

    def test_partial_warp(self):
        tx = count_transactions(np.arange(40), 4, 32, 32)
        assert tx == 4 + 1

    def test_empty(self):
        assert count_transactions(np.zeros(0, dtype=np.int64), 4, 32, 32) == 0


class TestConflictSlots:
    def test_all_distinct_one_slot_per_group(self):
        assert conflict_slots(np.arange(64), 32) == 2

    def test_all_same_serializes(self):
        assert conflict_slots(np.zeros(32, dtype=np.int64), 32) == 32

    def test_mixed(self):
        keys = np.array([0, 0, 1, 2])
        assert conflict_slots(keys, 4) == 2

    def test_padding_does_not_inflate(self):
        keys = np.zeros(33, dtype=np.int64)
        # Group 1 has one real key + sentinels: max multiplicity 1.
        assert conflict_slots(keys, 32) == 33

    def test_model_group_size(self):
        gpu = AtomicContentionModel(get_platform("MI250"))
        assert gpu.group_size == 64
        cpu = AtomicContentionModel(get_platform("Platinum 8480"))
        assert cpu.group_size == 16


class TestRoofline:
    def test_ridge_point(self):
        m = RooflineModel(get_platform("H100"))
        assert m.ridge_point == pytest.approx(66900 / 3713)

    def test_attainable_below_ridge_is_bw_bound(self):
        m = RooflineModel(get_platform("A100"))
        assert m.attainable_gflops(1.0) == pytest.approx(1682.0)

    def test_attainable_above_ridge_is_peak(self):
        m = RooflineModel(get_platform("A100"))
        assert m.attainable_gflops(1000.0) == 19_500.0

    def test_memory_bound_classification(self):
        m = RooflineModel(get_platform("MI250"))
        low = RooflinePoint("l", 1.0, 100.0)
        high = RooflinePoint("h", 100.0, 100.0)
        assert m.is_memory_bound(low)
        assert not m.is_memory_bound(high)

    def test_utilization(self):
        m = RooflineModel(get_platform("H100"))
        p = RooflinePoint("x", 3.58, 669.0)
        assert m.utilization(p) == pytest.approx(0.01)

    def test_ceiling_fraction(self):
        m = RooflineModel(get_platform("A100"))
        p = RooflinePoint("x", 1.0, 841.0)
        assert m.ceiling_fraction(p) == pytest.approx(0.5)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            RooflinePoint("bad", -1.0, 10.0)
