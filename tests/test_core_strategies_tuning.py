"""Tests for strategy dispatch and hardware-targeted tuning."""

import numpy as np
import pytest

from repro.bench.rajaperf import (axpy_kernel, pi_reduce_kernel,
                                  planckian_kernel)
from repro.bench.strategies import (Strategy, StrategyKernel,
                                    available_strategies, run_strategy)
from repro.core.sorting import SortKind
from repro.core.tuning import (grid_fits_in_cache, select_sort,
                               select_strategy, select_tile_size)
from repro.machine.specs import get_platform


class TestStrategyKernel:
    def test_guided_falls_back_to_auto(self):
        k = axpy_kernel()
        assert k.implementation(Strategy.GUIDED) is k.auto_impl

    def test_missing_manual_raises(self):
        k = StrategyKernel("k", axpy_kernel().traits, auto_impl=lambda: 1)
        with pytest.raises(LookupError, match="manual"):
            k.implementation(Strategy.MANUAL)

    def test_missing_adhoc_raises(self):
        k = planckian_kernel()   # no ad hoc variant
        with pytest.raises(LookupError, match="ad hoc"):
            k.implementation(Strategy.ADHOC)


class TestRunStrategy:
    def test_axpy_all_strategies_agree(self, spr, rng):
        k = axpy_kernel()
        x = rng.random(137).astype(np.float32)
        results = {}
        for s in (Strategy.AUTO, Strategy.GUIDED, Strategy.MANUAL,
                  Strategy.ADHOC):
            y = np.ones(137, dtype=np.float32)
            run_strategy(k, s, spr, 1.5, x, y)
            results[s] = y
        for s, y in results.items():
            np.testing.assert_allclose(y, results[Strategy.AUTO], rtol=1e-6)

    def test_planckian_strategies_agree(self, spr, rng):
        k = planckian_kernel()
        x = rng.random(65).astype(np.float32) + 0.1
        u = rng.random(65).astype(np.float32) + 0.5
        v = rng.random(65).astype(np.float32) + 0.5
        outs = {}
        for s in (Strategy.AUTO, Strategy.GUIDED, Strategy.MANUAL):
            out = np.zeros(65, dtype=np.float32)
            run_strategy(k, s, spr, x, u, v, out)
            outs[s] = out
        np.testing.assert_allclose(outs[Strategy.GUIDED],
                                   outs[Strategy.AUTO], rtol=1e-5)
        np.testing.assert_allclose(outs[Strategy.MANUAL],
                                   outs[Strategy.AUTO], rtol=1e-5)

    def test_pi_reduce_agrees_and_approximates_pi(self, spr):
        k = pi_reduce_kernel()
        a = run_strategy(k, Strategy.AUTO, spr, 50_000)
        m = run_strategy(k, Strategy.MANUAL, spr, 50_000)
        assert a == pytest.approx(np.pi, abs=1e-4)
        assert m == pytest.approx(a, abs=1e-9)

    def test_manual_on_a64fx_uses_scalar_width(self, rng):
        # Width-1 packs still compute correctly (just slowly, §5.3).
        a64 = get_platform("A64FX")
        k = axpy_kernel()
        x = rng.random(10).astype(np.float32)
        y = np.ones(10, dtype=np.float32)
        run_strategy(k, Strategy.MANUAL, a64, 2.0, x, y)
        np.testing.assert_allclose(y, 1 + 2 * x, rtol=1e-6)

    def test_adhoc_on_gpu_raises(self, a100):
        with pytest.raises(LookupError):
            run_strategy(axpy_kernel(), Strategy.ADHOC, a100,
                         1.0, np.zeros(4, np.float32),
                         np.zeros(4, np.float32))


class TestAvailableStrategies:
    def test_x86_has_all_four(self, spr):
        avail = available_strategies(axpy_kernel(), spr)
        assert avail == [Strategy.AUTO, Strategy.GUIDED, Strategy.MANUAL,
                         Strategy.ADHOC]

    def test_gpu_drops_adhoc(self, a100):
        avail = available_strategies(axpy_kernel(), a100)
        assert Strategy.ADHOC not in avail

    def test_kernel_without_adhoc(self, spr):
        avail = available_strategies(planckian_kernel(), spr)
        assert Strategy.ADHOC not in avail


class TestSelectSort:
    def test_cpu_gets_standard(self):
        plan = select_sort(get_platform("EPYC 7763"), 1_000_000)
        assert plan.kind is SortKind.STANDARD

    def test_gpu_large_grid_gets_tiled(self, a100):
        plan = select_sort(a100, 10_000_000)
        assert plan.kind is SortKind.TILED_STRIDED
        assert plan.tile_size == 3 * a100.core_count

    def test_gpu_cache_resident_skips_sort(self, a100):
        # Figure 9's A100 peak grid fits the LLC budget.
        plan = select_sort(a100, 85_184)
        assert plan.kind is SortKind.NONE
        assert "superlinear" in plan.reason

    def test_plan_str(self, a100):
        assert "tile" in str(select_sort(a100, 10_000_000))

    def test_grid_fits_in_cache_threshold(self, a100):
        limit = a100.llc_bytes // 72
        assert grid_fits_in_cache(a100, limit)
        assert not grid_fits_in_cache(a100, limit + 1)


class TestSelectTileSize:
    def test_cpu_tile_is_thread_count(self):
        assert select_tile_size(get_platform("Grace")) == 144

    def test_gpu_tile_is_three_x_cores(self):
        assert select_tile_size(get_platform("H100")) == 3 * 16896


class TestSelectStrategy:
    def test_gpus_use_simt(self):
        for name in ("V100S", "MI250"):
            assert select_strategy(get_platform(name)) is Strategy.AUTO

    def test_x86_uses_manual(self):
        for name in ("EPYC 7763", "Platinum 8480", "Xeon Max 9480"):
            assert select_strategy(get_platform(name)) is Strategy.MANUAL

    def test_a64fx_uses_guided(self):
        # §5.3: no SVE in Kokkos SIMD, compiler SVE is wider.
        assert select_strategy(get_platform("A64FX")) is Strategy.GUIDED

    def test_grace_uses_manual(self):
        # §5.3: 4x128-bit units align with NEON packs.
        assert select_strategy(get_platform("Grace")) is Strategy.MANUAL
