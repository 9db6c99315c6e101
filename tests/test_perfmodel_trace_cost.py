"""Tests for access traces and kernel cost accounting."""

import numpy as np
import pytest

from repro.perfmodel.kernel_cost import (KernelCost, axpy_cost,
                                         gather_scatter_cost,
                                         pi_reduce_cost, planckian_cost,
                                         push_kernel_cost, stencil_cost)
from repro.perfmodel.trace import AccessTrace, gather_scatter_trace


class TestAccessTrace:
    def test_byte_accounting(self):
        keys = np.arange(100, dtype=np.int64)
        t = gather_scatter_trace(keys, 100, elem_bytes=8)
        assert t.streamed_bytes == 800
        assert t.gather_bytes == 800
        assert t.scatter_bytes == 1600       # RMW counts twice
        assert t.algorithmic_bytes == 3200

    def test_non_atomic_scatter_single_counted(self):
        keys = np.arange(10, dtype=np.int64)
        t = gather_scatter_trace(keys, 10, atomic=False)
        assert t.scatter_bytes == 80

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="range"):
            AccessTrace(n_ops=4, gather_indices=np.array([0, 5]),
                        gather_table_entries=5)

    def test_missing_table_entries_rejected(self):
        with pytest.raises(ValueError, match="table_entries"):
            AccessTrace(n_ops=4, gather_indices=np.array([0, 1]))

    def test_scaled_preserves_pattern(self):
        keys = np.arange(10, dtype=np.int64)
        t = gather_scatter_trace(keys, 10, cache_scale=0.5)
        s = t.scaled(100)
        assert s.n_ops == 100
        assert s.streamed_bytes == 10 * t.streamed_bytes
        assert s.cache_scale == 0.5
        assert s.gather_indices is t.gather_indices

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gather_scatter_trace(np.zeros(0, dtype=np.int64), 10)

    def test_indices_cast_to_int64(self):
        t = AccessTrace(n_ops=2, gather_indices=np.array([0, 1], np.int32),
                        gather_table_entries=2)
        assert t.gather_indices.dtype == np.int64


class TestKernelCosts:
    def test_all_costs_constructible(self):
        for factory in (axpy_cost, planckian_cost, pi_reduce_cost,
                        gather_scatter_cost, stencil_cost,
                        push_kernel_cost):
            c = factory()
            assert c.flops >= 0
            assert c.traits.name

    def test_push_kernel_magnitude(self):
        # VPIC's own accounting: ~200 flops/particle.
        c = push_kernel_cost()
        assert 150 <= c.flops <= 300
        assert c.traits.has_gather and c.traits.has_scatter

    def test_pi_reduce_has_no_memory(self):
        assert pi_reduce_cost().traits.bytes_total == 0

    def test_stencil_scales_with_points(self):
        assert stencil_cost(9).flops > stencil_cost(5).flops

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelCost("bad", simple_flops=-1, heavy_ops=0,
                       traits=axpy_cost().traits)
