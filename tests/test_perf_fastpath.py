"""Property tests for the measurement-stack fast path.

Every optimisation in the fast path claims *exact* equivalence with
the implementation it replaced — the report tables must stay
byte-identical. These tests check each claim against a reference:

- counting-sort permutations vs numpy's stable argsort;
- the vectorised LRU simulation vs the per-access loop oracle;
- the restructured coalescing model vs the per-pass-sorted original;
- the vectorised order inspectors vs the loop originals;
- prediction memoization vs fresh model evaluation;
- a reduced-scale figure table computed with every fast-path feature
  on vs all of them off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.gather_scatter import (KeyPattern, bandwidth_table,
                                        shared_ordering)
from repro.bench.parallel import parallel_map
from repro.bench.reporting import format_table
from repro.core.sorting import (SortKind, is_strided_order,
                                is_tiled_strided_order,
                                monotone_run_lengths, strided_sort,
                                tiled_strided_sort)
from repro.kokkos.parallel import parallel_scan
from repro.kokkos.sort import (argsort_stable, counting_sort_permutation,
                               sort_by_key)
from repro.machine.cache import (CacheConfig, CacheSim, profile_hit_rate,
                                 stack_distance_hit_rate,
                                 stack_distance_profile)
from repro.machine.specs import get_platform, gpu_platforms
from repro.perfmodel.gpu_model import warp_transaction_lines
from repro.perfmodel.kernel_cost import gather_scatter_cost
from repro.perfmodel.memo import (PredictionMemo, default_memo,
                                  set_memo_enabled, trace_fingerprint)
from repro.perfmodel.predict import predict_time
from repro.perfmodel.trace import gather_scatter_trace


# ---------------------------------------------------------------------------
# Counting-sort permutation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32,
                                   np.uint64])
def test_counting_sort_matches_stable_argsort(dtype):
    rng = np.random.default_rng(7)
    info = np.iinfo(dtype)
    lo = max(info.min, -500)
    hi = min(info.max, 10_000)
    keys = rng.integers(lo, hi, size=5000).astype(dtype)
    perm = counting_sort_permutation(keys)
    assert perm is not None
    np.testing.assert_array_equal(perm, np.argsort(keys, kind="stable"))


def test_counting_sort_wide_range_keys():
    rng = np.random.default_rng(3)
    # Spans several 16-bit digits, so the radix loop runs >1 pass.
    keys = rng.integers(-2**40, 2**40, size=4096)
    perm = counting_sort_permutation(keys)
    assert perm is not None
    np.testing.assert_array_equal(perm, np.argsort(keys, kind="stable"))


def test_counting_sort_constant_keys():
    keys = np.full(2048, 42, dtype=np.int64)
    np.testing.assert_array_equal(counting_sort_permutation(keys),
                                  np.arange(2048))


def test_counting_sort_declines_unsuitable_inputs():
    # Too small, non-integer, non-1-D, astronomically wide span.
    assert counting_sort_permutation(np.arange(10)) is None
    assert counting_sort_permutation(np.linspace(0, 1, 5000)) is None
    assert counting_sort_permutation(
        np.zeros((64, 64), dtype=np.int64)) is None
    wide = np.zeros(2048, dtype=np.uint64)
    wide[0] = np.iinfo(np.uint64).max
    assert counting_sort_permutation(wide) is None


def test_argsort_stable_fallback_equivalence():
    rng = np.random.default_rng(11)
    for keys in (rng.integers(0, 50, size=4096),          # counting path
                 rng.integers(0, 50, size=100),           # fallback: small
                 rng.random(4096)):                       # fallback: float
        np.testing.assert_array_equal(argsort_stable(keys),
                                      np.argsort(keys, kind="stable"))


def test_sort_by_key_stable_with_duplicates():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 64, size=4096)
    tag = np.arange(keys.size)  # distinguishes equal-key elements
    expected = np.argsort(keys, kind="stable")
    k = keys.copy()
    v = tag.copy()
    sort_by_key(k, v)
    np.testing.assert_array_equal(k, keys[expected])
    np.testing.assert_array_equal(v, tag[expected])


# ---------------------------------------------------------------------------
# Vectorised LRU simulation
# ---------------------------------------------------------------------------

_CACHE_CONFIGS = [
    CacheConfig(capacity_bytes=4 * 64 * 2, line_bytes=64, associativity=2),
    CacheConfig(capacity_bytes=8 * 64 * 4, line_bytes=64, associativity=4),
    CacheConfig(capacity_bytes=16 * 64 * 8, line_bytes=64, associativity=8),
]


@pytest.mark.parametrize("config", _CACHE_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_matches_reference_on_random_traces(config, seed):
    rng = np.random.default_rng(seed)
    sim = CacheSim(config, sample_sets=config.n_sets)
    lines = rng.integers(0, 6 * (config.capacity_bytes // config.line_bytes),
                         size=4000)
    sets = lines % config.n_sets
    assert sim._simulate(lines, sets) == sim._simulate_reference(lines, sets)


@pytest.mark.parametrize("config", _CACHE_CONFIGS)
def test_simulate_matches_reference_on_structured_traces(config):
    sim = CacheSim(config, sample_sets=config.n_sets)
    n_lines = config.capacity_bytes // config.line_bytes
    traces = [
        np.sort(np.random.default_rng(0).integers(0, n_lines, 3000)),
        np.tile(np.arange(2 * n_lines), 3),        # capacity-thrashing scan
        np.repeat(np.arange(n_lines // 2), 7),      # fast-path: short gaps
        np.zeros(100, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    ]
    for lines in traces:
        lines = np.asarray(lines, dtype=np.int64)
        sets = lines % config.n_sets
        assert sim._simulate(lines, sets) == \
            sim._simulate_reference(lines, sets)


def test_stack_distance_profile_matches_hit_rate():
    rng = np.random.default_rng(9)
    lines = rng.integers(0, 3000, size=20_000)
    profile = stack_distance_profile(lines)
    for capacity in (64, 512, 4096):
        assert profile_hit_rate(profile, capacity) == \
            stack_distance_hit_rate(lines, capacity)


# ---------------------------------------------------------------------------
# Coalescing model
# ---------------------------------------------------------------------------

def _reference_warp_lines(indices, elem_bytes, warp_size, line_bytes,
                          passes=0, pass_stride=0):
    """The original per-(warp, pass) row sort (seed implementation)."""
    indices = np.asarray(indices, dtype=np.int64).ravel()
    n = indices.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if passes <= 0:
        passes = max(1, -(-elem_bytes // line_bytes))
        pass_stride = line_bytes
    base = indices * elem_bytes
    pad = (-n) % warp_size
    if pad:
        base = np.concatenate([base, np.full(pad, base[-1])])
    n_warps = base.size // warp_size
    addr = (base.reshape(n_warps, 1, warp_size)
            + (np.arange(passes, dtype=np.int64)
               * pass_stride)[None, :, None])
    lines = addr // line_bytes
    rows = np.sort(lines.reshape(n_warps * passes, warp_size), axis=1)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return rows[keep]


@pytest.mark.parametrize("elem_bytes,warp,line,passes,stride", [
    (8, 32, 32, 0, 0),      # one line per element
    (72, 32, 128, 0, 0),    # interpolator multi-load
    (48, 64, 64, 12, 4),    # 12-component deposit scatter
    (4, 64, 128, 3, 512),   # strided multi-pass
])
@pytest.mark.parametrize("pattern", ["random", "sorted", "repeated"])
def test_warp_transaction_lines_matches_reference(elem_bytes, warp, line,
                                                  passes, stride, pattern):
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 500, size=warp * 40 + 7)  # padding exercised
    if pattern == "sorted":
        idx = np.sort(idx)
    elif pattern == "repeated":
        idx = np.repeat(idx[:idx.size // 4], 4)
    got = warp_transaction_lines(idx, elem_bytes, warp, line,
                                 passes=passes, pass_stride=stride)
    want = _reference_warp_lines(idx, elem_bytes, warp, line,
                                 passes=passes, pass_stride=stride)
    np.testing.assert_array_equal(got, want)


def test_warp_transaction_lines_empty():
    out = warp_transaction_lines(np.zeros(0, dtype=np.int64), 8, 32, 64)
    assert out.size == 0


# ---------------------------------------------------------------------------
# Order inspectors
# ---------------------------------------------------------------------------

def _reference_is_strided(keys):
    """Seed implementation: run lengths + explicit subset chain."""
    keys = np.asarray(keys)
    if keys.size <= 1:
        return True
    runs = monotone_run_lengths(keys)
    if np.any(np.diff(runs) > 0):
        return False
    start = 0
    rounds = []
    for length in runs:
        rounds.append(keys[start:start + length])
        start += length
    for earlier, later in zip(rounds, rounds[1:]):
        if not np.isin(later, earlier).all():
            return False
    return True


def _reference_is_tiled(keys, tile_size):
    keys = np.asarray(keys)
    if keys.size == 0:
        return True
    chunks = (keys - keys.min()) // tile_size
    if np.any(np.diff(chunks) < 0):
        return False
    boundaries = np.nonzero(np.diff(chunks))[0] + 1
    return all(_reference_is_strided(seg)
               for seg in np.split(keys, boundaries))


def test_inspectors_accept_real_sort_output():
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 200, size=5000)
    s = keys.copy()
    strided_sort(s)
    assert is_strided_order(s)
    t = keys.copy()
    tiled_strided_sort(t, tile_size=16)
    assert is_tiled_strided_order(t, 16)


@pytest.mark.parametrize("seed", range(8))
def test_inspectors_match_reference_on_random_keys(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(0, 30))
        keys = rng.integers(0, 6, size=n)
        assert is_strided_order(keys) == _reference_is_strided(keys)
        for tile in (1, 2, 3):
            assert is_tiled_strided_order(keys, tile) == \
                _reference_is_tiled(keys, tile)


def test_inspectors_match_reference_on_structured_keys():
    rng = np.random.default_rng(23)
    keys = rng.integers(0, 64, size=2000)
    candidates = [
        np.sort(keys),
        keys,
        np.concatenate([np.arange(64), np.arange(64), np.arange(32)]),
        np.concatenate([np.arange(32), np.arange(64)]),  # growing round
        np.array([1, 2, 3, 1, 3, 2]),                    # non-monotone round
    ]
    s = keys.copy()
    strided_sort(s)
    candidates.append(s)
    t = keys.copy()
    tiled_strided_sort(t, tile_size=8)
    candidates.append(t)
    for cand in candidates:
        assert is_strided_order(cand) == _reference_is_strided(cand)
        assert is_tiled_strided_order(cand, 8) == \
            _reference_is_tiled(cand, 8)


# ---------------------------------------------------------------------------
# parallel_scan empty input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32,
                                   np.float64])
def test_parallel_scan_empty_total_dtype(dtype):
    result, total = parallel_scan(0, np.zeros(0, dtype=dtype))
    assert result.size == 0
    assert isinstance(total, np.generic)
    assert total.dtype == np.dtype(dtype)
    assert total == 0
    # Consistent with the non-empty branch's return type.
    _, nonempty_total = parallel_scan(4, np.ones(4, dtype=dtype))
    assert type(total) is type(nonempty_total)


# ---------------------------------------------------------------------------
# Prediction memoization
# ---------------------------------------------------------------------------

def _small_trace(seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=4096)
    return gather_scatter_trace(keys, 256, cache_scale=0.01, label="t")


def test_memo_hit_returns_identical_components():
    platform = gpu_platforms()[0]
    cost = gather_scatter_cost()
    trace_a = _small_trace()
    trace_b = _small_trace()  # same content, different arrays
    memo = default_memo()
    memo.clear()
    before = memo.stats()
    cold = predict_time(platform, trace_a, cost)
    warm = predict_time(platform, trace_b, cost)
    after = memo.stats()
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 1
    assert warm.components == cold.components
    assert warm.seconds == cold.seconds
    fresh = predict_time(platform, trace_b, cost, memoize=False)
    assert fresh.components == cold.components


def test_memo_distinguishes_platform_and_content():
    cost = gather_scatter_cost()
    memo = default_memo()
    memo.clear()
    p1, p2 = gpu_platforms()[:2]
    a = predict_time(p1, _small_trace(0), cost)
    b = predict_time(p2, _small_trace(0), cost)
    c = predict_time(p1, _small_trace(1), cost)
    assert a.seconds != b.seconds or a.components != b.components
    assert a.seconds != c.seconds or a.components != c.components


def test_memo_disable_forces_model_run():
    platform = gpu_platforms()[0]
    cost = gather_scatter_cost()
    memo = default_memo()
    memo.clear()
    previous = set_memo_enabled(False)
    try:
        stats0 = memo.stats()
        predict_time(platform, _small_trace(), cost)
        predict_time(platform, _small_trace(), cost)
        stats1 = memo.stats()
        assert stats1["hits"] == stats0["hits"]
        assert stats1["misses"] == stats0["misses"]
        assert len(memo) == 0
    finally:
        set_memo_enabled(previous)


def test_memo_eviction_keeps_capacity_bound():
    memo = PredictionMemo(capacity=4)
    for i in range(10):
        memo.put(("p", None, "c", str(i)), {"total": float(i)})
    assert len(memo) == 4
    assert memo.get(("p", None, "c", "9")) == {"total": 9.0}


def test_trace_fingerprint_content_addressed():
    assert trace_fingerprint(_small_trace(0)) == \
        trace_fingerprint(_small_trace(0))
    assert trace_fingerprint(_small_trace(0)) != \
        trace_fingerprint(_small_trace(1))


# ---------------------------------------------------------------------------
# Shared orderings + parallel fan-out
# ---------------------------------------------------------------------------

def test_shared_ordering_matches_apply_ordering():
    from repro.bench.gather_scatter import apply_ordering
    rng = np.random.default_rng(29)
    keys = np.repeat(np.arange(500, dtype=np.int64), 4)
    rng.shuffle(keys)
    platform = get_platform("A100")
    for kind in (SortKind.STANDARD, SortKind.STRIDED,
                 SortKind.TILED_STRIDED):
        direct = apply_ordering(kind, keys, platform, 500)
        shared = shared_ordering(kind, keys, platform, 500)
        np.testing.assert_array_equal(shared, direct)
        assert not shared.flags.writeable
        # Cached: second call returns the same array object.
        assert shared_ordering(kind, keys, platform, 500) is shared


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(lambda x: x * x, items, max_workers=4) == \
        [x * x for x in items]
    assert parallel_map(lambda x: x + 1, [], max_workers=4) == []


def test_bandwidth_table_fast_path_matches_slow_path(monkeypatch):
    """The acceptance check at reduced scale: every fast-path feature
    on vs off must format to the same table text."""
    platforms = [get_platform("A100"), get_platform("MI250")]

    def table_text():
        table = bandwidth_table(platforms, KeyPattern.REPEATED,
                                unique=1000)
        rows = {p: {s: pred.effective_bandwidth_gbs
                    for s, pred in preds.items()}
                for p, preds in table.items()}
        return format_table(rows, fmt="{:.6f}")

    monkeypatch.setenv("REPRO_PARALLEL", "0")
    previous = set_memo_enabled(False)
    try:
        slow = table_text()
    finally:
        set_memo_enabled(previous)
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "4")
    default_memo().clear()
    fast = table_text()
    warm = table_text()  # second pass runs entirely from the memo
    assert fast == slow
    assert warm == slow
