"""Figure 3: RAJAPerf kernels under auto/guided/manual across CPUs.

Regenerates the normalized-runtime series and asserts the paper's
qualitative results: AXPY flat (but A64FX manual ~2x slower),
PLANCKIAN gains up to ~20% from guided, PI_REDUCE gains only from
manual on x86. Also wall-clock-times the *executable* kernels.
"""

import numpy as np
from conftest import emit

from repro.bench.rajaperf import (axpy_kernel, fig3_normalized_runtimes,
                                  pi_reduce_kernel, planckian_kernel)
from repro.bench.reporting import format_table
from repro.bench.strategies import Strategy, run_strategy
from repro.machine.specs import cpu_platforms, get_platform


def test_fig3_series(benchmark):
    data = benchmark.pedantic(
        lambda: fig3_normalized_runtimes(cpu_platforms()),
        rounds=1, iterations=1)

    # AXPY: flat on x86, manual ~2x slower on A64FX (§5.3).
    for p in cpu_platforms():
        row = data["AXPY"][p.name]
        if p.name == "A64FX":
            assert 1.5 < row["manual"] < 3.0
        else:
            assert abs(row["manual"] - 1.0) < 0.25
            assert abs(row["guided"] - 1.0) < 0.15

    # PLANCKIAN: guided never slower, gains exist somewhere.
    planck_gains = [1 - data["PLANCKIAN"][p.name]["guided"]
                    for p in cpu_platforms()]
    assert max(planck_gains) > 0.03
    assert min(planck_gains) > -0.05

    # PI_REDUCE: manual-only vectorization on x86 (§5.3).
    for name in ("EPYC 7763", "Platinum 8480", "Xeon Max 9480", "Grace"):
        row = data["PI_REDUCE"][name]
        assert row["guided"] == 1.0
        assert row["manual"] < 0.7

    for kernel in ("AXPY", "PLANCKIAN", "PI_REDUCE"):
        emit(f"Figure 3: {kernel} runtime normalized to auto",
             format_table(data[kernel], fmt="{:.2f}",
                          col_order=["auto", "guided", "manual"]))


def test_fig3_axpy_kernel_wallclock(benchmark):
    """Wall-clock the executable AXPY under the numpy (auto) path."""
    spr = get_platform("Platinum 8480")
    k = axpy_kernel()
    x = np.linspace(0, 1, 1_000_000).astype(np.float32)
    y = np.zeros_like(x)
    benchmark(lambda: run_strategy(k, Strategy.AUTO, spr, 1.5, x, y))


def test_fig3_planckian_kernel_wallclock(benchmark):
    spr = get_platform("Platinum 8480")
    k = planckian_kernel()
    n = 500_000
    x = np.linspace(0.1, 2, n).astype(np.float32)
    u = np.ones(n, dtype=np.float32)
    v = np.ones(n, dtype=np.float32)
    out = np.zeros(n, dtype=np.float32)
    benchmark(lambda: run_strategy(k, Strategy.GUIDED, spr, x, u, v, out))


def test_fig3_pi_reduce_kernel_wallclock(benchmark):
    spr = get_platform("Platinum 8480")
    k = pi_reduce_kernel()
    result = benchmark(lambda: run_strategy(k, Strategy.AUTO, spr, 200_000))
    assert abs(result - np.pi) < 1e-4
