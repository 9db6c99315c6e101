"""The native step's in-step reductions against their numpy oracles.

Asked for energy (``native.step_simulation(..., energy=True)``), a
whole-step native call returns ``(electric, magnetic, kinetic)`` that
must be the very floats ``FieldArrays.field_energy()`` and the sum of
``Species.kinetic_energy()`` give for the state it leaves. Asked for
disorder, each sort's descent count must give ``disorder_fraction``'s
values, and a detail-mode run the gauges of the Python sort.

The cases straddle numpy's pairwise sum: below eight terms, its blocks
(8, 9, 127, 128, 129) and its splits (1025, 32771 particles; 16^3
cells), on grids of 1x1x1, 5x3x1 and 16^3 cells, with an empty species
beside a full one and NaN and +-inf in a field and in a momentum; on a
team of one CPU against all of them, and on the portable build against
the host-tuned one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.sorting import disorder_fraction
from repro.observability.metrics import default_registry, set_detail
from repro.vpic import native
from repro.vpic.deck import Deck, SpeciesConfig
from repro.vpic.simulation import Simulation
from repro.vpic.species import Species

pytestmark = pytest.mark.native

_ROOT = Path(__file__).resolve().parents[1]
_SIZES = (0, 1, 7, 8, 9, 127, 128, 129, 1000, 1025, 4097, 32771, 100003)
_GRIDS = ((1, 1, 1), (5, 3, 1), (9, 7, 5), (16, 16, 16))
#: (grid, particles, where the poison goes, value)
_POISON = tuple((grid, n, where, value)
                for grid, n in (((5, 3, 1), 129), ((16, 16, 16), 32771))
                for where in ("ey", "uz")
                for value in (np.nan, np.inf, -np.inf))


def _bits(x: float) -> str:
    return np.float64(x).tobytes().hex()


def _sim(grid, n: int, seed: int) -> Simulation:
    """A deck of *grid* cells with random E and B and two species: one
    of *n* hot particles (a few with zero momentum and negative weight,
    whose kinetic term is -0.0) and an empty one."""
    nx, ny, nz = grid
    sim = Deck(name="energy", nx=nx, ny=ny, nz=nz, dx=0.5, dy=0.5, dz=0.5,
               num_steps=4, sort_interval=1,
               species=(SpeciesConfig("e", -1.0, 1.0, ppc=1),)).build()
    rng = np.random.default_rng(seed)
    for name in ("ex", "ey", "ez", "bx", "by", "bz"):
        data = getattr(sim.fields, name).data
        data[...] = rng.normal(0.0, 0.05, data.shape)
    g = sim.grid
    hot = Species("hot", -1.0, 1.0, g)
    hot.append(*(rng.uniform(0.0, 1.0, (n, 3)) * g.lengths).T,
               *rng.normal(0.0, 0.3, (3, n)), rng.uniform(0.5, 1.5, n))
    for c in ("ux", "uy", "uz"):
        hot.live(c)[:min(n, 3)] = 0.0
    hot.live("w")[:min(n, 3)] = -1.0
    sim.species = [hot, Species("empty", 1.0, 16.0, g)]
    return sim


def _numpy_totals(sim) -> tuple:
    e, b = sim.fields.field_energy()
    return e, b, sum(sp.kinetic_energy() for sp in sim.species)


def _case(grid, n, where=None, value=0.0) -> dict:
    """One sorting step and one three-step call, energy and disorder
    asked for, each against numpy; the twin that does not sort gives
    the voxels the sort saw. A poisoned case does not sort: its
    particles' NaN positions bin elsewhere in the C sort's voxel refresh
    than in ``Grid.voxel_of_position``. JSON-able: floats as their
    bytes."""
    sims = [_sim(grid, n, seed=n) for _ in range(2)]
    for sim in sims:
        if where == "ey":
            sim.fields.ey.data[1, 1, 1] = value
        elif where == "uz" and n:
            sim.species[0].live("uz")[n // 2] = value
    sorted_sim, twin = sims
    sort = 0 if where else 1
    res = native.step_simulation(sorted_sim, sort, energy=True,
                                 disorder=True)
    sorted_sim.step_count += 1
    twin_res = native.step_simulation(twin, 0, energy=True)
    out = {
        "energy": [_bits(x) for x in res["energy"]],
        "numpy": [_bits(x) for x in _numpy_totals(sorted_sim)],
        "twin": [_bits(x) for x in twin_res["energy"]],
        "twin_numpy": [_bits(x) for x in _numpy_totals(twin)],
    }
    if sort:
        hot = twin.species[0]
        hot.update_voxels()
        out["before"] = res["descents"][0] / (n - 1) if n > 1 else 0.0
        out["numpy_before"] = disorder_fraction(hot.live("voxel"))
        out["after"] = disorder_fraction(sorted_sim.species[0].live("voxel"))
        out["empty_descents"] = res["descents"][1]
    res = native.step_simulation(sorted_sim, 2 * sort, steps=3, energy=True)
    out["chunk"] = [_bits(x) for x in res["energy"]]
    out["chunk_numpy"] = [_bits(x) for x in _numpy_totals(sorted_sim)]
    return out


def _energy_cases() -> dict:
    cases = [(grid, n) for grid in _GRIDS for n in _SIZES]
    out = {f"{grid} n={n}": _case(grid, n) for grid, n in cases}
    for grid, n, where, value in _POISON:
        out[f"{grid} n={n} {where}={value}"] = _case(grid, n, where, value)
    return out


def _assert_oracles(out: dict) -> None:
    for key, case in out.items():
        assert case["energy"] == case["numpy"], key
        assert case["twin"] == case["twin_numpy"], key
        assert case["chunk"] == case["chunk_numpy"], key
        if "before" in case:
            assert case["before"] == case["numpy_before"], key
            assert case["after"] == 0.0, key
            assert case["empty_descents"] == 0, key


def test_energy_and_disorder_match_numpy():
    out = _energy_cases()
    _assert_oracles(out)
    # the poisoned cases do reach the totals as NaN and infinity
    poisoned = [bits for key, case in out.items()
                if " ey=" in key or " uz=" in key for bits in case["energy"]]
    assert any(np.isnan(np.frombuffer(bytes.fromhex(b))[0])
               for b in poisoned)
    assert _bits(np.inf) in poisoned


_CHILD = """
import json, os
os.sched_setaffinity(0, {cpus!r})
from tests import test_native_energy as t
print(json.dumps(t._energy_cases()))
"""


def _pinned_cases(cpus) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(cpus=sorted(cpus))],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_same_bytes_on_one_cpu_and_all():
    """The team splits the top of every pairwise tree: one thread and
    every CPU give the same bytes, and both match numpy."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else {0}
    runs = [_pinned_cases({min(cpus)})]
    if len(cpus) > 1:
        runs.append(_pinned_cases(cpus))
    for out in runs:
        _assert_oracles(out)
    assert all(out == runs[0] for out in runs)


def test_portable_build_same_bytes_as_host_tuned():
    outs = []
    try:
        for flags in (native._PORTABLE_CFLAGS, native._CFLAGS):
            assert native.rebuild(flags), native.native_status()
            outs.append(_energy_cases())
    finally:
        native.rebuild()
    _assert_oracles(outs[0])
    assert outs[0] == outs[1]


def _detail_run(monkeypatch, python_sort: bool, sort_every: int):
    """A detail-mode run of 12 steps; per step the disorder gauges, the
    drift gauge and the energy totals. *python_sort* leaves the sort to
    ``SortStep.apply``, whose gauges are the oracle."""
    with monkeypatch.context() as m:
        if python_sort:
            m.setattr(Simulation, "_native_sort_ok", lambda self: False)
        sim = Deck(name="pair", nx=6, ny=5, nz=4, num_steps=12,
                   sort_interval=sort_every,
                   species=(SpeciesConfig("e", -1.0, 1.0, ppc=12, uth=0.2),
                            SpeciesConfig("i", 1.0, 16.0, ppc=5,
                                          uth=0.05))).build()
        reg = default_registry()
        reg.reset()
        set_detail(True)
        seen = []
        try:
            for _ in range(12):
                sim.step()
                seen.append((reg.gauge("sort/disorder_before").value,
                             reg.gauge("sort/disorder_after").value,
                             reg.gauge("sim/energy_drift").value,
                             sim.energy_totals()))
        finally:
            set_detail(False)
        return seen, reg.counter("sort/applied").value


@pytest.mark.parametrize("sort_every", [1, 5])
def test_detail_gauges_match_python_sort(monkeypatch, sort_every):
    got = _detail_run(monkeypatch, False, sort_every)
    want = _detail_run(monkeypatch, True, sort_every)
    assert got == want
    assert any(before > 0.0 for before, *_ in got[0])


def test_detail_sort_runs_in_the_step(monkeypatch):
    """Detail mode keeps the sort in the C step: SortStep.apply never
    runs, the step counts the descents."""
    from repro.vpic.sort_step import SortStep

    calls = []
    monkeypatch.setattr(SortStep, "apply",
                        lambda *a, **k: calls.append(1))
    seen, applied = _detail_run(monkeypatch, False, 3)
    assert calls == [] and applied == 4 * 2
    assert seen[2][0] > 0.0 and seen[2][1] == 0.0
