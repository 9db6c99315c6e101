"""The moving window's C shift against the numpy shift it replaces.

``MovingWindow.shift`` slides the box one cell in +x: the nine field
arrays move one x plane down, the Mur history re-reads its planes,
particles that fall behind ``x0`` are dropped by a stable compaction and
a fresh column is loaded at the leading edge. With the step's native
kernels on (``sim.lane().kernels``) everything after the column's RNG
is one C call, ``native.shift_window``; the numpy code stays as the
fallback and the oracle.

The contract: every field array, the Mur history and every species
array up to its capacity (the dead tail included) byte for byte equal,
with the same particle count, capacity and voxel staleness — on the
host-tuned build and on the portable one. These tests need a C
compiler; without one they skip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import StepPlan
from repro.vpic import native
from repro.vpic.deck import FieldBoundaryKind, SpeciesConfig
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid
from repro.vpic.simulation import Simulation
from repro.vpic.species import Species
from repro.vpic.window import MovingWindow

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]

FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")

#: An inexact cell (wakefield's dx, a non-zero origin) and an exact one,
#: on which x - dx lands on x0 exactly for x = x0 + dx.
GRIDS = {
    "inexact": dict(nx=7, ny=3, nz=2, dx=0.4, dy=0.4, dz=0.4, x0=-1.3,
                    y0=0.2, z0=0.0),
    "exact": dict(nx=5, ny=2, nz=3, dx=0.5, dy=0.25, dz=0.75, x0=-1.5,
                  y0=0.0, z0=1.0),
}

#: Reload entries: a warm drifting plasma and a cold one (zero momenta).
WARM = SpeciesConfig("electron", q=-1.0, m=1.0, ppc=3, uth=0.05,
                     drift=(0.1, 0.0, -0.2), weight=0.7)
COLD = SpeciesConfig("ion", q=1.0, m=4.0, ppc=2, weight=1.3)


@pytest.fixture(scope="module", params=["default", "portable"])
def build(request):
    """The library the process loaded (the host-tuned build, or the one
    a sanitizer recipe rebuilt: it deselects ``portable``), then the
    portable build, after which the host-tuned one is rebuilt."""
    if request.param == "default":
        yield request.param
        return
    assert native.rebuild(native._PORTABLE_CFLAGS), native.native_status()
    yield request.param
    native.rebuild()


def _species(name, q, m, grid, x, slack, rng) -> Species:
    """A species holding positions *x* (the rest random), arbitrary
    voxels and tags, *slack* spare slots and garbage in its dead
    tail."""
    n = len(x)
    sp = Species(name, q, m, grid, capacity=max(n + slack, 1))
    lo = np.array([grid.x0, grid.y0, grid.z0])
    hi = lo + np.array(grid.lengths)
    y, z = (rng.uniform(lo[a], hi[a], n) for a in (1, 2))
    sp.append(x, y, z, *rng.normal(size=(3, n)), rng.random(n))
    cap = sp.capacity
    for attr in ("x", "y", "z", "ux", "uy", "uz", "w"):
        getattr(sp, attr)[n:] = rng.normal(size=cap - n)
    sp.voxel[:] = rng.integers(0, grid.n_voxels, cap)
    sp.tag[:] = rng.integers(-1, 1 << 40, cap)
    return sp


def _sim(grid_name, loads, absorbing=True, seed=0) -> Simulation:
    """A simulation on *grid_name* with random fields (ghosts included)
    and Mur history, and one species per ``(name, x, slack)`` of
    *loads*: electrons and ions, as :data:`WARM` and :data:`COLD`."""
    rng = np.random.default_rng(seed)
    grid = Grid(**GRIDS[grid_name])
    species = [_species(name, *({"electron": (-1.0, 1.0),
                                 "ion": (1.0, 4.0)}[name]), grid,
                        np.asarray(x, np.float32), slack, rng)
               for name, x, slack in loads]
    sim = Simulation(grid=grid, fields=FieldArrays(grid), species=species,
                     field_boundary=(FieldBoundaryKind.ABSORBING_X
                                     if absorbing
                                     else FieldBoundaryKind.PERIODIC))
    for name in FIELDS:
        arr = getattr(sim.fields, name).data
        arr[...] = rng.normal(size=arr.shape)
    if absorbing:
        sim.solver.mur._history[...] = rng.normal(
            size=sim.solver.mur._history.shape)
    return sim


def _assert_same(a, b) -> None:
    for name in FIELDS:
        assert (getattr(a.fields, name).data.tobytes()
                == getattr(b.fields, name).data.tobytes()), name
    mur_a = getattr(a.solver, "mur", None)
    if mur_a is not None:
        assert mur_a._history.tobytes() == b.solver.mur._history.tobytes()
    for sa, sb in zip(a.species, b.species, strict=True):
        assert ((sa.n, sa.capacity, sa._voxels_stale)
                == (sb.n, sb.capacity, sb._voxels_stale)), sa.name
        for attr in Species._ARRAYS:
            assert (getattr(sa, attr).tobytes()
                    == getattr(sb, attr).tobytes()), (sa.name, attr)


def _shift_both_ways(make, reload=(WARM,), step=11, monkeypatch=None):
    """Shift two copies of ``make()`` once each, in C and in numpy;
    returns them after asserting every byte equal."""
    window = MovingWindow(interval=1, reload=reload, seed=5)
    on_c, on_numpy = make(), make()
    on_numpy.step_plan = StepPlan.NUMPY_FUSED
    assert on_c.lane().kernels is not None
    assert on_numpy.lane().kernels is None
    calls = []
    if monkeypatch is not None:
        shift_window = native.shift_window
        monkeypatch.setattr(native, "shift_window",
                            lambda *a: calls.append(1) or shift_window(*a))
    for sim in (on_c, on_numpy):
        window.bind(sim)
        window.shift(sim, step)
    if monkeypatch is not None:
        assert calls == [1]
    _assert_same(on_c, on_numpy)
    return on_c, on_numpy


def _cells(grid_name, pattern, rng) -> np.ndarray:
    """Positions by *pattern*: ``"d"`` in the trailing cell (dropped
    by the shift), ``"k"`` behind it (kept)."""
    g = Grid(**GRIDS[grid_name])
    n = len(pattern)
    cell = np.where([c == "d" for c in pattern], 0, rng.integers(1, g.nx, n))
    return g.x0 + (cell + rng.random(n)) * g.dx


# -- property: any pattern of runs ---------------------------------------------

@st.composite
def _runs(draw):
    """Alternating runs of dropped and kept particles, many and short
    or few and long, plus the case's grid, solver, capacity slack and
    seed."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 40)),
                         min_size=0, max_size=30))
    pattern = "".join(("d" if drop else "k") * k for drop, k in runs)
    return (pattern, draw(st.sampled_from(sorted(GRIDS))),
            draw(st.booleans()), draw(st.integers(0, 60)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=_runs())
def test_shift_matches_numpy_for_any_runs(build, case):
    pattern, grid_name, absorbing, slack, seed = case
    x = _cells(grid_name, pattern, np.random.default_rng(seed))
    _shift_both_ways(lambda: _sim(grid_name, [("electron", x, slack)],
                                  absorbing, seed))


# -- edge cases ------------------------------------------------------------------

def _one(grid_name, x, slack=40, absorbing=True):
    return lambda: _sim(grid_name, [("electron", x, slack)], absorbing)


def test_takes_the_c_call_and_drops_the_trailing_column(build,
                                                        monkeypatch):
    x = _cells("inexact", "dddkkkdkkkkdd" * 20, np.random.default_rng(1))
    on_c, _ = _shift_both_ways(_one("inexact", x),
                               monkeypatch=monkeypatch)
    assert on_c.species[0].n == 7 * 20 + 3 * 3 * 2


@pytest.mark.parametrize("pattern", [
    "k" * 50, "d" * 50, "", "d" * 20 + "k" * 300 + "d" + "k" * 50,
    "kdk" * 40 + "d" * 17 + "k" * 40,
    "d" * 300 + ("k" * 4000 + "d" * 20) * 5 + "kd" * 50 + "k" * 7],
    ids=["none-dropped", "all-dropped", "empty", "long-runs",
         "short-gaps-then-long", "many-survivors"])
def test_patterns(build, pattern):
    """No particle dropped, all, none there; survivor runs longer than
    the gap below them (source and destination overlap); many
    one-particle gaps before a long one; and 20k survivors in long
    runs, as a sorted wakefield species holds."""
    x = _cells("inexact", pattern, np.random.default_rng(2))
    _shift_both_ways(_one("inexact", x))


def test_periodic_solver_has_no_history(build):
    x = _cells("inexact", "dkdkkd" * 30, np.random.default_rng(3))
    on_c, _ = _shift_both_ways(_one("inexact", x, absorbing=False))
    assert getattr(on_c.solver, "mur", None) is None


def test_nonfinite_positions(build):
    """NaN and +inf are not behind x0 and stay; -inf is dropped."""
    x = _cells("inexact", "kdkkdkkkdk", np.random.default_rng(4))
    x[[0, 3, 5, 9]] = [np.nan, np.inf, -np.inf, np.nan]
    on_c, _ = _shift_both_ways(_one("inexact", x))
    live = on_c.species[0].live("x")[:7]
    assert np.isnan(live).sum() == 2 and np.isposinf(live).sum() == 1
    assert not np.isneginf(live).any()


def test_x_landing_exactly_on_x0_stays(build):
    g = Grid(**GRIDS["exact"])
    x = np.full(9, np.float32(g.x0) + np.float32(g.dx), np.float32)
    x[1::2] = np.nextafter(x[1::2], np.float32(-np.inf))
    assert np.all(x[::2] - np.float32(g.dx) == np.float32(g.x0))
    on_c, _ = _shift_both_ways(_one("exact", x), reload=())
    assert on_c.species[0].n == 5


def test_two_species_one_without_reload_and_an_empty_one(build):
    rng = np.random.default_rng(6)
    x_e = _cells("inexact", "ddkkkkdk" * 25, rng)
    x_i = _cells("exact", "", rng)
    for reload in ((WARM, COLD), (COLD,), (WARM,), ()):
        _shift_both_ways(lambda: _sim("inexact", [("electron", x_e, 9),
                                                  ("ion", x_i, 0)]),
                         reload=reload)
        _shift_both_ways(lambda: _sim("inexact", [("ion", x_e, 9),
                                                  ("electron", x_i, 0)]),
                         reload=reload)


@pytest.mark.parametrize("slack", [0, 1, 2], ids=["over", "exact", "under"])
def test_reload_crossing_capacity(build, slack):
    """Five survivors and an 18-particle column (3 ppc on the exact
    grid's 2 x 3 face) in a capacity of 22 (the column overflows by
    one: the arrays grow), 23 (it fits exactly) or 24."""
    x = _cells("exact", "dkkkdkk", np.random.default_rng(7))
    pad = 22 - len(x) + slack             # capacity 22, 23 or 24
    on_c, _ = _shift_both_ways(_one("exact", x, slack=pad))
    sp = on_c.species[0]
    assert sp.n == 23
    assert (sp.capacity > 22 + slack) == (slack == 0)


def test_voxels_are_marked_stale_and_refresh_alike(build):
    x = _cells("inexact", "kkdkdddkkk" * 9, np.random.default_rng(8))
    on_c, on_numpy = _shift_both_ways(_one("inexact", x))
    assert on_c.species[0]._voxels_stale
    assert (on_c.species[0].live("voxel").tobytes()
            == on_numpy.species[0].live("voxel").tobytes())


def test_draws_of_the_wrong_shape_are_refused(build):
    sim = _one("inexact", _cells("inexact", "dk", np.random.default_rng(9)))()
    lib = sim.lane().kernels
    n = 3 * 3 * 2
    for draws in (np.zeros((3, n + 1)), np.zeros((4, n)),
                  np.zeros((6, n), np.float32), np.zeros((n, 6)).T):
        with pytest.raises(ValueError, match="reload draws"):
            native.shift_window(sim, lib, [(WARM, draws)])
