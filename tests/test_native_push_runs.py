"""The cell-run push kernel (ISSUE 15): same bytes as before, any input.

``push_tiles`` now deposits per *cell run* (consecutive particles in
one cell, their corner accumulators held in registers) instead of per
particle. The contract did not move: every accumulator element still
receives the same addends in the same particle order, so positions,
momenta and J are byte-identical to the kernel this replaced, however
the input happens to be ordered.

Two kinds of check:

- golden sha256 digests recorded from the parent commit (2cb346f) on
  this toolchain, asserted on the three native entry paths — a change
  to any float in any array after 25 steps fails them. They pin numpy's
  seeded generator and libm's sin/cos as well as the kernel, so a
  mismatch on a different numpy/libc is a reason to re-record from the
  parent commit, not a kernel defect by itself;
- adversarial run shapes through ``fused_push_species`` against the
  numpy lane (particles equal, CIC J within 1 ulp — the lanes'
  standing relation), and the portable build against the host-tuned
  one.

These tests need a C compiler; without one they skip.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.tuning import StepPlan
from repro.vpic import native, workloads
from repro.vpic.fastpath import fused_push_species
from repro.vpic.simulation import Simulation
from repro.vpic.species import Species

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(not native.native_available(),
                       reason=f"no native lane: {native.native_status()}"),
]

PARTICLE = ("x", "y", "z", "ux", "uy", "uz", "w", "voxel", "tag")
FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
STEPS = 25

DECKS = {
    "two-stream": lambda: workloads.two_stream_deck(seed=3),
    "uniform": lambda: workloads.uniform_plasma_deck(seed=3),
    "laser-plasma": lambda: workloads.laser_plasma_deck(
        nx=16, ny=4, nz=4, ppc=8, seed=3),
}

#: sha256 over fields + particles after STEPS steps with a sort every
#: 10, recorded from commit 2cb346f (the per-particle kernel), where
#: all three entry paths produced the same digest per deck.
GOLDEN = {
    "two-stream":
        "2b028f83e377d8075d0faa80e37992d1363fc611d5774913e23f31574966447a",
    "uniform":
        "fed61950ebd14e0cb282468e493510a0e200c966c9a669005bfcf1c8a7cc8753",
    "laser-plasma":
        "b81a3a371a462bf6e17e729219e852fbc47903a81806ab8936051e90fa378520",
}


def _digest(sim) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        for attr in PARTICLE:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


def _run(deck: str, path: str):
    sim = DECKS[deck]().build()
    sim.sort_step.interval = 10
    if path == "step_many":
        Simulation.step_many([sim], STEPS)
        return sim
    scope = {"native-step": "step", "native-push": "push"}[path]
    sim.step_plan = StepPlan(native=True, native_scope=scope)
    for _ in range(STEPS):
        sim.step()
    return sim


@pytest.mark.parametrize("path", ["native-step", "native-push",
                                  "step_many"])
@pytest.mark.parametrize("deck", sorted(DECKS))
def test_golden_digest_from_parent_commit(deck, path):
    sim = _run(deck, path)
    assert sim.sort_step.sorts_performed > 0, "no sorted runs exercised"
    assert _digest(sim) == GOLDEN[deck]


def test_portable_build_same_bytes_as_host_tuned():
    """The ``#else`` spelling of every ISA-gated operation produces
    the same bytes: the strict-IEEE flag set alone vs -march=native."""
    digests = []
    try:
        for flags in (native._PORTABLE_CFLAGS, native._CFLAGS):
            assert native.rebuild(flags), native.native_status()
            digests.append(_digest(_run("laser-plasma", "native-step")))
    finally:
        native.rebuild()
    assert digests[0] == digests[1] == GOLDEN["laser-plasma"]


# -- adversarial run shapes vs the numpy lane ----------------------------------


def _pair():
    """(kernel sim, numpy-lane sim): same empty species, same random
    E and B so gather and Boris do real work."""
    sims = []
    for _ in range(2):
        sim = workloads.uniform_plasma_deck(nx=6, ny=4, nz=3, ppc=1,
                                            seed=1).build()
        rng = np.random.default_rng(5)
        for name in FIELDS[:6]:
            arr = getattr(sim.fields, name).data
            arr[...] = rng.normal(scale=0.05, size=arr.shape)
        for sp in sim.species:
            sp.n = 0
        sims.append(sim)
    return sims


def _load(sp, cells, rng):
    """Fill *sp* with one particle per entry of *cells* ((n, 3) cell
    coordinates), at random in-cell offsets."""
    g = sp.grid
    n = len(cells)
    pos = (np.asarray(cells, dtype=np.float64).reshape(n, 3)
           + rng.random((n, 3))) * (g.dx, g.dy, g.dz)
    u = rng.normal(scale=0.3, size=(n, 3))
    sp.n = 0
    sp.append(pos[:, 0], pos[:, 1], pos[:, 2], u[:, 0], u[:, 1], u[:, 2],
              rng.uniform(0.5, 1.5, size=n))


def _push_and_compare(fill):
    """*fill(sim, rng)* loads the species of both sims identically;
    one fused push on each lane; particles equal, J within 1 ulp."""
    kernel, oracle = _pair()
    for sim in (kernel, oracle):
        fill(sim, np.random.default_rng(11))
    for sim, plan in ((kernel, StepPlan()), (oracle, StepPlan(native=False))):
        for sp in sim.species:
            fused_push_species(sim.fields, sp, sim._arena, plan)
    for sa, sb in zip(kernel.species, oracle.species):
        assert sa.n == sb.n
        for attr in PARTICLE[:6]:
            assert np.array_equal(sa.live(attr), sb.live(attr)), \
                f"{sa.name}.{attr} differs from the numpy lane"
    for name in FIELDS[6:]:
        a = getattr(kernel.fields, name).data.astype(np.float64)
        b = getattr(oracle.fields, name).data.astype(np.float64)
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert np.all(np.abs(a - b) <= ulp), f"{name} beyond 1 ulp"
    return kernel


def _cells(sim, n, rng, sort=False):
    """*n* random cells, optionally in voxel (= STANDARD sort) order."""
    g = sim.grid
    c = np.stack([rng.integers(0, d, size=n)
                  for d in (g.nx, g.ny, g.nz)], axis=1)
    if sort:
        c = c[np.lexsort((c[:, 2], c[:, 1], c[:, 0]))]
    return c


def test_every_particle_in_one_cell():
    """One run spanning three tiles: the accumulators stay in
    registers across the tile's whole 1024 particles."""
    _push_and_compare(lambda sim, rng: _load(
        sim.species[0], np.tile([[2, 1, 1]], (2500, 1)), rng))


def test_run_straddles_the_tile_edge():
    """A cell's particles sit at [1000, 1050): the run is cut at 1024,
    stored, and reloaded by the next tile."""
    def fill(sim, rng):
        cells = _cells(sim, 1200, rng, sort=True)
        cells[1000:1050] = (3, 2, 1)
        _load(sim.species[0], cells, rng)
    _push_and_compare(fill)


def test_sorted_then_fully_shuffled_input_same_particles():
    """Runs of ~28 vs runs of ~1 over the same particle set."""
    def sorted_fill(sim, rng):
        _load(sim.species[0], _cells(sim, 2000, rng, sort=True), rng)

    def shuffled_fill(sim, rng):
        _load(sim.species[0], _cells(sim, 2000, rng), rng)

    _push_and_compare(sorted_fill)
    _push_and_compare(shuffled_fill)


@pytest.mark.parametrize("n", [0, 1, 1023, 1025])
def test_counts_around_the_tile_size(n):
    kernel = _push_and_compare(lambda sim, rng: _load(
        sim.species[0], _cells(sim, n, rng, sort=True), rng))
    assert kernel.species[0].n == n


def test_particle_exactly_on_the_high_box_edge():
    """x == Lx clips to the last cell with fraction 1 - 1e-9 -> 1.0f:
    a run of its own next to in-cell neighbours of the same cell."""
    def fill(sim, rng):
        g = sim.grid
        sp = sim.species[0]
        _load(sp, np.tile([[g.nx - 1, g.ny - 1, g.nz - 1]], (40, 1)), rng)
        lx, ly, lz = g.lengths
        sp.x[7], sp.y[8], sp.z[9] = lx, ly, lz
        sp.x[20], sp.y[20], sp.z[20] = lx, ly, lz
        sp.update_voxels()
    _push_and_compare(fill)


def test_negative_zero_coordinate():
    """-0.0 passes both clip selects unchanged (it is not < 0) and
    lands in cell 0 with fraction -0.0, as on the numpy lane."""
    def fill(sim, rng):
        sp = sim.species[0]
        _load(sp, np.zeros((30, 3), dtype=int), rng)
        for i, arr in zip((3, 4, 5), (sp.x, sp.y, sp.z)):
            arr[i] = -0.0
        sp.x[6] = sp.y[6] = sp.z[6] = -0.0
        assert np.signbit(sp.x[3]) and np.signbit(sp.z[6])
    _push_and_compare(fill)


def test_two_species_share_the_accumulator():
    """The second species' push re-zeroes and reuses the same float64
    accumulator; J sums both folds."""
    def fill(sim, rng):
        ions = Species("ion", 1.0, 4.0, sim.grid)
        sim.species.append(ions)
        _load(sim.species[0], _cells(sim, 1500, rng, sort=True), rng)
        _load(ions, _cells(sim, 700, rng, sort=True), rng)
    kernel = _push_and_compare(fill)
    assert len(kernel.species) == 2
    assert float(np.abs(kernel.fields.jx.data).sum()) > 0.0
