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
  parent commit, not a kernel defect by itself. The wakefield digest
  (600 push-scope steps, 273 moving-window shifts) was recorded at
  13d8fa6, before the window moved to C;
- adversarial run shapes through ``Simulation.push_step``'s native
  deck push against the numpy lane (particles equal, CIC J within 1 ulp — the lanes'
  standing relation), and the portable build against the host-tuned
  one.

The whole step and the push-scope lane push on one team of threads,
one per CPU of the process's affinity mask, taking the deposits in
tile order; the same digests and event counters must come out on one
thread and on all of them, from two Python threads stepping at once
(the second steps on its own thread), and from a forked child (which
starts its own team).

These tests need a C compiler; without one they skip.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.plan import StepPlan
from repro.vpic import native, workloads
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
    # _run_wakefield (seed 3, WAKE_STEPS steps, 273 window shifts),
    # recorded at 13d8fa6, where the window was numpy
    "wakefield":
        "fa3f0d2addfec28e24c354162bfc0521589e30bc0832a6bca412f28866ab7930",
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
    sim.step_plan = StepPlan(path)
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


def test_wakefield_golden_digest_from_parent_commit():
    """The push-scope lane with its window shifting in C ends on the
    digest the numpy window left."""
    sim = _run_wakefield()
    assert sim.sources[1].shifts_applied == 273
    assert _digest(sim) == GOLDEN["wakefield"]


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


# -- the step team: same bytes for any number of threads -----------------------

ROOT = Path(__file__).resolve().parents[1]
COUNTERS = ("sim/particles_pushed", "native/cell_crossings",
            "native/ghost_folds", "native/sort_events",
            "step_lane/native-step", "step_lane/native-push")

#: The push-scope lane's own deck, stepped past a few hundred window
#: shifts: its antenna, Mur boundary and moving window keep it off the
#: whole step.
WAKE_STEPS = 600


def _run_wakefield():
    sim = workloads.laser_wakefield_deck(seed=3).build()
    for _ in range(WAKE_STEPS):
        sim.step()
    return sim


#: Steps each (deck, path) of {runs} in a fresh process pinned to
#: {cpus}; prints the team size and, per run, the digest and the event
#: and lane counters.
_PINNED_CHILD = """
import json, os
os.sched_setaffinity(0, {cpus!r})
from repro.observability.metrics import default_registry
from repro.vpic import native
from tests import test_native_push_runs as t
out = {{"team": native.step_team_size()}}
for deck, path in {runs!r}:
    default_registry().reset()
    sim = t._run_wakefield() if deck == "wakefield" else t._run(deck, path)
    out[deck + "/" + path] = [t._digest(sim)] + [
        default_registry().counter(c).value for c in t.COUNTERS]
print(json.dumps(out))
"""


def _pinned_run(cpus, runs) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         _PINNED_CHILD.format(cpus=sorted(cpus), runs=runs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _one_and_every_cpu(runs) -> dict:
    """The runs pinned to one CPU and to every CPU of the mask: the
    same results, which are returned."""
    cpus = os.sched_getaffinity(0)
    one = _pinned_run({min(cpus)}, runs)
    every = _pinned_run(cpus, runs)
    assert one.pop("team") == 1
    assert every.pop("team") == min(len(cpus), native._TEAM_MAX) > 1
    assert one == every
    return every


_MULTI_CPU = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of two or more CPUs")


@_MULTI_CPU
def test_team_size_does_not_change_bytes_or_counters():
    """One CPU (a one-thread step) and every CPU of the mask give the
    golden digests and the same pushed / crossing / fold / sort
    counts, on the per-step lane and in a step_many batch."""
    every = _one_and_every_cpu([(deck, path) for deck in sorted(DECKS)
                                for path in ("native-step", "step_many")])
    for run, (digest, pushed, *_) in every.items():
        assert digest == GOLDEN[run.split("/")[0]], run
        assert pushed > 0


@_MULTI_CPU
def test_push_scope_team_size_does_not_change_bytes_or_counters():
    """The push-scope lane on one CPU and on every CPU: the golden
    digests on the native-push lane, one wakefield digest, and
    the same pushed / crossing / fold counts, every step on the
    native-push lane."""
    every = _one_and_every_cpu([(deck, "native-push")
                                for deck in sorted(DECKS) + ["wakefield"]])
    for run, (digest, pushed, crossings, folds, sorts, step_lane,
              push_lane) in every.items():
        deck = run.split("/")[0]
        if deck in GOLDEN:
            assert digest == GOLDEN[deck], run
        assert pushed > 0 and crossings > 0 and folds > 0, run
        assert sorts == step_lane == 0, run
        assert push_lane == (WAKE_STEPS if deck == "wakefield" else STEPS)


def test_team_step_with_ragged_species_matches_push_lane():
    """Species of 1025, 1 and 0 particles: a tile of one particle, a
    sort chunk with nothing in it, a species with no tiles at all. The
    whole step (team push and team sort) against the push-scope lane
    (team push; field solve and one-thread sort called from Python)."""
    digests = []
    for scope in ("step", "push"):
        sim = _pair()[0]
        rng = np.random.default_rng(11)
        for name, q, m, n in (("ion", 1.0, 4.0, 1), ("none", 1.0, 9.0, 0)):
            sim.species.append(Species(name, q, m, sim.grid))
        _load(sim.species[0], _cells(sim, 1025, rng, sort=True), rng)
        _load(sim.species[1], _cells(sim, 1, rng), rng)
        sim.sort_step.interval = 3
        sim.step_plan = StepPlan(f"native-{scope}")
        assert (sim.native_fallback_reason() is None) == (scope == "step")
        for _ in range(7):
            sim.step()
        assert sim.sort_step.sorts_performed > 0
        digests.append(_digest(sim))
    assert digests[0] == digests[1]


def test_float64_fields_push_on_numpy():
    """The kernel's fields are float32: a deck with float64 fields on
    the default plan pushes on the numpy lane — the bytes of
    ``native=False``, counted ``numpy-fused`` — instead of reading its
    fields as float32."""
    from repro.observability.metrics import default_registry
    from repro.vpic.fields import FieldArrays

    digests = []
    for plan in (StepPlan.NATIVE_STEP, StepPlan.NUMPY_FUSED):
        base = workloads.uniform_plasma_deck(nx=6, ny=4, nz=4, ppc=4,
                                             seed=1).build()
        fields = FieldArrays(base.grid, np.float64)
        rng = np.random.default_rng(0)
        for name in FIELDS[:6]:
            getattr(fields, name).data[...] = rng.normal(
                scale=0.05, size=base.grid.shape)
        sim = Simulation(grid=base.grid, fields=fields,
                         species=base.species, step_plan=plan)
        default_registry().reset()
        for _ in range(3):
            sim.step()
        assert default_registry().counter(
            "step_lane/numpy-fused").value == 3
        assert np.isfinite(sim.species[0].live("ux")).all()
        digests.append(_digest(sim))
    assert digests[0] == digests[1]


def test_run_deck_names_the_push_scope_threads(tmp_path, capsys):
    """A wakefield run says how many threads its push runs on, although
    the whole step is off: the ``run-deck`` note, the flight header's
    ``native_threads`` and the watch panel's lane line."""
    from repro.cli import main
    from repro.observability.flight import read_events
    from repro.observability.watch import WatchView

    run_dir = str(tmp_path / "flight")
    assert main(["run-deck", "wakefield", "--steps", "2", "--record",
                 "--record-dir", run_dir]) == 0
    n = native.step_team_size(workloads.make_deck("wakefield").build())
    threads = f"push on {n} thread{'s' * (n != 1)}"
    note = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("note: whole-step native lane off")]
    assert len(note) == 1
    assert note[0].endswith("fields and sort on native kernels; " + threads)
    view = WatchView()
    for event in read_events(run_dir):
        view.feed(event)
    assert view.header["native_threads"] == n
    assert any(line.startswith("native lane   fallback")
               and line.endswith(threads)
               for line in view.render().splitlines())


def _digests_in_threads(runs: dict) -> dict:
    """Each of *runs* (name -> sim factory) on a Python thread of its
    own, all started at once; the digest of each sim."""
    start = threading.Barrier(len(runs))
    digests: dict = {}
    errors: list = []

    def work(name):
        try:
            start.wait()
            digests[name] = _digest(runs[name]())
        except BaseException as exc:        # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(n,)) for n in runs]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=300)
    assert not errors, errors
    return digests


def test_concurrent_python_threads_keep_their_bytes():
    """Python threads stepping three sims at once: one holds the team,
    the others find it taken and step on their own thread. Every sim
    ends on its sequential digest."""
    decks = sorted(DECKS)
    digests = _digests_in_threads(
        {d: (lambda d=d: _run(d, "native-step")) for d in decks})
    assert digests == {d: GOLDEN[d] for d in decks}


def test_concurrent_push_scope_threads_keep_their_bytes():
    """Two Python threads on the push-scope lane at once: whichever
    pushes while the other holds the team pushes on its own thread.
    Both sims end on their sequential digests."""
    want = {"wakefield": GOLDEN["wakefield"],
            "laser-plasma": GOLDEN["laser-plasma"]}
    digests = _digests_in_threads(
        {"wakefield": _run_wakefield,
         "laser-plasma": lambda: _run("laser-plasma", "native-push")})
    assert digests == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_team():
    """Fork after the team has stepped: the child's copy of the team
    has no workers, so it starts one, and finishes the run on the
    golden digest — as does the parent."""
    sim = DECKS["laser-plasma"]().build()
    sim.sort_step.interval = 10
    sim.step_plan = StepPlan.NATIVE_STEP
    for _ in range(10):
        sim.step()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                                    # the child
        code = 1
        try:
            os.close(r)
            for _ in range(STEPS - 10):
                sim.step()
            threads = len(os.listdir("/proc/self/task"))
            os.write(w, f"{_digest(sim)} {threads}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    deadline = time.monotonic() + 120
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
    with os.fdopen(r) as f:
        digest, threads = f.read().split()
    for _ in range(STEPS - 10):
        sim.step()
    assert digest == _digest(sim) == GOLDEN["laser-plasma"]
    assert int(threads) >= native.step_team_size(sim)


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
    one fused push on each lane (``Simulation.push_step``: the C deck
    push on the kernel sim, the numpy lane on the oracle); particles
    equal, J within 1 ulp."""
    kernel, oracle = _pair()
    for sim in (kernel, oracle):
        fill(sim, np.random.default_rng(11))
    oracle.step_plan = StepPlan.NUMPY_FUSED
    assert kernel.lane().native_push and not oracle.lane().native_push
    for sim in (kernel, oracle):
        sim.push_step(sim.lane())
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
