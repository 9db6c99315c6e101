"""Tests for the real-process distributed backend.

Covers the contract the processes backend makes:

- **bit-identity** — overlapped-processes, serialized-processes, and
  the serialized-threads reference produce byte-identical particle
  and field state on every distributed-eligible zoo deck at 1/2/4/8
  ranks (full-state fingerprints, not just energies);
- **crash containment** — a fault in one worker reaps the whole
  fleet, surfaces as :class:`RankWorkerError` with the worker's
  traceback, and dumps the standard ``crash.json`` artifact when a
  flight recorder is attached;
- units for the shared-memory substrate (:class:`SharedArena`,
  :class:`SharedSpecies`, :class:`NeighborChannels`,
  :func:`interior_split`);
- the distributed fuzz axis (eligibility triage,
  :func:`run_deck_distributed`, corpus replay at the recorded rank
  count).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time

import numpy as np
import pytest

from repro.mpi.comm import ChannelAborted, NeighborChannels
from repro.mpi.distributed import DistributedSimulation
from repro.mpi.process_backend import RankWorkerError
from repro.mpi.shm import SharedArena, SharedSpecies
from repro.vpic.fields import interior_split
from repro.vpic.workloads import make_deck

#: Zoo decks that can run distributed (plain periodic CIC decks on
#: even grids; beam-plasma is Esirkepov and refused, see
#: TestDistributedFuzz.test_esirkepov_deck_refused).
ELIGIBLE_ZOO = ("uniform", "two-stream", "weibel")


def fingerprint(dsim: DistributedSimulation) -> str:
    """Full-state digest: every particle (sorted by immutable tag, so
    rank placement doesn't matter) and every rank's full field bricks
    (ghosts included)."""
    h = hashlib.sha256()
    for si in range(len(dsim.deck.species)):
        tags = np.concatenate(
            [rs.species[si].live("tag") for rs in dsim.ranks])
        order = np.argsort(tags, kind="stable")
        h.update(tags[order].tobytes())
        for attr in ("x", "y", "z", "ux", "uy", "uz", "w"):
            col = np.concatenate(
                [rs.species[si].live(attr) for rs in dsim.ranks])
            h.update(col[order].tobytes())
    for rs in dsim.ranks:
        for name in ("ex", "ey", "ez", "bx", "by", "bz",
                     "jx", "jy", "jz"):
            h.update(getattr(rs.fields, name).data.tobytes())
    return h.hexdigest()


def run_fingerprint(deck, n_ranks, backend, overlap, steps=3):
    dsim = DistributedSimulation(deck, n_ranks, backend=backend,
                                 overlap=overlap)
    try:
        dsim.run(steps)
        return fingerprint(dsim)
    finally:
        dsim.close()


class TestBitIdentity:
    """Processes (both schedules) must equal the threads reference."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_uniform_all_rank_counts(self, n_ranks):
        deck = make_deck("uniform", steps=3, seed=0)
        ref = run_fingerprint(deck, n_ranks, "threads", True)
        assert run_fingerprint(deck, n_ranks, "processes", True) == ref
        assert run_fingerprint(deck, n_ranks, "processes", False) == ref

    @pytest.mark.parametrize("key", [k for k in ELIGIBLE_ZOO
                                     if k != "uniform"])
    @pytest.mark.parametrize("n_ranks", [2, 8])
    def test_zoo_decks(self, key, n_ranks):
        deck = make_deck(key, steps=3, seed=0)
        ref = run_fingerprint(deck, n_ranks, "threads", True)
        assert run_fingerprint(deck, n_ranks, "processes", True) == ref
        assert run_fingerprint(deck, n_ranks, "processes", False) == ref

    def test_conservation_matches_single_rank(self):
        """Across rank counts the loading noise realization differs
        (each rank samples its own particles), so the comparison is
        physical: same total energy to a few percent, exact particle
        count, and bounded drift at 8 ranks."""
        deck = make_deck("uniform", steps=10, seed=0)
        totals = {}
        for n in (1, 8):
            dsim = DistributedSimulation(deck, n, backend="processes")
            try:
                n0 = dsim.total_particles()
                e0, b0 = dsim.total_field_energy()
                k0 = dsim.total_kinetic_energy()
                dsim.run(10)
                e1, b1 = dsim.total_field_energy()
                k1 = dsim.total_kinetic_energy()
                assert dsim.total_particles() == n0
                assert (e1 + b1 + k1) == pytest.approx(
                    e0 + b0 + k0, rel=0.05)
                totals[n] = e1 + b1 + k1
            finally:
                dsim.close()
        assert totals[8] == pytest.approx(totals[1], rel=0.10)


class TestWorkerCrash:
    def test_fault_reaps_fleet_and_raises(self):
        deck = make_deck("uniform", steps=4, seed=0)
        dsim = DistributedSimulation(deck, 2, backend="processes",
                                     _inject_fault=(1, 1))
        try:
            with pytest.raises(RankWorkerError) as exc_info:
                dsim.run(4)
            err = exc_info.value
            assert err.rank == 1
            assert "injected fault" in err.worker_traceback
            # The parent reaped every worker, not just the failed one.
            deadline = time.time() + 10.0
            procs = dsim._pbackend._procs
            while any(p.is_alive() for p in procs) \
                    and time.time() < deadline:
                time.sleep(0.05)
            assert not any(p.is_alive() for p in procs)
        finally:
            dsim.close()   # idempotent after a failure-triggered reap

    def test_crash_dump_written(self, tmp_path):
        from repro.observability.flight import FlightRecorder

        deck = make_deck("uniform", steps=4, seed=0)
        dsim = DistributedSimulation(deck, 2, backend="processes",
                                     _inject_fault=(0, 2))
        recorder = FlightRecorder(str(tmp_path / "run"), stride=1)
        recorder.attach(dsim)
        try:
            with pytest.raises(RankWorkerError):
                dsim.run(4)
        finally:
            recorder.close()
            dsim.close()
        dump = json.loads((tmp_path / "run" / "crash.json").read_text())
        assert dump["type"] == "RankWorkerError"
        assert "rank 0" in dump["error"]


class TestSharedArena:
    def test_reserve_allocate_get_roundtrip(self):
        arena = SharedArena()
        arena.reserve("a", (4, 3), np.float32)
        arena.reserve("b", 5, np.int64)
        arena.allocate()
        try:
            a = arena.get("a")
            assert a.shape == (4, 3) and a.dtype == np.float32
            assert np.all(a == 0)                   # OS-zeroed
            a[...] = 7
            assert arena.get("a") is a              # same view object
            assert "a" in arena and "missing" not in arena
        finally:
            arena.close()

    def test_reserve_twice_rejected(self):
        arena = SharedArena()
        arena.reserve("a", 1, np.float32)
        with pytest.raises(ValueError, match="reserved twice"):
            arena.reserve("a", 1, np.float32)

    def test_get_before_allocate_rejected(self):
        arena = SharedArena()
        arena.reserve("a", 1, np.float32)
        with pytest.raises(RuntimeError, match="not allocated"):
            arena.get("a")

    def test_close_with_live_views_disowns(self):
        """Views legitimately outlive the arena (the parent keeps
        reading rank state after shutdown); close must not raise and
        the view must stay readable."""
        arena = SharedArena()
        arena.reserve("a", 8, np.float64)
        arena.allocate()
        view = arena.get("a")
        view[:] = 3.5
        arena.close()
        arena.close()                               # idempotent
        assert np.all(view == 3.5)


class TestSharedSpecies:
    def _proto(self):
        deck = make_deck("uniform", steps=1, seed=0)
        deck = dataclasses.replace(deck, nx=4, ny=4, nz=4)
        sim = deck.build()
        return sim.species[0]

    def _shared(self, proto, capacity=None):
        cap = capacity or proto.capacity
        arena = SharedArena()
        for attr, shape, dt in SharedSpecies.array_specs(cap):
            arena.reserve(f"sp/{attr}", shape, dt)
        arena.reserve("sp/state", (SharedSpecies.STATE_SLOTS,), np.int64)
        arena.allocate()
        arrays = {attr: arena.get(f"sp/{attr}")
                  for attr in SharedSpecies._ARRAYS}
        return SharedSpecies(proto, arrays, arena.get("sp/state")), arena

    def test_adopts_prototype_state(self):
        proto = self._proto()
        shared, arena = self._shared(proto)
        try:
            assert shared.n == proto.n
            assert np.array_equal(shared.live("x"), proto.live("x"))
            assert np.array_equal(shared.live("tag"), proto.live("tag"))
        finally:
            arena.close()

    def test_n_visible_through_shared_state(self):
        """Another process reads ``n`` through the raw state vector —
        the property and the shared slot must agree both ways."""
        proto = self._proto()
        shared, arena = self._shared(proto)
        try:
            state = shared._state
            assert int(state[SharedSpecies._STATE_N]) == shared.n
            shared.remove(np.array([0]))
            assert int(state[SharedSpecies._STATE_N]) == shared.n
            state[SharedSpecies._STATE_N] = 3       # external writer
            assert shared.n == 3
        finally:
            arena.close()

    def test_growth_forbidden(self):
        proto = self._proto()
        shared, arena = self._shared(proto, capacity=proto.n)
        try:
            one = np.ones(1, dtype=np.float32)
            with pytest.raises(MemoryError, match="fixed"):
                shared.append(one, one, one, one, one, one, one)
        finally:
            arena.close()


class TestNeighborChannels:
    def _channels(self, sems=None):
        seq = np.zeros((1, 6), dtype=np.int64)
        abort = np.zeros(1, dtype=np.int64)
        return NeighborChannels(seq, abort, sems=sems)

    def test_satisfied_wait_returns_immediately(self):
        ch = self._channels()
        ch.publish(0, 2)
        assert ch.wait(0, 2, 1) == 0.0

    def test_wait_blocks_until_publish(self):
        ch = self._channels()

        def later():
            time.sleep(0.05)
            ch.publish(0, 0)

        t = threading.Thread(target=later)
        t.start()
        waited = ch.wait(0, 0, 1)
        t.join()
        assert waited > 0.0
        assert ch.seq[0, 0] == 1

    def test_abort_breaks_wait(self):
        ch = self._channels()
        ch.abort[0] = 1
        with pytest.raises(ChannelAborted):
            ch.wait(0, 0, 1)

    def test_semaphore_mode_pairs_publish_and_wait(self):
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        ch = self._channels(sems=[ctx.Semaphore(0) for _ in range(6)])
        ch.publish(0, 3)
        assert ch.wait(0, 3, 1) == 0.0              # token available
        ch.publish(0, 3)
        ch.publish(0, 3)
        assert ch.wait(0, 3, 2) == 0.0
        assert ch.wait(0, 3, 3) == 0.0
        assert ch.seq[0, 3] == 3


class TestInteriorSplit:
    @pytest.mark.parametrize("dims", [(4, 4, 4), (3, 5, 7), (8, 2, 4),
                                      (2, 2, 2), (1, 4, 4)])
    def test_boxes_disjoint_and_covering(self, dims):
        nx, ny, nz = dims
        deep, shells = interior_split(nx, ny, nz)
        cover = np.zeros((nx + 2, ny + 2, nz + 2), dtype=int)
        boxes = ([deep] if deep is not None else []) + shells
        for (x0, x1), (y0, y1), (z0, z1) in boxes:
            cover[x0:x1, y0:y1, z0:z1] += 1
        interior = cover[1:nx + 1, 1:ny + 1, 1:nz + 1]
        assert np.all(interior == 1), "interior not exactly covered"
        cover[1:nx + 1, 1:ny + 1, 1:nz + 1] = 0
        assert np.all(cover == 0), "a box leaked into the ghost layer"

    def test_deep_box_none_for_thin_bricks(self):
        deep, shells = interior_split(2, 8, 8)
        assert deep is None
        assert shells


class TestDistributedFuzz:
    def test_eligibility_triage(self):
        from repro.fuzz import distributed_eligible

        assert distributed_eligible(
            make_deck("uniform", steps=1, seed=0), 8) is None
        reason = distributed_eligible(
            make_deck("laser-plasma", steps=1, seed=0), 2)
        assert "global grid" in reason
        odd = dataclasses.replace(make_deck("uniform", steps=1, seed=0),
                                  nx=7, ny=7, nz=7)
        assert distributed_eligible(odd, 8) is not None

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_esirkepov_deck_refused(self, backend):
        """Regression: the rank push kernels deposit CIC, so an
        Esirkepov deck used to run a different scheme than it
        declared. It is now refused, by name, at every entry."""
        from repro.fuzz import distributed_eligible

        deck = make_deck("beam-plasma", steps=2, seed=0)
        assert "esirkepov" in distributed_eligible(deck, 2)
        with pytest.raises(ValueError, match="esirkepov deposition"):
            DistributedSimulation(deck, 2, backend=backend)

    def test_run_deck_distributed_ok(self):
        from repro.fuzz import run_deck_distributed

        deck = dataclasses.replace(
            make_deck("uniform", steps=2, seed=0), nx=4, ny=4, nz=4)
        result = run_deck_distributed(deck, 2)
        assert result.status == "ok"
        assert result.ranks == 2 and result.backend == "processes"
        assert "ranks=2/processes" in result.headline()

    def test_run_deck_distributed_rejects_ineligible(self):
        from repro.fuzz import run_deck_distributed

        with pytest.raises(ValueError, match="not distributed-eligible"):
            run_deck_distributed(
                make_deck("laser-plasma", steps=1, seed=0), 2)

    def test_corpus_replays_at_recorded_rank_count(self, tmp_path):
        from repro.fuzz import CorpusEntry, load_corpus, replay_entry, \
            save_entry

        deck = dataclasses.replace(
            make_deck("uniform", steps=2, seed=0),
            name="uniform_dist_corpus", nx=4, ny=4, nz=4)
        entry = CorpusEntry(deck=deck.to_dict(), expect="pass",
                            note="distributed replay coverage",
                            found={"ranks": 2, "backend": "processes"})
        save_entry(entry, str(tmp_path))
        (loaded,) = load_corpus(str(tmp_path))
        ok, result = replay_entry(loaded)
        assert ok
        assert result.ranks == 2 and result.backend == "processes"
