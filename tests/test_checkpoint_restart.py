"""Checkpoint format-v2 and restart-determinism tests.

Pins the three pieces of state format v2 added (species capacity,
the energy-drift reference, the Mur ABC history), v1 backward
compatibility, and the determinism contract: an interrupted run —
including antenna-driven absorbing decks and RANDOM-sort decks —
continues bit-identically to an uninterrupted one. Also covers the
guard's checkpoint ring, whose rollback rides on the same format.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.validate import CheckpointRing
from repro.vpic.checkpoint import (load_checkpoint, restore_state_into,
                                   save_checkpoint)
from repro.vpic.deck import Deck, FieldBoundaryKind, SpeciesConfig
from repro.vpic.injection import LaserAntenna
from repro.vpic.workloads import uniform_plasma_deck

pytestmark = pytest.mark.validate


def _assert_same_state(a, b):
    assert a.step_count == b.step_count
    for name in ("ex", "ey", "ez", "bx", "by", "bz"):
        np.testing.assert_array_equal(getattr(a.fields, name).data,
                                      getattr(b.fields, name).data,
                                      err_msg=name)
    for sa, sb in zip(a.species, b.species):
        for attr in ("x", "y", "z", "ux", "uy", "uz", "w"):
            np.testing.assert_array_equal(sa.live(attr), sb.live(attr),
                                          err_msg=f"{sa.name}.{attr}")


class TestFormatV2:
    def _sim(self, **kwargs):
        deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=4, uth=0.1,
                                   num_steps=10, **kwargs)
        sim = deck.build()
        sim.run(3)
        return sim

    def test_capacity_roundtrips(self, tmp_path):
        """v2 persists per-species capacity; before the fix a restored
        run had its overflow headroom silently shrunk to max(1024, n)."""
        sim = self._sim()
        sp = sim.species[0]
        sp._ensure_capacity(5 * sp.n)
        cap = sp.capacity
        assert cap > max(1024, sp.n)
        restored = load_checkpoint(save_checkpoint(sim, tmp_path / "c.npz"))
        assert restored.species[0].capacity == cap
        assert restored.species[0].n == sp.n

    def test_energy_reference_roundtrips(self, tmp_path):
        sim = self._sim()
        sim._energy0 = 1.2345
        restored = load_checkpoint(save_checkpoint(sim, tmp_path / "c.npz"))
        assert restored._energy0 == 1.2345

    def test_v1_file_still_loads(self, tmp_path):
        """A version-1 checkpoint (no capacity, no energy0) loads with
        the historical capacity reconstruction."""
        sim = self._sim()
        path = save_checkpoint(sim, tmp_path / "c.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["_meta"]).decode())
        meta["version"] = 1
        del meta["energy0"]
        for sm in meta["species"]:
            del sm["capacity"]
        arrays["_meta"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
        v1_path = tmp_path / "v1.npz"
        np.savez(v1_path, **arrays)
        restored = load_checkpoint(v1_path)
        assert restored.species[0].capacity == \
            max(1024, restored.species[0].n)
        assert restored._energy0 is None
        _assert_same_state(restored, sim)

    def test_unsupported_version_rejected(self, tmp_path):
        sim = self._sim()
        path = save_checkpoint(sim, tmp_path / "c.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["_meta"]).decode())
        meta["version"] = 99
        arrays["_meta"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(bad)


class TestRestartDeterminism:
    def test_random_sort_restart_bit_identical(self, tmp_path):
        """The RANDOM sort kind draws from an rng derived from
        (seed, sorts_performed) — both persisted, so a restored run
        shuffles identically across subsequent sort events."""
        from repro.core.sorting import SortKind
        deck = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=4, uth=0.1,
                                   num_steps=20,
                                   sort_kind=SortKind.RANDOM,
                                   sort_interval=2)
        sim = deck.build()
        sim.run(3)
        assert sim.sort_step.sorts_performed > 0
        restored = load_checkpoint(save_checkpoint(sim, tmp_path / "c.npz"))
        assert restored.sort_step.sorts_performed == \
            sim.sort_step.sorts_performed
        sim.run(6)        # crosses three more sort events
        restored.run(6)
        _assert_same_state(sim, restored)

    def test_absorbing_injection_restart_bit_identical(self, tmp_path):
        """An antenna-driven absorbing deck restarts mid-pulse without
        diverging: the Mur ABC's one-step history is persisted (v2),
        and the antenna is a pure function of step_count."""
        deck = Deck(name="laser_restart", nx=32, ny=4, nz=4,
                    dx=0.5, dy=0.5, dz=0.5, num_steps=20,
                    species=(SpeciesConfig("e", -1.0, 1.0, ppc=1,
                                           uth=0.01, weight=1e-3),),
                    field_boundary=FieldBoundaryKind.ABSORBING_X)
        antenna = LaserAntenna(amplitude=0.5, omega=3.0, t_rise=1.0,
                               t_flat=2.0, plane_index=2)

        def drive(sim, steps):
            for _ in range(steps):
                sim.step()
                antenna.inject(sim.fields, sim.step_count)

        sim = deck.build()
        drive(sim, 6)
        # The test is only meaningful if the ABC recursion has state.
        assert any(np.abs(arr).max() > 0
                   for _, arr in sim.solver.mur.history_items())
        restored = load_checkpoint(save_checkpoint(sim, tmp_path / "c.npz"))
        drive(sim, 6)
        drive(restored, 6)
        _assert_same_state(sim, restored)

    def test_in_place_restore_matches_snapshot(self, tmp_path):
        sim = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=4, uth=0.1,
                                  num_steps=10).build()
        sim.run(2)
        path = save_checkpoint(sim, tmp_path / "c.npz")
        reference = load_checkpoint(path)
        sim.run(4)
        sim.fields.ex.data[1, 1, 1] = np.nan
        step = restore_state_into(sim, path)
        assert step == sim.step_count == 2
        _assert_same_state(sim, reference)

    def test_in_place_restore_rejects_mismatched_grid(self, tmp_path):
        a = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=2,
                                num_steps=5).build()
        b = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2,
                                num_steps=5).build()
        path = save_checkpoint(a, tmp_path / "a.npz")
        with pytest.raises(ValueError, match="grid"):
            restore_state_into(b, path)


class TestCheckpointRing:
    def _sim(self):
        sim = uniform_plasma_deck(nx=6, ny=6, nz=6, ppc=4, uth=0.1,
                                  num_steps=30).build()
        sim.run(1)
        return sim

    def test_push_evicts_beyond_depth(self, tmp_path):
        sim = self._sim()
        ring = CheckpointRing(depth=2, directory=tmp_path)
        for _ in range(4):
            ring.push(sim)
            sim.run(1)
        steps = [s for s, _ in ring.entries]
        assert steps == [3, 4]
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_same_step_repush_dedupes(self, tmp_path):
        sim = self._sim()
        ring = CheckpointRing(depth=3, directory=tmp_path)
        ring.push(sim)
        ring.push(sim)
        assert len(ring) == 1
        assert ring.pushes == 2

    def test_rollback_restores_newest(self, tmp_path):
        sim = self._sim()
        ring = CheckpointRing(depth=2, directory=tmp_path)
        ring.push(sim)
        reference = load_checkpoint(ring.newest()[1])
        sim.run(3)
        assert ring.rollback(sim) == reference.step_count
        _assert_same_state(sim, reference)

    def test_empty_ring_rollback_raises(self, tmp_path):
        ring = CheckpointRing(directory=tmp_path)
        with pytest.raises(LookupError):
            ring.rollback(self._sim())

    def test_temporary_directory_cleanup(self):
        sim = self._sim()
        ring = CheckpointRing(depth=1)
        ring.push(sim)
        directory = ring.directory
        assert directory.exists()
        ring.close()
        assert not directory.exists()

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            CheckpointRing(depth=0)
