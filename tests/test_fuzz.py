"""The deck fuzzer: generator validity, runner oracle, minimizer,
corpus round-trip, and the lane bit-identity audit on the degenerate
shapes the fuzzer likes to produce."""

import numpy as np
import pytest

from repro.core.sorting import SortKind
from repro.core.tuning import StepPlan
from repro.fuzz import (CorpusEntry, DeckGenerator, failure_key,
                        load_corpus, minimize, random_deck,
                        replay_entry, run_deck, save_entry)
from repro.vpic.deck import Deck, DepositionKind, SpeciesConfig
from repro.vpic.boundary import BoundaryKind

pytestmark = pytest.mark.fuzz


class TestGenerator:
    def test_deterministic(self):
        a = random_deck(7, 3)
        b = random_deck(7, 3)
        assert a == b

    def test_seed_and_index_both_matter(self):
        assert random_deck(0, 1) != random_deck(0, 2)
        assert random_deck(0, 1) != random_deck(1, 1)

    def test_all_decks_valid_and_pure_data(self):
        # The generator's contract: every deck passes construction
        # validation AND is serializable (no callables/sources), so
        # any failure it finds can live in the corpus.
        for _, deck in DeckGenerator(seed=11).decks(60):
            assert deck.total_particles > 0
            Deck.from_dict(deck.to_dict())   # must not raise

    def test_json_round_trip_is_exact(self):
        # Property test over the generator's output space: decks are
        # plain data, so JSON round-trips must be identity.
        for _, deck in DeckGenerator(seed=5).decks(60):
            clone = Deck.from_json(deck.to_json())
            assert clone == deck
            assert clone.to_json() == deck.to_json()

    def test_covers_the_awkward_corners(self):
        decks = [d for _, d in DeckGenerator(seed=0).decks(120)]
        assert any(1 in (d.nx, d.ny, d.nz) for d in decks), \
            "no degenerate axes sampled"
        assert any(d.nx == d.ny == 1 or d.ny == d.nz == 1
                   or d.nx == d.nz == 1 for d in decks), \
            "no quasi-1D bars sampled"
        assert any(d.deposition is DepositionKind.ESIRKEPOV
                   for d in decks)
        assert any(d.boundary is BoundaryKind.REFLECTING for d in decks)
        assert any(any(s.ppc == 1 for s in d.species) for d in decks), \
            "no 1-particle-per-cell species sampled"
        assert any(d.dt > 0 for d in decks), "no explicit dt sampled"

    def test_never_emits_invalid_sort_plans(self):
        # Regression: tiled-strided + tile_size=0 used to pass deck
        # construction and explode inside the first sort.
        for _, deck in DeckGenerator(seed=2).decks(120):
            if deck.sort_kind is SortKind.TILED_STRIDED \
                    and deck.sort_interval > 0:
                assert deck.sort_tile_size > 0


class TestDeckValidation:
    def test_tiled_strided_needs_tile_size(self):
        # The fuzzer's first finding, pinned forever.
        with pytest.raises(ValueError, match="tiled-strided"):
            Deck(name="t", nx=4, ny=4, nz=4,
                 sort_kind=SortKind.TILED_STRIDED, sort_tile_size=0)

    def test_tiled_strided_ok_when_sorting_disabled(self):
        Deck(name="t", nx=4, ny=4, nz=4,
             sort_kind=SortKind.TILED_STRIDED, sort_tile_size=0,
             sort_interval=0)


def _tiny_deck(**kw):
    args = dict(name="tiny", nx=4, ny=4, nz=4, num_steps=12,
                species=(SpeciesConfig(name="e", q=-1.0, m=1.0,
                                       ppc=2, uth=0.05),))
    args.update(kw)
    return Deck(**args)


class TestRunner:
    def test_ok_deck(self):
        result = run_deck(_tiny_deck())
        assert result.status == "ok"
        assert result.steps_run == 12
        assert not result.failed
        assert result.lane == "native-step"
        assert failure_key(result) == ("ok",)

    def test_lane_recorded_for_demoted_decks(self):
        # Reflecting particle walls demote the fused/native lanes
        # (and bounce particles elastically, so the guard stays green).
        result = run_deck(_tiny_deck(boundary=BoundaryKind.REFLECTING))
        assert result.status == "ok"
        assert result.lane != "native-step"

    def test_result_serializes(self):
        d = run_deck(_tiny_deck()).to_dict()
        assert d["status"] == "ok"
        assert d["deck"]["nx"] == 4


class TestMinimizerOracle:
    """The end-to-end promise: seed a continuity bug, let the fuzzer
    find it and the minimizer shrink it to a trivial reproducer."""

    @pytest.fixture
    def seeded_continuity_bug(self, monkeypatch):
        # A 20% systematic error in the deposited current. The
        # continuity metric is relative to the *per-step* charge
        # motion (res = drho/dt + div J, reported as
        # max|res| dt / max|rho|), so a q-scaling bug shows up as
        # scale x (drho/rho per step) — 20% of a few-percent
        # redistribution clears the 1e-3 floor on ordinary thermal
        # decks within one check cadence.
        import repro.vpic.simulation as simulation
        from repro.vpic import native
        real = simulation.deposit_current_esirkepov

        def buggy(fields, x0, y0, z0, x1, y1, z1, w, q, dt, **kw):
            real(fields, x0, y0, z0, x1, y1, z1, w, q * 1.2, dt, **kw)

        monkeypatch.setattr(simulation,
                            "deposit_current_esirkepov", buggy)
        # The bug is seeded in the numpy kernel, so keep periodic
        # Esirkepov decks on it (no native Esirkepov kernel).
        monkeypatch.setattr(native, "native_push_kernel", lambda: None)

    def test_fuzzer_finds_and_minimizer_shrinks(
            self, seeded_continuity_bug):
        # Hunt with the real generator until the continuity oracle
        # trips (Esirkepov + periodic decks are common, so this is
        # quick), then shrink.
        found = None
        for _, deck in DeckGenerator(seed=1).decks(40):
            result = run_deck(deck)
            if result.status == "guard" and result.check == "continuity":
                found = result
                break
        assert found is not None, \
            "fuzzer never generated a deck exposing the seeded bug"
        report = minimize(found, max_runs=150)
        d = report.minimized
        assert failure_key(report.result) == ("guard", "continuity")
        assert d["nx"] * d["ny"] * d["nz"] <= 8 ** 3
        assert len(d["species"]) == 1
        # the shrink must be real, not a no-op
        f = found.deck
        assert (d["nx"] * d["ny"] * d["nz"] * d["num_steps"]
                < f["nx"] * f["ny"] * f["nz"] * f["num_steps"])

    def test_minimize_rejects_passing_result(self):
        with pytest.raises(ValueError, match="failing"):
            minimize(run_deck(_tiny_deck()))


class TestCorpus:
    def test_save_load_replay_pass_entry(self, tmp_path):
        deck = _tiny_deck(num_steps=6)
        entry = CorpusEntry(deck=deck.to_dict(), expect="pass",
                            note="smoke")
        path = save_entry(entry, str(tmp_path))
        entries = load_corpus(str(tmp_path))
        assert [e.path for e in entries] == [path]
        ok, result = replay_entry(entries[0])
        assert ok and result.status == "ok"

    def test_replay_invalid_entry(self, tmp_path):
        bad = _tiny_deck().to_dict()
        bad["sort_kind"] = "tiled-strided"
        bad["sort_tile_size"] = 0
        save_entry(CorpusEntry(deck=bad, expect="invalid",
                               note="construction must reject"),
                   str(tmp_path))
        ok, result = replay_entry(load_corpus(str(tmp_path))[0])
        assert ok and result is None

    def test_guard_expectation_checks_the_check(self, tmp_path):
        deck = _tiny_deck(num_steps=6)
        entry = CorpusEntry(deck=deck.to_dict(), expect="guard:energy_drift")
        ok, result = replay_entry(entry)
        assert not ok          # deck passes; expectation says it must trip
        assert result.status == "ok"

    def test_bad_expect_rejected(self):
        with pytest.raises(ValueError, match="expect"):
            CorpusEntry(deck={}, expect="whatever")

    def test_empty_corpus_dir(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []


class TestSweepScript:
    def test_smoke_sweep_passes(self):
        # The CI entry point: a tiny deterministic slice must run
        # clean (guard findings tolerated, error-class failures and
        # corpus mismatches are fatal).
        import pathlib
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "fuzz_sweep.py"),
             "--runs", "6", "--seed", "0"],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "corpus:" in proc.stdout


@pytest.mark.native
class TestDegenerateLaneIdentity:
    """Satellite audit: the numpy / push-native / whole-step-native
    lanes must stay bit-identical on the degenerate shapes the fuzzer
    generates (slabs, bars, single cells, 1-particle species)."""

    DECKS = (
        ("slab-z", dict(nx=8, ny=8, nz=1)),
        ("slab-y", dict(nx=8, ny=1, nz=8)),
        ("bar-x", dict(nx=32, ny=1, nz=1)),
        ("one-cell", dict(nx=1, ny=1, nz=1)),
    )

    @staticmethod
    def _state(sim):
        f = sim.fields
        fields = {n: getattr(f, n).data.copy() for n in
                  ("ex", "ey", "ez", "bx", "by", "bz",
                   "jx", "jy", "jz")}
        sp = sim.species[0]
        parts = {a: getattr(sp, a)[:sp.n].copy()
                 for a in ("x", "y", "z", "ux", "uy", "uz")}
        return fields, parts

    @pytest.mark.parametrize("name,shape",
                             DECKS, ids=[n for n, _ in DECKS])
    def test_lanes_bit_identical(self, name, shape):
        self._check_lanes(name, shape, DepositionKind.CIC)

    @pytest.mark.parametrize("name,shape",
                             DECKS, ids=[n for n, _ in DECKS])
    def test_esirkepov_kernel_on_off_bit_identical(self, name, shape):
        # Same audit on the charge-conserving decks: "numpy" is the
        # kernel-by-kernel oracle (native Esirkepov kernel off), the
        # other two plans both hand the push to the kernel. Thin axes
        # put every stencil on the one-past-the-ghost node wrap.
        sim = self._check_lanes(name, shape, DepositionKind.ESIRKEPOV)
        assert "native Esirkepov kernel" in sim.native_fallback_reason()

    def _check_lanes(self, name, shape, deposition):
        deck = Deck(name=name, num_steps=10, seed=3, **shape,
                    deposition=deposition,
                    species=(SpeciesConfig(
                        name="e", q=-1.0, m=1.0, ppc=4, uth=0.02,
                        drift=(0.2, 0.0, 0.0)),))
        lanes = {"numpy": StepPlan.NUMPY,
                 "push": StepPlan.NATIVE_PUSH,
                 "native": StepPlan.NATIVE_STEP}
        states = {}
        for lane, plan in lanes.items():
            sim = deck.build()
            sim.step_plan = plan
            for _ in range(deck.num_steps):
                sim.step()
            states[lane] = self._state(sim)
        rf, rp = states["numpy"]
        for lane in ("push", "native"):
            f, p = states[lane]
            for comp in rf:
                assert np.array_equal(rf[comp], f[comp]), \
                    f"{name}: field {comp} differs numpy vs {lane}"
            for attr in rp:
                assert np.array_equal(rp[attr], p[attr]), \
                    f"{name}: particle {attr} differs numpy vs {lane}"
        return sim

    def test_one_particle_species_on_edge(self):
        # A single cold drifting particle exercises the box-edge
        # wrap artifact (float32 x + L == x_hi) within a few steps.
        deck = Deck(name="one-particle", nx=4, ny=4, nz=4,
                    num_steps=20, seed=7,
                    species=(SpeciesConfig(
                        name="e", q=-1.0, m=1.0, ppc=1, uth=0.0,
                        drift=(0.3, 0.1, 0.0)),))
        sims = []
        for plan in (StepPlan.NUMPY, StepPlan.NATIVE_STEP):
            sim = deck.build()
            sim.step_plan = plan
            for _ in range(deck.num_steps):
                sim.step()
            sims.append(sim)
        a, b = sims
        assert np.array_equal(a.fields.ex.data, b.fields.ex.data)
        sa, sb = a.species[0], b.species[0]
        assert np.array_equal(sa.x[:sa.n], sb.x[:sb.n])
