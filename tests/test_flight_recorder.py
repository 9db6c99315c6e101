"""Flight recorder, live telemetry, and crash-dump tests.

Covers the observability tentpole of the flight-recorder PR: stride
and ring-buffer bounds of the time-series sampler, segment rotation
under a tiny byte budget (every retained line must still parse),
crash dumps from a guard raise and from a KeyboardInterrupt escaping
the run loop, the distributed per-rank aggregates, the watch view,
the localhost telemetry publisher, the bench-history merger, and the
satellite fixes (Histogram window/percentile, native span).
"""

import json
import os
import socket

import numpy as np
import pytest

from repro.observability.flight import (FlightRecorder, SegmentedLog,
                                        read_events, segment_paths)
from repro.observability.timeseries import (StepSample,
                                            TimeSeriesRecorder, phase_of)
from repro.observability.watch import WatchView, watch_run
from repro.vpic.workloads import uniform_plasma_deck

pytestmark = pytest.mark.record


def _build(num_steps=6, nx=6):
    deck = uniform_plasma_deck(nx=nx, ny=nx, nz=nx, ppc=4, uth=0.05,
                               num_steps=num_steps)
    return deck, deck.build()


# -- time-series sampler ------------------------------------------------------


def test_phase_folding():
    assert phase_of("step/push/electron") == "push"
    assert phase_of("step/native_push") == "native"
    assert phase_of("step/field_solve") == "field"
    assert phase_of("field/advance_b") == "field"
    assert phase_of("step/sort/electron") == "sort"
    assert phase_of("halo/exchange") == "comm"
    assert phase_of("migrate") == "comm"
    assert phase_of("guard/checks") == "guard"
    assert phase_of("something_else") == "other"


def test_recorder_samples_every_step():
    _, sim = _build(num_steps=5)
    rec = TimeSeriesRecorder(stride=1)
    rec.attach(sim)
    sim.run(5)
    assert rec.steps_seen == 5
    assert rec.samples_taken == 5
    samples = rec.samples()
    assert [s.step for s in samples] == [1, 2, 3, 4, 5]
    assert all(s.step_seconds > 0 for s in samples)
    assert all(s.particles == sim.total_particles for s in samples)
    # Phase deltas must attribute some time to the particle push.
    assert any(s.phase_ms.get("push", 0) > 0 or
               s.phase_ms.get("native", 0) > 0 for s in samples)
    # The first sample carries energy diagnostics (energy_every=10
    # fires on sample 0) with zero drift by definition.
    assert samples[0].energy is not None
    assert samples[0].energy["drift"] == 0.0
    assert rec.overhead_seconds > 0


def test_recorder_stride_and_ring_bounds():
    _, sim = _build(num_steps=12)
    rec = TimeSeriesRecorder(stride=3, capacity=2)
    rec.attach(sim)
    sim.run(12)
    assert rec.steps_seen == 12
    assert rec.samples_taken == 4          # steps 3, 6, 9, 12
    assert len(rec.buffer) == 2            # ring keeps the newest two
    assert rec.buffer.dropped == 2
    assert [s.step for s in rec.samples()] == [9, 12]
    assert rec.summary()["dropped"] == 2


def test_recorder_rejects_bad_stride():
    with pytest.raises(ValueError):
        TimeSeriesRecorder(stride=0)


def test_step_sample_event_shape():
    s = StepSample(step=3, t=123.5, step_seconds=0.01, particles=100,
                   phase_ms={"push": 5.0, "other": 0.0})
    ev = s.to_event()
    assert ev["ev"] == "step"
    assert ev["step"] == 3
    assert ev["phase_ms"] == {"push": 5.0}   # zero lanes elided
    assert "energy" not in ev


# -- segmented log ------------------------------------------------------------


def test_segmented_log_rotation_all_lines_parse(tmp_path):
    """Under a tiny byte budget the log rotates and evicts whole
    segments, and every retained line is valid JSON (no torn/partial
    lines at segment boundaries)."""
    d = str(tmp_path / "log")
    log = SegmentedLog(d, segment_bytes=256, max_segments=3)
    for i in range(200):
        log.append({"ev": "step", "step": i, "pad": "x" * 40})
    log.close()
    paths = segment_paths(d)
    assert 1 <= len(paths) <= 3
    assert log.segments_rotated > 0
    total_bytes = sum(os.path.getsize(p) for p in paths)
    # One overlong line may exceed a segment, never more.
    assert total_bytes <= 3 * 256 + 128
    steps = []
    for p in paths:
        with open(p) as f:
            for line in f:
                ev = json.loads(line)      # raises on any torn line
                steps.append(ev["step"])
    assert steps == sorted(steps)
    assert steps[-1] == 199                # newest survives eviction
    assert log.lines_written == 200


def test_segmented_log_resumes_after_newest(tmp_path):
    d = str(tmp_path / "log")
    log = SegmentedLog(d, segment_bytes=64, max_segments=8)
    for i in range(10):
        log.append({"i": i})
    log.close()
    before = segment_paths(d)
    log2 = SegmentedLog(d, segment_bytes=64, max_segments=8)
    log2.append({"i": 10})
    log2.close()
    after = segment_paths(d)
    # The resumed writer opened a fresh segment; old ones untouched.
    assert len(after) == len(before) + 1
    assert [e["i"] for e in read_events(d)] == list(range(11))


def test_read_events_skips_torn_line(tmp_path):
    d = str(tmp_path / "log")
    log = SegmentedLog(d)
    log.append({"ev": "a"})
    log.close()
    with open(segment_paths(d)[0], "a") as f:
        f.write('{"ev": "torn"')            # no newline, invalid JSON
    assert [e["ev"] for e in read_events(d)] == ["a"]


# -- flight recorder: clean run ----------------------------------------------


def test_flight_recorder_clean_run(tmp_path):
    _, sim = _build(num_steps=6)
    run_dir = str(tmp_path / "run")
    rec = FlightRecorder(run_dir, stride=1)
    rec.attach(sim)
    with rec:
        sim.run(6)
    events = read_events(run_dir)
    kinds = [e["ev"] for e in events]
    assert kinds[0] == "run_header"
    assert kinds[-1] == "run_end"
    assert kinds.count("step") == 6
    header = events[0]
    assert header["steps_planned"] == 6
    assert header["n_ranks"] == 1
    assert header["schema"] == 1
    assert header["particles"] == sim.total_particles
    # header.json mirrors the first event.
    with open(os.path.join(run_dir, "header.json")) as f:
        assert json.load(f)["steps_planned"] == 6
    end = events[-1]
    assert end["status"] == "completed"
    assert end["recorder"]["samples"] == 6
    assert not os.path.exists(rec.crash_path)


def test_flight_recorder_guard_crash_dump(tmp_path):
    """A guard raise mid-run must leave a complete crash dump: the
    guard event precedes the crash in the log, and crash.json carries
    the tail, traceback, and guard report."""
    from repro.validate.guard import SimulationGuard
    from repro.validate.policy import GuardViolationError

    _, sim = _build(num_steps=10)
    guard = SimulationGuard(policy="raise", checkpoint_interval=2)
    guard.attach(sim)
    run_dir = str(tmp_path / "run")
    rec = FlightRecorder(run_dir, stride=1)
    rec.attach(sim)

    class Poison:
        calls = 0

        def record(self, s):
            Poison.calls += 1
            if Poison.calls == 4:
                s.fields.ey.data[1, 1, 1] = np.nan

    with pytest.raises(GuardViolationError):
        sim.run(10, diagnostic=Poison())

    events = read_events(run_dir)
    kinds = [e["ev"] for e in events]
    assert "guard" in kinds and "crash" in kinds
    assert kinds.index("guard") < kinds.index("crash")
    assert kinds[-1] == "run_end"
    assert events[-1]["status"] == "crashed"
    guard_ev = events[kinds.index("guard")]
    assert guard_ev["action"] == "raise"
    # Auto-checkpoints streamed too (interval=2 over several steps).
    assert "checkpoint" in kinds

    with open(rec.crash_path) as f:
        dump = json.load(f)
    assert dump["type"] == "GuardViolationError"
    assert dump["step"] == sim.step_count
    assert dump["tail"], "in-memory sample tail must be dumped"
    assert dump["tail"][-1]["step"] == sim.step_count
    assert any("GuardViolationError" in ln for ln in dump["traceback"])
    assert dump["guard_report"]["events"][0]["action"] == "raise"
    assert dump["header"]["steps_planned"] == 10
    assert "metrics" in dump


def test_flight_recorder_keyboard_interrupt(tmp_path):
    """BaseException (Ctrl-C) escaping the run loop still dumps."""
    _, sim = _build(num_steps=10)
    run_dir = str(tmp_path / "run")
    rec = FlightRecorder(run_dir, stride=1)
    rec.attach(sim)

    class Interrupt:
        def record(self, s):
            if s.step_count == 3:
                raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        sim.run(10, diagnostic=Interrupt())
    events = read_events(run_dir)
    crash = [e for e in events if e["ev"] == "crash"]
    assert crash and crash[0]["type"] == "KeyboardInterrupt"
    with open(rec.crash_path) as f:
        dump = json.load(f)
    assert dump["type"] == "KeyboardInterrupt"
    assert dump["tail"]


def test_flight_recorder_crash_idempotent(tmp_path):
    _, sim = _build(num_steps=4)
    run_dir = str(tmp_path / "run")
    rec = FlightRecorder(run_dir)
    rec.attach(sim)
    rec.on_run_start(sim, 4)
    exc = RuntimeError("boom")
    rec.on_crash(sim, exc)
    rec.on_crash(sim, RuntimeError("second"))   # nested driver: no-op
    events = read_events(run_dir)
    assert [e["ev"] for e in events].count("crash") == 1
    assert events[[e["ev"] for e in events].index("crash")][
        "error"] == "boom"


# -- distributed --------------------------------------------------------------


def test_flight_recorder_distributed_rank_aggregates(tmp_path):
    from repro.mpi.distributed import DistributedSimulation

    deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2, uth=0.05,
                               num_steps=3)
    dsim = DistributedSimulation(deck, n_ranks=4)
    run_dir = str(tmp_path / "run")
    rec = FlightRecorder(run_dir, stride=1)
    rec.attach(dsim)
    try:
        with rec:
            dsim.run(3)
    finally:
        dsim.close()
    events = read_events(run_dir)
    header = events[0]
    assert header["n_ranks"] == 4
    steps = [e for e in events if e["ev"] == "step"]
    assert len(steps) == 3
    for ev in steps:
        ranks = ev["ranks"]
        assert ranks["n_ranks"] == 4
        assert len(ranks["particles"]) == 4
        assert sum(ranks["particles"]) == ev["particles"]
        assert ranks["load_imbalance"] >= 0


# -- live follow + watch ------------------------------------------------------


def test_follow_events_reads_completed_run(tmp_path):
    _, sim = _build(num_steps=4)
    run_dir = str(tmp_path / "run")
    with FlightRecorder(run_dir, stride=1) as rec:
        rec.attach(sim)
        sim.run(4)
    from repro.observability.live import follow_events
    events = list(follow_events(run_dir, timeout=0, poll=0.0))
    kinds = [e["ev"] for e in events]
    assert kinds[0] == "run_header"
    assert kinds[-1] == "run_end"
    assert kinds.count("step") == 4


def test_watch_view_render_and_eta():
    view = WatchView()
    view.feed({"ev": "run_header", "deck": "uniform_plasma",
               "particles": 1000, "stride": 1, "step_start": 0,
               "steps_planned": 10, "n_ranks": 1, "guarded": True})
    for i in range(1, 6):
        view.feed({"ev": "step", "step": i, "t": 100.0 + i * 0.5,
                   "step_seconds": 0.5, "particles": 1000,
                   "phase_ms": {"push": 4.0, "field": 1.0},
                   "energy": {"drift": 1e-4}})
    assert view.current_step == 5
    assert view.target_step == 10
    assert view.steps_per_second() == pytest.approx(2.0)
    assert view.eta_seconds() == pytest.approx(2.5)
    assert view.guard_status() == "ok"
    out = view.render()
    assert "5/10" in out
    assert "push 80%" in out
    assert "energy drift" in out
    view.feed({"ev": "crash", "step": 5, "type": "RuntimeError",
               "error": "boom"})
    assert view.guard_status() == "CRASHED"
    assert "CRASH at step 5" in view.render()


def test_watch_once_cli(tmp_path, capsys):
    _, sim = _build(num_steps=3)
    run_dir = str(tmp_path / "run")
    with FlightRecorder(run_dir, stride=1) as rec:
        rec.attach(sim)
        sim.run(3)
    import io
    buf = io.StringIO()
    rc = watch_run(run_dir, once=True, stream=buf)
    assert rc == 0
    assert "3/3" in buf.getvalue()
    from repro.cli import main
    assert main(["watch", run_dir, "--once"]) == 0
    assert "run ended" in capsys.readouterr().out


def test_telemetry_publisher_jsonl_roundtrip():
    from repro.observability.live import TelemetryPublisher
    try:
        pub = TelemetryPublisher(mode="jsonl")
    except OSError:
        pytest.skip("cannot bind localhost socket in this sandbox")
    try:
        client = socket.create_connection(("127.0.0.1", pub.port),
                                          timeout=2.0)
        # Wait for the accept thread to register the subscriber.
        for _ in range(100):
            if pub.subscribers:
                break
            import time
            time.sleep(0.01)
        assert pub.subscribers == 1
        pub.publish('{"ev":"step","step":1}')
        client.settimeout(2.0)
        data = client.recv(4096)
        assert json.loads(data.decode().splitlines()[0])["step"] == 1
        client.close()
    finally:
        pub.close()
    with pytest.raises(ValueError):
        TelemetryPublisher(mode="bogus")


# -- CLI: run-deck --record ---------------------------------------------------


def test_run_deck_record_cli(tmp_path, capsys):
    from repro.cli import main
    run_dir = str(tmp_path / "flight")
    rc = main(["run-deck", "uniform", "--steps", "4", "--record",
               "--record-dir", run_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flight log" in out
    events = read_events(run_dir)
    kinds = [e["ev"] for e in events]
    assert kinds[0] == "run_header"
    assert kinds.count("step") == 4
    assert kinds[-1] == "run_end"


def test_run_deck_record_guard_crash_cli(tmp_path, capsys, monkeypatch):
    """A guard trip under --record leaves a crash dump on disk and the
    CLI reports where it is."""
    from repro import cli as cli_mod
    from repro.cli import main

    real_factory = cli_mod._deck_factory

    def poisoned(name, steps, seed):
        deck = real_factory(name, steps, seed)
        import dataclasses

        def poison(sim):
            sim.fields.ey.data[1, 1, 1] = np.inf
        return dataclasses.replace(deck, field_init=poison)

    monkeypatch.setattr(cli_mod, "_deck_factory", poisoned)
    run_dir = str(tmp_path / "flight")
    rc = main(["run-deck", "uniform", "--steps", "6", "--guard",
               "--record", "--record-dir", run_dir])
    assert rc == 1
    out = capsys.readouterr().out
    assert "guard violation" in out
    assert "crash dump" in out
    with open(os.path.join(run_dir, "crash.json")) as f:
        dump = json.load(f)
    assert dump["type"] == "GuardViolationError"
    events = read_events(run_dir)
    assert [e["ev"] for e in events][-1] == "run_end"


# -- bench history ------------------------------------------------------------


def _stat(value):
    return {"n": 1, "median": value, "min": value, "max": value,
            "q1": value, "q3": value}


def _write_envelope(out_dir, name, time, smoke=False, push_s=0.5):
    """A ``perfbench/1`` envelope shaped like ``perfbench/run.py``'s:
    ``observed`` runs uniform on the native-step lane, ``sources-lane``
    runs wakefield kernel by kernel, ``ranks-procs`` runs uniform with
    no single-``Simulation`` step spans."""
    def workload(command, rate, layers):
        return {"command": ["run-deck", *command],
                "end_to_end": {"mpart_steps_per_s": _stat(rate)},
                "per_layer": {k: _stat(v) for k, v in layers.items()}}
    (out_dir / name).write_text(json.dumps({
        "schema": "perfbench/1", "host": "vm", "nproc": 2,
        "git_head": "0123456789abcdef0123", "seed": 0, "smoke": smoke,
        "time": time,
        "workloads": {
            "ranks-procs": workload(
                ["uniform", "--steps", "50", "--ranks", "2"], 0.2,
                {"sim.steps": 0.0, "mpi.push_s": 0.1}),
            "observed": workload(
                ["uniform", "--steps", "100", "--guard", "raise"], 19.0,
                {"sim.steps": 100.0, "native.c_field_s": 0.02,
                 "native.c_push_s": push_s, "native.c_sort_s": 0.01}),
            "sources-lane": workload(
                ["wakefield", "--steps", "10"], 17.6,
                {"sim.steps": 10.0, "fields.solve_s": 0.04,
                 "push.fused_s": 0.3, "sort.apply_s": 0.0}),
        }}))


def test_bench_history_merge(tmp_path):
    from repro.bench.history import (format_history, history_rows,
                                     phase_baseline)
    out = str(tmp_path)
    assert history_rows(out) == []
    assert "python3 perfbench/run.py" in format_history(out)
    assert phase_baseline("uniform_plasma", out) is None

    _write_envelope(tmp_path, "perfbench-old-seed0.json",
                    "2026-01-01T00:00:00+0000", push_s=0.5)
    _write_envelope(tmp_path, "perfbench-new-seed0.json",
                    "2026-02-01T00:00:00+0000", push_s=0.4)
    _write_envelope(tmp_path, "perfbench-smoke-seed0.json",
                    "2026-03-01T00:00:00+0000", smoke=True, push_s=9.0)
    # Outside input: neither may stop the reader or show up as a row.
    (tmp_path / "perfbench-torn-seed0.json").write_text("not json at all")
    (tmp_path / "perfbench-other-seed0.json").write_text(json.dumps(
        {"schema": "somebench/2", "time": "2026-04-01T00:00:00+0000",
         "workloads": {}}))

    rows = history_rows(out)
    assert [r["file"] for r in rows] == [
        "perfbench-smoke-seed0.json", "perfbench-new-seed0.json",
        "perfbench-old-seed0.json"]                      # newest first
    assert [r["smoke"] for r in rows] == [True, False, False]
    assert rows[1]["git_head"] == "0123456789ab"
    assert rows[1]["mpart_steps_per_s"]["observed"] == 19.0
    table = format_history(out)
    assert "perfbench-old-seed0.json" in table and "vm/2" in table
    assert table.splitlines()[0].endswith("smoke")
    assert "Mpart-steps/s: ranks-procs 0.2  observed 19" in table

    # The smoke envelope is newest but measures nothing: never a
    # baseline. ranks-procs also runs uniform but has no sim.steps.
    base = phase_baseline("uniform_plasma", out)
    assert base["source"] == "perfbench-new-seed0.json · observed"
    assert base["seconds_per_step"] == pytest.approx(
        {"field": 0.0002, "push": 0.004, "sort": 0.0001})
    # Deck.name, not the CLI key, selects the workload.
    wake = phase_baseline("laser_wakefield", out)
    assert wake["source"].endswith("· sources-lane")
    assert wake["seconds_per_step"]["push"] == pytest.approx(0.03)
    assert phase_baseline("harris_sheet", out) is None


def test_bench_history_against_real_repo():
    """Whatever ``perfbench/out/`` of this checkout holds (nothing, in
    a fresh clone) must read without error."""
    from repro.bench.history import (default_dir, format_history,
                                     history_rows, phase_baseline)
    assert default_dir().endswith(os.path.join("perfbench", "out"))
    rows = history_rows()
    for row in rows:
        assert row["file"].startswith("perfbench-")
        assert row["mpart_steps_per_s"]
        assert all(v >= 0 for v in row["mpart_steps_per_s"].values())
    assert ("python3 perfbench/run.py" in format_history()) == (not rows)
    base = phase_baseline("uniform_plasma")
    if base is not None:
        assert base["seconds_per_step"]["push"] > 0


def test_baseline_deltas_carry_sources(tmp_path):
    from repro.bench.history import phase_baseline
    from repro.observability.dashboard import baseline_deltas
    _write_envelope(tmp_path, "perfbench-abc-seed0.json",
                    "2026-02-01T00:00:00+0000", push_s=0.4)
    baseline = phase_baseline("uniform_plasma", str(tmp_path))
    # Two species' push kernels fold into one phase; the native span
    # nests inside them and halo time has no baseline: neither counts.
    deltas = baseline_deltas(
        {"push/electron": 0.02, "push/ion": 0.004, "native_push": 0.02,
         "field/advance_b": 0.0005, "field/advance_e": 0.0005,
         "halo/wait": 1.0}, 5, baseline)
    by_name = {d["name"]: d for d in deltas}
    assert set(by_name) == {"field", "push"}         # nothing sorted
    assert by_name["push"]["baseline_ms_per_step"] == pytest.approx(4.0)
    assert by_name["push"]["current_ms_per_step"] == pytest.approx(4.8)
    assert by_name["push"]["delta_fraction"] == pytest.approx(0.2)
    assert by_name["field"]["delta_fraction"] == pytest.approx(0.0)
    assert all(d["source"] == "perfbench-abc-seed0.json · observed"
               for d in deltas)


def test_dashboard_regression_panel_reads_envelopes(tmp_path, monkeypatch):
    from repro.bench import history
    from repro.observability.dashboard import (profile_deck,
                                               render_dashboard)
    monkeypatch.setattr(history, "default_dir", lambda: str(tmp_path))
    deck = uniform_plasma_deck(nx=8, ny=8, nz=8, ppc=2, num_steps=2)
    bundle = profile_deck(deck, n_ranks=2)
    assert bundle.deltas == []
    assert "python3 perfbench/run.py" in bundle.baseline_note
    assert "perfbench/run.py" in render_dashboard(bundle)

    _write_envelope(tmp_path, "perfbench-abc-seed0.json",
                    "2026-02-01T00:00:00+0000")
    bundle = profile_deck(deck, n_ranks=2)
    assert {d["name"] for d in bundle.deltas} >= {"push", "field"}
    page = render_dashboard(bundle)
    assert "Regression vs perfbench baseline" in page
    assert "perfbench-abc-seed0.json · observed" in page


def test_bench_history_cli(capsys, tmp_path, monkeypatch):
    from repro.bench import history
    from repro.cli import main
    monkeypatch.setattr(history, "default_dir", lambda: str(tmp_path))
    assert main(["bench", "history"]) == 0
    assert "python3 perfbench/run.py" in capsys.readouterr().out
    assert main(["bench", "history", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []

    _write_envelope(tmp_path, "perfbench-abc-seed0.json",
                    "2026-02-01T00:00:00+0000")
    assert main(["bench", "history"]) == 0
    out = capsys.readouterr().out
    assert "perfbench-abc-seed0.json" in out and "observed 19" in out
    assert main(["bench", "history", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        history.history_rows(str(tmp_path))


# -- satellite: histogram fixes ----------------------------------------------


def test_histogram_window_full_and_percentile_validation():
    from repro.observability.metrics import Histogram
    h = Histogram("t", window=4)
    assert h.window_full is False
    assert h.percentile(50) == 0.0          # empty window: 0.0, no raise
    assert h.snapshot()["window_full"] is False
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.window_full is False
    h.observe(5.0)
    assert h.window_full is True
    snap = h.snapshot()
    assert snap["window_full"] is True
    assert "note" in snap
    assert h.min == 1.0                     # totals still cover all
    assert h.percentile(0) == 2.0           # window dropped the 1.0
    assert h.percentile(100) == 5.0
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


# -- satellite: native span ---------------------------------------------------


def test_native_push_records_span_and_histogram():
    from repro.kokkos.profiling import (kernel_timings, profiling_session)
    from repro.observability.metrics import default_registry
    from repro.vpic.native import native_available

    if not native_available():
        pytest.skip("no native lane in this environment")
    hist = default_registry().histogram("native/step_seconds")
    before = hist.count
    with profiling_session():
        _, sim = _build(num_steps=3, nx=8)
        sim.run(3)
        timers = dict(kernel_timings())
    native = [k for k in timers if "native_push" in k]
    assert native, f"no native_push span in {sorted(timers)}"
    assert timers[native[0]].launches >= 3
    assert hist.count > before
