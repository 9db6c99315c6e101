"""Flight recorder: streamed JSONL run telemetry + crash dumps.

An aircraft flight recorder keeps a bounded, always-current record of
what the system was doing, survives the crash, and can be followed
live. :class:`FlightRecorder` is that for a simulation run:

- every sampled step (via an owned
  :class:`~repro.observability.timeseries.TimeSeriesRecorder`) is
  appended as one JSONL line to a **segment-rotated** on-disk log —
  bounded bytes, whole lines only, tailable by ``repro watch`` or
  plain ``tail -f``;
- guard decisions, auto-checkpoints, and rollbacks stream into the
  same log as they happen (the recorder subscribes to the guard's
  report);
- when the physics guard raises or any exception escapes the run
  loop, the full in-memory sample tail, the guard report, and the
  metrics snapshot are dumped to ``crash.json`` — the in-flight
  picture the post-hoc exports lose;
- each line can optionally be mirrored to a localhost socket/SSE
  publisher (:mod:`repro.observability.live`) for remote followers.

Run-directory layout::

    <run-dir>/header.json        # run metadata (also first log event)
    <run-dir>/flight-00000.jsonl # oldest retained segment
    <run-dir>/flight-00001.jsonl # ... newest (active) segment
    <run-dir>/crash.json         # only after a crash

Every event carries ``ev`` (type) and ``t`` (unix seconds). Types:
``run_header``, ``step``, ``guard``, ``checkpoint``, ``crash``,
``run_end``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback

from repro.observability.timeseries import StepSample, TimeSeriesRecorder

__all__ = ["SegmentedLog", "FlightRecorder", "SEGMENT_PREFIX",
           "segment_paths", "read_events"]

#: Flight-log segment filename prefix (``flight-00000.jsonl`` ...).
SEGMENT_PREFIX = "flight-"

#: Flight-log schema version, stamped into every run header.
SCHEMA_VERSION = 1


def segment_paths(directory: str) -> list[str]:
    """Retained segment files of *directory*, oldest first."""
    try:
        names = sorted(n for n in os.listdir(directory)
                       if n.startswith(SEGMENT_PREFIX)
                       and n.endswith(".jsonl"))
    except FileNotFoundError:
        return []
    return [os.path.join(directory, n) for n in names]


def read_events(directory: str) -> list[dict]:
    """All retained flight-log events of a run dir, oldest first.

    Lines are written atomically (one ``write`` + flush per event,
    rotation only between lines), so every retained line parses; a
    torn final line from a live writer on a non-atomic filesystem is
    skipped rather than raised on.
    """
    events = []
    for path in segment_paths(directory):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    return events


class SegmentedLog:
    """Append-only JSONL log rotated across bounded segments.

    ``segment_bytes`` bounds each segment; ``max_segments`` bounds
    the set, oldest segments are deleted first — total disk use stays
    under ``segment_bytes * max_segments`` (plus at most one
    overlong line, which is always written whole: a line is never
    split across segments).
    """

    def __init__(self, directory: str, segment_bytes: int = 1 << 20,
                 max_segments: int = 8):
        if segment_bytes <= 0:
            raise ValueError(
                f"segment_bytes must be positive, got {segment_bytes}")
        if max_segments <= 0:
            raise ValueError(
                f"max_segments must be positive, got {max_segments}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.max_segments = max_segments
        self.lines_written = 0
        self.bytes_written = 0
        self.segments_rotated = 0
        os.makedirs(directory, exist_ok=True)
        # Resume after the newest existing segment, never inside one.
        existing = segment_paths(directory)
        self._index = len(existing)
        if existing:
            last = existing[-1]
            base = os.path.basename(last)[len(SEGMENT_PREFIX):-len(".jsonl")]
            try:
                self._index = int(base) + 1
            except ValueError:
                pass
        self._file = None
        self._size = 0

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory,
                            f"{SEGMENT_PREFIX}{index:05d}.jsonl")

    def _open_segment(self) -> None:
        self._file = open(self._segment_path(self._index), "a")
        self._size = self._file.tell()

    def _rotate(self) -> None:
        if self._file is not None:
            self._file.close()
        self._index += 1
        self.segments_rotated += 1
        self._open_segment()
        for stale in segment_paths(self.directory)[:-self.max_segments]:
            try:
                os.unlink(stale)
            except OSError:
                pass

    def append(self, event: dict) -> None:
        """Write one event as a whole JSONL line (never split)."""
        line = json.dumps(event, separators=(",", ":"),
                          default=_json_default) + "\n"
        if self._file is None:
            self._open_segment()
        if self._size > 0 and self._size + len(line) > self.segment_bytes:
            self._rotate()
        self._file.write(line)
        self._file.flush()
        self._size += len(line)
        self.lines_written += 1
        self.bytes_written += len(line)

    def paths(self) -> list[str]:
        return segment_paths(self.directory)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def _json_default(obj):
    """Serialize numpy scalars and other oddballs defensively."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


class FlightRecorder:
    """Streams a run's telemetry to disk and dumps the tail on crash.

    Implements the recorder protocol the step loops call
    (``on_run_start`` / ``on_step`` / ``on_crash``); attach with
    :meth:`attach` and close with :meth:`close` (or use it as a
    context manager, which closes with the right status).

    Parameters
    ----------
    run_dir:
        Output directory (created if missing).
    stride / capacity / energy_every:
        Forwarded to the owned :class:`TimeSeriesRecorder`.
    segment_bytes / max_segments:
        Flight-log rotation bounds (see :class:`SegmentedLog`).
    meta:
        Extra run-header fields (deck name, CLI flags, ...).
    publisher:
        Optional live channel with a ``publish(line)`` method
        (:class:`~repro.observability.live.TelemetryPublisher`);
        every JSONL line is mirrored to it after the disk append.
    """

    def __init__(self, run_dir: str, stride: int = 1,
                 capacity: int = 4096, energy_every: int = 10,
                 segment_bytes: int = 1 << 20, max_segments: int = 8,
                 meta: dict | None = None, publisher=None):
        self.run_dir = run_dir
        self.meta = dict(meta or {})
        self.publisher = publisher
        self.log = SegmentedLog(run_dir, segment_bytes=segment_bytes,
                                max_segments=max_segments)
        self.recorder = TimeSeriesRecorder(stride=stride,
                                           capacity=capacity,
                                           energy_every=energy_every)
        self.recorder.listeners.append(self._on_sample)
        self.header: dict | None = None
        self.crashed: dict | None = None
        self._started = time.perf_counter()
        self._closed = False

    # -- attachment ---------------------------------------------------------

    def attach(self, sim):
        """Bind to *sim*'s step loop; also subscribes to its guard."""
        sim.recorder = self
        if getattr(sim, "guard", None) is not None:
            self.observe_guard(sim.guard)
        return sim

    def observe_guard(self, guard) -> None:
        """Stream *guard*'s decisions and checkpoints into the log."""
        report = getattr(guard, "report", None)
        if report is not None and \
                self._on_guard_event not in report.listeners:
            report.listeners.append(self._on_guard_event)
        if hasattr(guard, "on_checkpoint"):
            guard.on_checkpoint = self._on_checkpoint

    # -- recorder protocol (called by the step loops) -----------------------

    def on_run_start(self, sim, num_steps: int) -> None:
        if self.header is not None:       # resumed run: one header only
            return
        distributed = hasattr(sim, "ranks")
        grid = sim.ranks[0].grid if distributed else sim.grid
        header = {
            "ev": "run_header", "t": time.time(),
            "schema": SCHEMA_VERSION,
            "pid": os.getpid(),
            "step_start": sim.step_count,
            "steps_planned": num_steps,
            "particles": (sim.total_particles() if distributed
                          else sim.total_particles),
            "grid": [grid.nx, grid.ny, grid.nz],
            "n_ranks": len(sim.ranks) if distributed else 1,
            "stride": self.recorder.stride,
            "guarded": getattr(sim, "guard", None) is not None,
        }
        # Which lane will the run measure? A silent demotion off the
        # whole-step native lane is the classic way to profile the
        # wrong code, so the header records the lane and the reason
        # (satellite of ISSUE 8) alongside the build status string.
        reason_fn = getattr(sim, "native_fallback_reason", None)
        if callable(reason_fn):
            reason = reason_fn()
            header["native_lane"] = ("step" if reason is None
                                     else "fallback")
            if reason is not None:
                header["native_fallback"] = reason
            try:
                from repro.vpic.native import native_status, step_team_size
                header["native_status"] = native_status()
                if reason is None:
                    header["native_threads"] = step_team_size(sim)
            except Exception:
                pass
        # Distributed runs: aggregate the per-rank lanes so one
        # silently demoted rank (native build failed in its worker,
        # plan gate tripped) is visible in the header instead of
        # hiding behind the majority.
        lanes_fn = getattr(sim, "rank_lanes", None)
        if callable(lanes_fn):
            agg: dict = {}
            for lane, why in lanes_fn():
                row = agg.setdefault(lane, {"lane": lane, "ranks": 0})
                row["ranks"] += 1
                if why is not None:
                    row["reason"] = why
            header["rank_lanes"] = sorted(agg.values(),
                                          key=lambda r: -r["ranks"])
            header["backend"] = getattr(sim, "backend", "threads")
        header.update(self.meta)
        self.header = header
        with open(os.path.join(self.run_dir, "header.json"), "w") as f:
            json.dump(header, f, indent=1)
        self._append(header)

    def on_step(self, sim, step_seconds: float) -> None:
        self.recorder.on_step(sim, step_seconds)

    def on_batch(self, sim, info: dict) -> None:
        """``Simulation.step_many`` metadata: this deck stepped
        interleaved while others in the batch ran native — *info*
        names which (``native_decks`` / ``interleaved_decks``)."""
        event = {"ev": "batch", "t": time.time()}
        event.update(info)
        self._append(event)

    def on_crash(self, sim, exc: BaseException) -> None:
        """Dump the in-memory tail and close the log as crashed.

        Idempotent per run: nested drivers may both see the escaping
        exception; only the first dump wins.
        """
        if self.crashed is not None:
            return
        event = {
            "ev": "crash", "t": time.time(),
            "step": sim.step_count,
            "type": type(exc).__name__,
            "error": str(exc),
        }
        self.crashed = event
        dump = dict(event)
        dump["traceback"] = traceback.format_exception(
            type(exc), exc, exc.__traceback__)
        dump["header"] = self.header
        dump["tail"] = self.recorder.tail()
        dump["recorder"] = self.recorder.summary()
        guard = getattr(sim, "guard", None)
        if guard is not None and hasattr(guard, "report"):
            dump["guard_report"] = {
                "steps_guarded": guard.report.steps_guarded,
                "events": [dataclasses.asdict(e)
                           for e in guard.report.events],
            }
        try:
            from repro.observability.metrics import default_registry
            dump["metrics"] = default_registry().snapshot()
        except Exception:
            pass
        with open(self.crash_path, "w") as f:
            json.dump(dump, f, indent=1, default=_json_default)
        event["crash_dump"] = self.crash_path
        self._append(event)
        self.close(status="crashed", _emit_end=True)

    # -- guard listeners ----------------------------------------------------

    def _on_guard_event(self, guard_event) -> None:
        ev = dataclasses.asdict(guard_event)
        ev.update({"ev": "guard", "t": time.time()})
        self._append(ev)

    def _on_checkpoint(self, step: int) -> None:
        self._append({"ev": "checkpoint", "t": time.time(),
                      "step": step})

    # -- plumbing -----------------------------------------------------------

    @property
    def crash_path(self) -> str:
        return os.path.join(self.run_dir, "crash.json")

    def _on_sample(self, sample: StepSample) -> None:
        self._append(sample.to_event())

    def _append(self, event: dict) -> None:
        if self._closed:
            return
        self.log.append(event)
        if self.publisher is not None:
            try:
                self.publisher.publish(
                    json.dumps(event, separators=(",", ":"),
                               default=_json_default))
            except Exception:
                self.publisher = None   # dead channel: keep recording

    def close(self, status: str = "completed",
              _emit_end: bool = True) -> None:
        """Emit ``run_end`` and release the log (idempotent)."""
        if self._closed:
            return
        if self.crashed is not None:
            status = "crashed"
        if _emit_end:
            end = {"ev": "run_end", "t": time.time(), "status": status,
                   "wall_seconds": round(
                       time.perf_counter() - self._started, 4),
                   "recorder": self.recorder.summary()}
            self._append(end)
        self._closed = True
        self.log.close()
        if self.publisher is not None:
            try:
                self.publisher.close()
            except Exception:
                pass

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(status="completed" if exc_type is None else "crashed")
