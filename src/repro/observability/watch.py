"""``repro watch <run-dir>``: a live cockpit view of a recorded run.

Consumes the flight-recorder event stream (from disk via
:func:`~repro.observability.live.follow_events`, or any iterable of
parsed events) and renders a compact terminal status: progress bar,
live step rate and ETA, phase time split, energy drift, and guard
state — refreshed in place while the run is still going, final on
``run_end``, and loudly red-flagged on ``crash``.

:class:`WatchView` is the pure part (events in, text out) so tests
and other frontends can drive it without a terminal; :func:`watch_run`
is the CLI loop.
"""

from __future__ import annotations

import sys
import time
from collections import deque

from repro.observability.live import follow_events

__all__ = ["WatchView", "watch_run"]

#: Phase lanes shown in the split line, in display order.
_SPLIT_PHASES = ("push", "native", "field", "sort", "boundary",
                 "comm", "guard", "other")


def _fmt_seconds(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:
        return "--"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m{seconds % 60:02.0f}s"
    return f"{seconds / 3600:.1f}h"


class WatchView:
    """Folds flight-log events into a renderable run status."""

    def __init__(self, rate_window: int = 32):
        self.header: dict | None = None
        self.samples: deque = deque(maxlen=rate_window)
        self.last_sample: dict | None = None
        self.last_energy: dict | None = None
        self.guard_counts = {"warn": 0, "repair": 0, "rollback": 0,
                             "raise": 0}
        self.checkpoints = 0
        self.crash: dict | None = None
        self.end: dict | None = None
        self.events_seen = 0

    # -- ingest -------------------------------------------------------------

    def feed(self, event: dict) -> None:
        self.events_seen += 1
        ev = event.get("ev")
        if ev == "run_header":
            self.header = event
        elif ev == "step":
            self.samples.append(event)
            self.last_sample = event
            if event.get("energy"):
                self.last_energy = event["energy"]
        elif ev == "guard":
            action = event.get("action", "")
            if action in self.guard_counts:
                self.guard_counts[action] += 1
        elif ev == "checkpoint":
            self.checkpoints += 1
        elif ev == "crash":
            self.crash = event
        elif ev == "run_end":
            self.end = event

    # -- derived ------------------------------------------------------------

    @property
    def current_step(self) -> int:
        if self.last_sample is not None:
            return int(self.last_sample["step"])
        if self.header is not None:
            return int(self.header.get("step_start", 0))
        return 0

    @property
    def target_step(self) -> int | None:
        if self.header is None:
            return None
        return (int(self.header.get("step_start", 0))
                + int(self.header.get("steps_planned", 0)))

    def steps_per_second(self) -> float:
        """Live step rate over the retained sample window."""
        if len(self.samples) >= 2:
            first, last = self.samples[0], self.samples[-1]
            dsteps = last["step"] - first["step"]
            dt = last["t"] - first["t"]
            if dsteps > 0 and dt > 0:
                return dsteps / dt
        if self.last_sample is not None:
            sec = self.last_sample.get("step_seconds", 0.0)
            if sec > 0:
                return 1.0 / sec
        return 0.0

    def eta_seconds(self) -> float | None:
        target = self.target_step
        rate = self.steps_per_second()
        if target is None or rate <= 0:
            return None
        return max(0, target - self.current_step) / rate

    def guard_status(self) -> str:
        if self.crash is not None:
            return "CRASHED"
        counts = self.guard_counts
        total = sum(counts.values())
        if total == 0:
            return ("ok" if (self.header or {}).get("guarded")
                    else "off")
        parts = [f"{n} {k}" for k, n in counts.items() if n]
        return ", ".join(parts)

    # -- render -------------------------------------------------------------

    def _progress_line(self, width: int) -> str:
        step, target = self.current_step, self.target_step
        if not target:
            return f"step {step}"
        frac = min(1.0, step / target) if target else 0.0
        bar_w = max(10, width - 30)
        filled = int(round(frac * bar_w))
        bar = "█" * filled + "░" * (bar_w - filled)
        return f"[{bar}] {step}/{target} ({frac:5.1%})"

    def _split_line(self) -> str:
        if self.last_sample is None:
            return ""
        phases = self.last_sample.get("phase_ms", {})
        total = sum(phases.values())
        if total <= 0:
            return ""
        parts = [f"{name} {phases[name] / total:.0%}"
                 for name in _SPLIT_PHASES
                 if phases.get(name, 0.0) > 0]
        return "phase split   " + "  ".join(parts)

    def render(self, width: int = 72) -> str:
        lines = []
        h = self.header or {}
        title = h.get("deck", h.get("name", "run"))
        ranks = h.get("n_ranks", 1)
        rank_note = f" · {ranks} ranks" if ranks and ranks > 1 else ""
        lines.append(f"watching {title}{rank_note} · "
                     f"{h.get('particles', '?')} particles · "
                     f"stride {h.get('stride', '?')}")
        lines.append(self._progress_line(width))
        rate = self.steps_per_second()
        eta = self.eta_seconds()
        step_ms = (self.last_sample.get("step_seconds", 0.0) * 1e3
                   if self.last_sample else 0.0)
        lines.append(f"step rate     {rate:8.1f} steps/s"
                     f"   ({step_ms:.2f} ms/step)"
                     + (f"   ETA {_fmt_seconds(eta)}"
                        if eta is not None else ""))
        split = self._split_line()
        if split:
            lines.append(split)
        lane = h.get("native_lane")
        n = h.get("native_threads")
        team = f"{n} thread{'s' * (n != 1)}" if n else ""
        if lane == "step":
            lines.append("native lane   step (whole-step C"
                         + (f", {team})" if team else ")"))
        elif lane == "fallback":
            lines.append("native lane   fallback — "
                         f"{h.get('native_fallback', 'unknown reason')}"
                         + (f"; push on {team}" if team else ""))
        rank_lanes = h.get("rank_lanes")
        if rank_lanes:
            parts = []
            for row in rank_lanes:
                part = f"{row['ranks']}x {row['lane']}"
                if row.get("reason") and len(rank_lanes) > 1:
                    part += f" ({row['reason']})"
                parts.append(part)
            lines.append(f"rank lanes    {' · '.join(parts)} "
                         f"[{h.get('backend', 'threads')}]")
        if self.last_energy is not None:
            lines.append(f"energy drift  "
                         f"{self.last_energy.get('drift', 0.0):.3e}")
        ranks_info = (self.last_sample or {}).get("ranks")
        if ranks_info:
            line = (f"rank balance  imbalance "
                    f"{ranks_info.get('load_imbalance', 0.0):.3f}")
            if "halo_wait_fraction" in ranks_info:
                line += (f" · halo wait "
                         f"{ranks_info['halo_wait_fraction']:.1%}")
            lines.append(line)
        guard_line = f"guard         {self.guard_status()}"
        if self.checkpoints:
            guard_line += f" · {self.checkpoints} checkpoints"
        lines.append(guard_line)
        if self.crash is not None:
            lines.append(f"CRASH at step {self.crash.get('step', '?')}: "
                         f"{self.crash.get('type', '')}: "
                         f"{self.crash.get('error', '')}")
            if self.crash.get("crash_dump"):
                lines.append(f"crash dump    {self.crash['crash_dump']}")
        elif self.end is not None:
            rec = self.end.get("recorder", {})
            lines.append(
                f"run ended     {self.end.get('status', 'completed')} "
                f"after {_fmt_seconds(self.end.get('wall_seconds', 0))} "
                f"({rec.get('samples', '?')} samples, "
                f"overhead {rec.get('overhead_seconds', 0.0):.3f}s)")
        return "\n".join(lines)


def watch_run(run_dir: str, interval: float = 0.5,
              once: bool = False, timeout: float | None = None,
              stream=None) -> int:
    """Follow *run_dir* and render the live status to *stream*.

    ``once`` renders the current state and returns immediately
    (useful in scripts and tests); otherwise the view refreshes in
    place (ANSI on a TTY, appended frames elsewhere) until the run
    ends, crashes, or *timeout* elapses. Returns 1 if the run
    crashed, else 0.
    """
    stream = stream if stream is not None else sys.stdout
    view = WatchView()
    if once:
        for event in follow_events(run_dir, timeout=0, poll=0.0):
            view.feed(event)
        print(view.render(), file=stream)
        return 1 if view.crash is not None else 0

    is_tty = getattr(stream, "isatty", lambda: False)()
    last_draw = 0.0

    def draw() -> None:
        if is_tty:
            stream.write("\x1b[2J\x1b[H" + view.render() + "\n")
        else:
            stream.write(view.render() + "\n\n")
        stream.flush()

    for event in follow_events(run_dir, poll=min(interval, 0.2),
                               timeout=timeout):
        view.feed(event)
        now = time.monotonic()
        if (now - last_draw >= interval
                or event.get("ev") in ("run_end", "crash")):
            draw()
            last_draw = now
    draw()
    return 1 if view.crash is not None else 0
