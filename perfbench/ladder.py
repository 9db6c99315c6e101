"""Span arithmetic and the per-layer ladder.

Pure functions over the document ``perfbench/trace.py`` writes; nothing
here imports ``repro``, so the arithmetic is testable on synthetic spans.

- *inclusive* time of a name: summed duration of its spans, leaving out a
  span nested (at any depth) inside another of the same name, which the
  outer one already covers (``AbsorbingFieldSolver.advance_b`` calls
  ``FieldSolver.advance_b``; both are ``fields.solve``).
- *self* time of a span: its duration minus the part of that interval its
  child spans cover (the union of the children, clipped to the parent).
"""

from __future__ import annotations

import functools
import math
import statistics

#: Percentiles a tail may be claimed at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Spans:
    """Column view of a trace document's spans."""

    def __init__(self, doc: dict):
        cols = doc["spans"]
        self.names: list[str] = doc["names"]
        self.name: list[int] = cols["name"]
        self.parent: list[int] = cols["parent"]
        self.start: list[float] = cols["start"]
        self.end: list[float] = cols["end"]
        self._by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            self._by_name.setdefault(self.names[nid], []).append(i)

    def _indices(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def durations(self, name: str) -> list[float]:
        return [self.end[i] - self.start[i] for i in self._indices(name)]

    def calls(self, name: str) -> int:
        return len(self._indices(name))

    def inclusive(self, name: str, under: "str | None" = None) -> float:
        """Inclusive time of *name*; with *under*, only of the spans whose
        direct parent is a span of that name."""
        total = 0.0
        for i in self._indices(name):
            nid = self.name[i]
            p = self.parent[i]
            if under is not None and (
                    p < 0 or self.names[self.name[p]] != under):
                continue
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    @functools.cached_property
    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        children: dict[int, list[tuple[float, float]]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                lo = max(self.start[i], self.start[p])
                hi = min(self.end[i], self.end[p])
                if hi > lo:
                    children.setdefault(p, []).append((lo, hi))
        out = [e - s for s, e in zip(self.start, self.end)]
        for p, intervals in children.items():
            intervals.sort()
            covered = 0.0
            cur_lo, cur_hi = intervals[0]
            for lo, hi in intervals[1:]:
                if lo > cur_hi:
                    covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            covered += cur_hi - cur_lo
            out[p] -= covered
        return out

    def self_total(self, name: str) -> float:
        self_times = self.self_times
        return sum(self_times[i] for i in self._indices(name))


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest of TAIL_PERCENTILES that leaves
    at least ten samples beyond it, or ``(50, median)`` when none does."""
    n = len(values)
    if not n:
        return 50.0, 0.0
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        # Nearest rank; rounded first so 90 % of 100 is rank 90, not 91.
        rank = math.ceil(round(n * pct / 100.0, 9))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(doc: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose subprocess wall clock was
    *wall_s*. Metrics a run cannot have (``mpi.*`` without ranks, ``guard.*``
    without a guard) come out 0. Metrics that need a second run
    (``trace.overhead_frac``, ``native.build_cold_s``, ``mpi.overlap_eff``,
    ``mpi.speedup_vs_1rank``...) are added by the harness."""
    spans = Spans(doc)
    counts = doc["counts"]
    inc = spans.inclusive

    def c(name: str) -> float:
        return float(counts.get(name, 0))

    m: dict[str, float] = {}

    m["cli.import_s"] = inc("cli.import")
    m["cli.self_s"] = spans.self_total("cli.main")
    m["deck.build_s"] = inc("deck.make") + inc("deck.build")
    m["deck.particles"] = c("deck.particles")
    m["deck.cells"] = c("deck.cells")

    steps = spans.durations("sim.step")
    m["sim.run_s"] = inc("sim.run")
    m["sim.steps"] = len(steps)
    m["sim.step_ms_p50"] = statistics.median(steps) * 1e3 if steps else 0.0
    pct, value = tail(steps)
    m["sim.step_tail_pct"] = pct if steps else 0.0
    m["sim.step_ms_tail"] = value * 1e3
    m["sim.driver_self_s"] = spans.self_total("sim.step")
    m["sim.energy_diag_s"] = inc("sim.energy_diag")
    for lane in ("native-step", "native-push", "numpy-fused", "reference"):
        m[f"sim.lane.{lane}"] = c(f"sim.lane.{lane}")

    m["native.load_warm_s"] = inc("native.load")
    m["native.calls"] = spans.calls("native.call")
    m["native.call_s"] = inc("native.call")
    for phase in ("field", "push", "sort"):
        m[f"native.c_{phase}_s"] = c(f"native.c_{phase}_s")
    m["native.marshal_s"] = m["native.call_s"] - (
        m["native.c_field_s"] + m["native.c_push_s"] + m["native.c_sort_s"])
    for key in ("particles_pushed", "crossings", "ghost_folds",
                "sort_events"):
        m[f"native.{key}"] = c(f"native.{key}")
    m["native.push_ns_per_particle"] = _ratio(
        m["native.c_push_s"] * 1e9, m["native.particles_pushed"])

    m["fields.solve_s"] = inc("fields.solve")
    m["fields.calls"] = spans.calls("fields.solve")
    m["push.fused_s"] = inc("push.fused")
    m["push.reference_s"] = inc("push.reference")
    m["boundary.apply_s"] = inc("boundary.apply")
    m["sort.apply_s"] = inc("sort.apply")
    m["sort.applied"] = c("sort.applied")
    m["sources.apply_s"] = inc("sources.apply")
    m["kokkos.launches"] = c("kokkos.launches")
    m["kokkos.kernel_s"] = c("kokkos.kernel_s")

    m["obs.drains"] = spans.calls("obs.drain")
    m["obs.drain_s"] = inc("obs.drain")
    m["obs.recorder_s"] = inc("obs.recorder")
    m["obs.flight_bytes"] = c("obs.flight_bytes")
    m["obs.flight_lines"] = c("obs.flight_lines")
    m["obs.metrics_save_s"] = inc("obs.metrics_save")
    m["guard.before_s"] = inc("guard.before")
    m["guard.after_s"] = inc("guard.after")
    m["guard.checks_run"] = c("guard.checks_run")
    m["guard.violations"] = c("guard.violations")
    # Detail metrics have no entry point of their own: their per-step cost
    # is the energy measurement Simulation.step makes directly.
    m["obs.detail_s"] = inc("energy.measure", under="sim.step")
    m["obs.tools_share"] = _ratio(
        m["guard.before_s"] + m["guard.after_s"] + m["obs.recorder_s"]
        + m["obs.drain_s"] + m["obs.detail_s"], m["sim.run_s"])

    mpi_steps = c("mpi.steps")
    m["mpi.construct_s"] = inc("mpi.construct")
    m["mpi.arena_bytes"] = c("mpi.arena_bytes")
    m["mpi.run_s"] = inc("mpi.run")
    m["mpi.step_ms"] = _ratio(m["mpi.run_s"] * 1e3, mpi_steps)
    m["mpi.close_s"] = inc("mpi.close")
    if "mpi.push_s" in counts:
        # processes: per-rank sums the workers measured themselves.
        for key in ("push_s", "field_s", "halo_wait_s", "migrate_wait_s",
                    "pack_s", "halo_wait_frac", "load_imbalance"):
            m[f"mpi.{key}"] = c(f"mpi.{key}")
    else:
        # threads: spans around the serialized exchanges (main thread)
        # and the rank kernels (pool threads). Which rank a pool thread
        # served is not visible from outside, so no imbalance.
        m["mpi.push_s"] = inc("mpi.push")
        m["mpi.field_s"] = inc("mpi.field")
        m["mpi.halo_wait_s"] = inc("mpi.halo")
        m["mpi.migrate_wait_s"] = inc("mpi.migrate")
        m["mpi.pack_s"] = 0.0
        m["mpi.halo_wait_frac"] = _ratio(
            m["mpi.halo_wait_s"] + m["mpi.migrate_wait_s"], m["mpi.run_s"])
        m["mpi.load_imbalance"] = 0.0
    m["mpi.msgs_per_step"] = _ratio(c("mpi.msgs"), mpi_steps)
    m["mpi.bytes_per_step"] = _ratio(c("mpi.bytes"), mpi_steps)

    model = doc.get("model")
    m["host.stream_triad_gbs"] = model["stream_triad_gbs"] if model else 0.0
    m["model.push_pred_ns_per_particle"] = (
        model["pred_ns_per_particle"] if model else 0.0)
    m["model.pred_over_meas"] = m["model.push_frac_of_roofline"] = 0.0
    measured_ns = m["native.push_ns_per_particle"]
    if model and measured_ns:
        m["model.pred_over_meas"] = model["pred_ns_per_particle"] / measured_ns
        # Computed, not counted: flops and DRAM bytes per particle come
        # from the kernel cost model, only the time is measured.
        achieved_gflops = model["flops_per_particle"] / measured_ns
        intensity = _ratio(model["flops_per_particle"],
                           model["bytes_per_particle"])
        roof = min(model["peak_gflops"],
                   intensity * model["stream_triad_gbs"])
        m["model.push_frac_of_roofline"] = _ratio(achieved_gflops, roof)

    # Computed, next to the measured trace.overhead_frac the harness adds:
    # calibrated cost per span times spans, plus installing the wrappers.
    # Writing the trace file is not in it.
    m["trace.spans"] = len(spans.name)
    m["trace.self_frac"] = _ratio(
        len(spans.name) * doc.get("span_cost_s", 0.0) + inc("trace.install"),
        wall_s)
    covered = inc("cli.import") + inc("trace.install") + inc("cli.main")
    m["trace.unaccounted_frac"] = max(0.0, 1.0 - _ratio(covered, wall_s))
    return m
