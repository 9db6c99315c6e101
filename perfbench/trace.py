"""Outside-in tracer for one ``repro`` CLI invocation.

Runs *inside* the traced interpreter, in place of ``python -m repro``::

    python perfbench/trace.py --out trace.json [--model] -- run-deck uniform --steps 50

It imports the layers, replaces their public entry points with
span-recording wrappers (module attributes and methods are swapped from
here; no file under ``src/`` is edited), calls ``repro.cli.main`` and, on
the way out, writes every span and count to ``--out``. Spans stay in
memory until then. Turning the spans into per-layer metrics is
``perfbench/ladder.py``'s job, in the harness process.

A span is ``(name, start, end, parent)``; all spans of one file belong to
one run and share its ``run_id``. Each thread keeps its own span stack,
so a span's parent is always on the same thread and rank work fanned out
to pool threads shows up as parentless spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span and count store with wrapper factories."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: One mutable record per span: [name id, parent record, start,
        #: end]. A single list append publishes it, which keeps the
        #: store consistent when pool threads record concurrently.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._tls = threading.local()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def begin(self, nid: int) -> list:
        stack = self._stack()
        rec = [nid, stack[-1] if stack else None, 0.0, 0.0]
        self.spans.append(rec)
        stack.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack().pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A parentless span measured by the caller."""
        self.spans.append([self.name_id(name), None, start, end])

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrapper(self, fn, name: str, before=None, after=None):
        """*fn* recorded as one span per call. ``before(args, kwargs)``
        runs ahead of the span and ``after(result)`` once it has ended, so
        neither hook's cost lands in the layer's time."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_method(self, cls, attr: str, name: str, **hooks) -> None:
        setattr(cls, attr, self.wrapper(cls.__dict__[attr], name, **hooks))

    def wrap_function(self, module, attr: str, name: str, once=False,
                      **hooks) -> None:
        """Swap ``module.attr`` for its wrapper in every loaded ``repro``
        module that holds the same function object, so callers that did
        ``from module import attr`` are traced too. With *once* the
        original is put back after the first call (used where only the
        first call does the work and later ones are per-step lookups)."""
        original = getattr(module, attr)
        holders = [(m, k) for mod_name, m in list(sys.modules.items())
                   if mod_name.startswith("repro") and m is not None
                   for k, v in list(vars(m).items()) if v is original]
        if once:
            def restore(_result):
                for m, k in holders:
                    setattr(m, k, original)
            hooks["after"] = restore
        traced = self.wrapper(original, name, **hooks)
        for m, k in holders:
            setattr(m, k, traced)

    def document(self) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return {
            "names": self.names,
            "spans": {
                "name": [rec[0] for rec in self.spans],
                "parent": [-1 if rec[1] is None else index[id(rec[1])]
                           for rec in self.spans],
                "start": [rec[2] for rec in self.spans],
                "end": [rec[3] for rec in self.spans],
            },
            "counts": self.counts,
        }


# (module, class or None, attribute, span name). Private helpers are left
# alone: every target is something another module calls by name.
_TARGETS = (
    ("repro.vpic.workloads", None, "make_deck", "deck.make"),
    ("repro.vpic.simulation", "Simulation", "run", "sim.run"),
    ("repro.vpic.simulation", "Simulation", "step", "sim.step"),
    ("repro.vpic.simulation", "Simulation", "push_step", "push.fused"),
    ("repro.vpic.simulation", "Simulation", "push_species", "push.reference"),
    ("repro.vpic.diagnostics", "EnergyDiagnostic", "record",
     "sim.energy_diag"),
    ("repro.vpic.fields", "FieldArrays", "field_energy", "energy.measure"),
    ("repro.vpic.species", "Species", "kinetic_energy", "energy.measure"),
    ("repro.vpic.fields", "FieldSolver", "advance_b", "fields.solve"),
    ("repro.vpic.fields", "FieldSolver", "advance_e", "fields.solve"),
    ("repro.vpic.fields", "FieldSolver", "reduce_ghost_currents",
     "fields.solve"),
    ("repro.vpic.absorbing", "AbsorbingFieldSolver", "advance_b",
     "fields.solve"),
    ("repro.vpic.absorbing", "AbsorbingFieldSolver", "advance_e",
     "fields.solve"),
    ("repro.vpic.boundary", None, "apply_particle_boundaries",
     "boundary.apply"),
    ("repro.vpic.sort_step", "SortStep", "apply", "sort.apply"),
    ("repro.vpic.injection", "LaserAntenna", "apply", "sources.apply"),
    ("repro.vpic.window", "MovingWindow", "apply", "sources.apply"),
    ("repro.observability.native_telemetry", None, "drain_step",
     "obs.drain"),
    ("repro.observability.flight", "FlightRecorder", "on_step",
     "obs.recorder"),
    ("repro.observability.metrics", "MetricsRegistry", "save",
     "obs.metrics_save"),
    ("repro.validate.guard", "SimulationGuard", "before_step",
     "guard.before"),
    ("repro.validate.guard", "SimulationGuard", "after_step", "guard.after"),
)

# Only installed for ``--ranks`` runs: importing ``repro.mpi`` costs 40 ms
# that a single-process run never pays.
_MPI_TARGETS = (
    ("repro.mpi.halo", None, "exchange_ghost_cells", "mpi.halo"),
    ("repro.mpi.halo", None, "reduce_ghost_sums", "mpi.halo"),
    ("repro.mpi.particle_exchange", None, "migrate_particles",
     "mpi.migrate"),
    ("repro.vpic.fastpath", None, "fused_push_species", "mpi.push"),
    ("repro.vpic.native", None, "field_advance_b", "mpi.field"),
    ("repro.vpic.native", None, "field_advance_e", "mpi.field"),
)


def install(tracer: Tracer, distributed: bool) -> dict:
    """Wrap the layers' entry points; returns the dict the hooks fill with
    objects needed after the run (the built simulation)."""
    captured: dict = {}
    targets = _TARGETS + (_MPI_TARGETS if distributed else ())
    # Everything is imported up front: wrap_function can only patch a
    # ``from x import f`` in a module that is already loaded.
    wanted = {t[0] for t in targets} | {
        "repro.vpic.native", "repro.vpic.deck", "repro.observability.flight"}
    if distributed:
        wanted.add("repro.mpi.distributed")
    modules = {name: importlib.import_module(name) for name in wanted}
    native = modules["repro.vpic.native"]
    for mod_name, cls_name, attr, span in targets:
        module = modules[mod_name]
        if cls_name is None:
            tracer.wrap_function(module, attr, span)
        else:
            tracer.wrap_method(getattr(module, cls_name), attr, span)

    def built(sim) -> None:
        captured["sim"] = sim
        tracer.count("deck.particles", sim.total_particles)
        tracer.count("deck.cells", sim.grid.n_cells)

    tracer.wrap_method(modules["repro.vpic.deck"].Deck, "build", "deck.build",
                       after=built)

    def native_stats(res) -> None:
        if res is None:
            return
        tracer.count("native.c_field_s", res["field"])
        tracer.count("native.c_push_s", res["push"])
        tracer.count("native.c_sort_s", res["sort"])
        for key, value in res["counters"].items():
            tracer.count(f"native.{key}", value)

    tracer.wrap_function(native, "step_simulation", "native.call",
                         after=native_stats)
    tracer.wrap_function(native, "native_push_kernel", "native.load",
                         once=True)

    def flight_totals(args, _kwargs) -> None:
        log = args[0].log
        tracer.counts["obs.flight_bytes"] = log.bytes_written
        tracer.counts["obs.flight_lines"] = log.lines_written

    tracer.wrap_method(modules["repro.observability.flight"].FlightRecorder,
                       "close", "obs.recorder_close", before=flight_totals)
    if distributed:
        _install_distributed(tracer, modules["repro.mpi.distributed"])
    return captured


def _install_distributed(tracer: Tracer, distributed) -> None:
    cls = distributed.DistributedSimulation
    tracer.wrap_method(cls, "__init__", "mpi.construct")

    def initial_totals(args, _kwargs) -> None:
        dsim = args[0]
        deck = dsim.deck
        tracer.counts["deck.particles"] = dsim.total_particles()
        tracer.counts["deck.cells"] = deck.nx * deck.ny * deck.nz

    tracer.wrap_method(cls, "run", "mpi.run", before=initial_totals)

    def rank_totals(args, _kwargs) -> None:
        """Read what dies with ``close()``: the workers' shared stats
        array and the arena size, as the CLI itself reads them."""
        dsim = args[0]
        counts = tracer.counts
        counts["mpi.msgs"] = dsim.world.log.count
        counts["mpi.bytes"] = dsim.world.log.total_bytes
        counts["mpi.steps"] = dsim.step_count
        backend = dsim._pbackend
        if backend is None or backend._closed:
            return
        from repro.mpi import process_backend as pb
        stats = backend.stats
        report = backend.rank_report()
        counts["mpi.arena_bytes"] = backend.arena.nbytes
        counts["mpi.push_s"] = float(stats[:, pb.STAT_PUSH].sum())
        counts["mpi.field_s"] = float(stats[:, pb.STAT_FIELD].sum())
        counts["mpi.halo_wait_s"] = float(stats[:, pb.STAT_WAIT].sum())
        counts["mpi.migrate_wait_s"] = float(
            stats[:, pb.STAT_MIG_WAIT].sum())
        counts["mpi.pack_s"] = float(stats[:, pb.STAT_PACK].sum())
        counts["mpi.load_imbalance"] = report.load_imbalance
        counts["mpi.halo_wait_frac"] = report.halo_wait_fraction

    tracer.wrap_method(cls, "close", "mpi.close", before=rank_totals)


def span_cost(tracer: Tracer, calls: int = 2000) -> float:
    """Seconds one wrapped call costs beyond the call itself, calibrated
    once the run is over: lets the harness say what tracing cost without
    differencing two wall clocks that each wander by several percent."""
    def noop() -> None:
        pass

    probe = tracer.wrapper(noop, "trace.calibrate")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        probe()
    t2 = time.perf_counter()
    del tracer.spans[-calls:]
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def exit_counts(tracer: Tracer) -> None:
    """Counts the layers keep themselves, read once the run is over."""
    from repro.kokkos.profiling import kernel_timings
    from repro.observability.metrics import default_registry
    counters = default_registry().snapshot()["counters"]
    for name, value in counters.items():
        if name.startswith("step_lane/"):
            tracer.counts[f"sim.lane.{name[len('step_lane/'):]}"] = value
    for src, dst in (("guard/checks_run", "guard.checks_run"),
                     ("guard/violations", "guard.violations"),
                     ("sort/applied", "sort.applied")):
        tracer.counts[dst] = counters.get(src, 0)
    timers = kernel_timings().values()
    tracer.counts["kokkos.launches"] = sum(t.launches for t in timers)
    tracer.counts["kokkos.kernel_s"] = sum(t.seconds for t in timers)


def model_probe(sim) -> dict:
    """Price the push kernel on *this* host with the repository's
    performance model, from the voxel keys the run ended with. The STREAM
    triad is measured here, in the same invocation as the run the
    prediction is compared with."""
    import numpy as np
    from repro.bench.push_bench import push_trace_from_keys
    from repro.machine.host import host_platform
    from repro.perfmodel.kernel_cost import push_kernel_cost
    from repro.perfmodel.predict import predict_time

    t0 = time.perf_counter()
    host = host_platform(measure_bandwidth=True)
    cost = push_kernel_cost()
    seconds = flops = dram_bytes = 0.0
    particles = 0
    for sp in sim.species:
        if sp.n == 0:
            continue
        keys = np.ascontiguousarray(sp.live("voxel"), dtype=np.int64)
        trace = push_trace_from_keys(keys, sim.grid.n_voxels, atomic=True)
        pred = predict_time(host, trace, cost)
        seconds += pred.seconds
        flops += pred.total_flops
        dram_bytes += pred.dram_bytes
        particles += keys.size
    return {
        "stream_triad_gbs": host.stream_bw_gbs,
        "peak_gflops": host.peak_fp32_gflops,
        "pred_ns_per_particle": seconds / particles * 1e9,
        "flops_per_particle": flops / particles,
        "bytes_per_particle": dram_bytes / particles,
        "probe_s": time.perf_counter() - t0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="trace file to write")
    parser.add_argument("--model", action="store_true",
                        help="after the run, price the push on the host "
                             "roofline (adds ~3 s, reported as probe_s)")
    parser.add_argument("cli_args", nargs="+",
                        help="arguments for repro.cli.main, after --")
    args = parser.parse_args(argv)

    tracer = Tracer()
    t0 = time.perf_counter()
    import repro.cli
    t1 = time.perf_counter()
    tracer.add_span("cli.import", t0, t1)
    captured = install(tracer, distributed="--ranks" in args.cli_args)
    tracer.add_span("trace.install", t1, time.perf_counter())

    rc = None
    rec = tracer.begin(tracer.name_id("cli.main"))
    try:
        rc = repro.cli.main(args.cli_args)
    finally:
        tracer.end(rec)
        exit_counts(tracer)
        doc = {"run_id": f"pid{os.getpid()}", "argv": args.cli_args, "rc": rc,
               "span_cost_s": span_cost(tracer)}
        if args.model and rc == 0 and "sim" in captured:
            doc["model"] = model_probe(captured["sim"])
        doc.update(tracer.document())
        with open(args.out, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
