"""Command-line interface: ``python -m repro <command>``.

Production codes ship drivers; this CLI exposes the library's main
workflows without writing Python:

- ``run-deck``     run a named workload deck with diagnostics
                   (``--trace``/``--metrics``/``--profile`` export
                   observability data)
- ``trace``        run a deck under the Chrome tracer and print the
                   span summary plus the instrumentation overhead report
- ``profile``      run a deck distributed under the counter-attribution
                   profiler and write the HTML performance dashboard
- ``tune``         show the hardware-targeted plan for a platform/problem
- ``platforms``    list the Table-1 platform registry (+ host)
- ``figures``      regenerate selected paper figures as text tables
- ``scaling``      print a strong-scaling curve for one system
- ``checkpoint``   run a deck and write/restore a checkpoint
- ``validate``     run a deck under the physics guard and print the
                   guard report
- ``report``       regenerate the full evaluation report
- ``watch``        follow a recorded run's flight log live (progress,
                   step rate, ETA, energy drift, guard status)
- ``bench``        list the perfbench envelopes measured on this
                   host (``bench history``)

``run-deck`` also accepts ``--guard[=warn|raise|repair]`` to screen
the run with the invariant guard (see :mod:`repro.validate`) and
``--record[=STRIDE]`` to stream the run into an on-disk flight log
(see :mod:`repro.observability.flight`) that ``repro watch`` — or a
plain ``tail -f`` — can follow while the run is still going.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

def _deck_choices() -> tuple[str, ...]:
    from repro.vpic.workloads import registered_decks
    return registered_decks()


_DECKS = _deck_choices()


def _deck_factory(name: str, steps: int | None, seed: int):
    from repro.vpic.workloads import make_deck
    return make_deck(name, steps=steps, seed=seed)


def _run_deck_batch(args, count: int) -> int:
    """``run-deck --batch N``: N deck replicas (seeds ``seed`` through
    ``seed + N - 1``) stepped round-robin through
    :meth:`~repro.vpic.simulation.Simulation.step_many`, which batches
    all replicas into a single native whole-step call per step when
    the compiled lane is available. Results are byte-identical to N
    independent runs."""
    import time

    from repro.kokkos.profiling import kernel_timings, reset_kernel_timings
    from repro.vpic.simulation import Simulation

    sims = []
    deck = None
    for i in range(count):
        deck = _deck_factory(args.deck, args.steps, args.seed + i)
        sim = deck.build()
        if getattr(args, "reference_step", False):
            from repro.core.plan import StepPlan
            sim.step_plan = StepPlan.REFERENCE
        sims.append(sim)
    print(f"deck '{deck.name}' x{count} (seeds {args.seed}.."
          f"{args.seed + count - 1}): {sims[0].grid.n_cells} cells, "
          f"{sims[0].total_particles} particles each, "
          f"{deck.num_steps} steps")
    print(f"step plan: {sims[0].step_plan}")
    reset_kernel_timings()
    t0 = time.perf_counter()
    Simulation.step_many(sims, deck.num_steps)
    wall = time.perf_counter() - t0
    deck_steps = count * deck.num_steps
    print(f"batch: {deck_steps} deck-steps in {wall:.3f} s "
          f"({wall / deck_steps * 1e3:.3f} ms per deck-step)")
    for i, sim in enumerate(sims):
        e, b = sim.fields.field_energy()
        ke = sum(sp.kinetic_energy() for sp in sim.species)
        print(f"  seed {args.seed + i}: KE {ke:.6e}  "
              f"E {e:.6e}  B {b:.6e}")
    if args.timings:
        for label, timer in sorted(kernel_timings().items()):
            print(f"  {label:32s} {timer.seconds * 1e3:9.2f} ms "
                  f"x{timer.launches}")
    return 0


def _run_deck_distributed(args) -> int:
    """``run-deck --ranks N``: the deck decomposed over N real ranks.

    ``--backend processes`` forks one worker per rank over the
    shared-memory arena with the overlapped halo schedule (see
    :mod:`repro.mpi.process_backend`); ``--backend threads`` is the
    in-process bit-identity reference. Results are bit-identical
    across backends and schedules.
    """
    import time

    from repro.fuzz.runner import distributed_eligible
    from repro.kokkos.profiling import kernel_timings, reset_kernel_timings
    from repro.mpi.distributed import DistributedSimulation
    from repro.mpi.process_backend import RankWorkerError
    from repro.validate import GuardViolationError
    from repro.validate.checks import rank_checks
    from repro.validate.guard import RankGuard

    for flag in ("trace", "profile", "batch", "serve"):
        if getattr(args, flag, None) is not None:
            print(f"--{flag} is single-sim only; ignoring it "
                  f"for --ranks {args.ranks}")
    deck = _deck_factory(args.deck, args.steps, args.seed)
    reason = distributed_eligible(deck, args.ranks)
    if reason is not None:
        print(f"deck '{deck.name}' cannot run distributed: {reason}")
        return 2
    guard = None
    if getattr(args, "guard", None) is not None:
        if args.guard != "raise":
            print(f"distributed guard is raise-only; ignoring "
                  f"policy {args.guard!r}")
        guard = RankGuard(rank_checks())
    overlap = not getattr(args, "serialized", False)
    if args.backend == "threads" and not overlap:
        print("--serialized is implicit for --backend threads")
    dsim = DistributedSimulation(deck, args.ranks, guard=guard,
                                 backend=args.backend, overlap=overlap)
    print(f"deck '{deck.name}': {deck.nx * deck.ny * deck.nz} cells "
          f"over {args.ranks} ranks {dsim.decomp.dims}, "
          f"{dsim.total_particles()} particles, {deck.num_steps} steps")
    sched = ("overlapped" if overlap and args.backend == "processes"
             else "serialized")
    lanes: dict = {}
    for lane, why in dsim.rank_lanes():
        lanes.setdefault((lane, why), 0)
        lanes[(lane, why)] += 1
    lane_txt = " · ".join(f"{n}x {lane}" for (lane, _), n in lanes.items())
    print(f"backend: {args.backend} ({sched} exchange) — "
          f"rank lanes {lane_txt}")
    fallback = dsim.native_fallback_reason()
    if fallback is not None:
        print(f"note: {fallback}")
    if guard is not None:
        print("guard: per-rank structural checks (raise)")
    recorder = None
    if getattr(args, "record", None) is not None:
        from repro.observability.flight import FlightRecorder
        run_dir = getattr(args, "record_dir", None) or \
            f"{deck.name}-flight"
        recorder = FlightRecorder(run_dir, stride=args.record,
                                  meta={"deck": deck.name,
                                        "seed": args.seed,
                                        "ranks": args.ranks,
                                        "backend": args.backend})
        recorder.attach(dsim)
        print(f"flight log: {run_dir} (stride {args.record}) — "
              f"follow with: repro watch {run_dir}")
    reset_kernel_timings()
    t0 = time.perf_counter()
    try:
        dsim.run(deck.num_steps)
    except GuardViolationError as exc:
        print(f"guard violation: {exc}")
        if guard is not None:
            print(guard.report.format())
        if recorder is not None:
            print(f"crash dump -> {recorder.crash_path}")
        return 1
    except RankWorkerError as exc:
        print(f"rank worker crashed: {exc}")
        if exc.worker_traceback:
            print(exc.worker_traceback)
        if recorder is not None:
            print(f"crash dump -> {recorder.crash_path}")
        return 1
    finally:
        if recorder is not None:
            recorder.close()
        dsim.close()
    wall = time.perf_counter() - t0
    print(f"{deck.num_steps} steps in {wall:.3f} s "
          f"({wall / deck.num_steps * 1e3:.3f} ms/step)")
    ke = dsim.total_kinetic_energy()
    e, b = dsim.total_field_energy()
    print(f"energy: KE {ke:.6e}  E {e:.6e}  B {b:.6e}")
    if dsim._pbackend is not None:
        report = dsim._pbackend.rank_report()
        print(report.table())
        print(f"halo wait: {dsim._pbackend.halo_wait_seconds():.3f} s "
              f"summed over ranks ({sched} schedule)")
    if getattr(args, "metrics", None) is not None:
        from repro.observability.metrics import default_registry
        default_registry().save(args.metrics)
        print(f"metrics -> {args.metrics}")
    if args.timings:
        for label, timer in sorted(kernel_timings().items()):
            print(f"  {label:32s} {timer.seconds * 1e3:9.2f} ms "
                  f"x{timer.launches}")
    return 0


def cmd_run_deck(args) -> int:
    from repro.kokkos.callbacks import register_tool, unregister_tool
    from repro.kokkos.profiling import kernel_timings, reset_kernel_timings
    from repro.observability.metrics import default_registry, set_detail
    from repro.observability.tracer import ChromeTracer
    from repro.vpic.diagnostics import EnergyDiagnostic, energy_report

    if getattr(args, "ranks", 1) > 1:
        return _run_deck_distributed(args)
    batch = getattr(args, "batch", None)
    if batch is not None and batch > 1:
        for flag in ("guard", "record", "trace", "metrics", "profile"):
            if getattr(args, flag, None) is not None:
                print(f"--batch runs plain decks; ignoring --{flag}")
        return _run_deck_batch(args, batch)

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    profile_path = getattr(args, "profile", None)
    deck = _deck_factory(args.deck, args.steps, args.seed)
    sim = deck.build()
    if getattr(args, "reference_step", False):
        from repro.core.plan import StepPlan
        sim.step_plan = StepPlan.REFERENCE
    print(f"deck '{deck.name}': {sim.grid.n_cells} cells, "
          f"{sim.total_particles} particles, {deck.num_steps} steps")
    print(f"step plan: {sim.step_plan}")
    guard = None
    if getattr(args, "guard", None) is not None:
        from repro.validate import SimulationGuard
        guard = SimulationGuard(policy=args.guard)
        guard.attach(sim)
        print(f"guard: policy={args.guard}")
    recorder = None
    publisher = None
    if getattr(args, "record", None) is not None:
        from repro.observability.flight import FlightRecorder
        run_dir = getattr(args, "record_dir", None) or \
            f"{deck.name}-flight"
        serve = getattr(args, "serve", None)
        if serve is not None:
            from repro.observability.live import TelemetryPublisher
            publisher = TelemetryPublisher(mode=serve)
            print(f"telemetry: {publisher.endpoint}")
        recorder = FlightRecorder(run_dir, stride=args.record,
                                  publisher=publisher,
                                  meta={"deck": deck.name,
                                        "seed": args.seed})
        recorder.attach(sim)
        print(f"flight log: {run_dir} (stride {args.record}) — "
              f"follow with: repro watch {run_dir}")
    reset_kernel_timings()
    tracer = None
    counter_tool = None
    if trace_path or metrics_path or profile_path:
        default_registry().reset()
        set_detail(True)
    if trace_path:
        tracer = ChromeTracer()
        register_tool(tracer)
    if profile_path:
        from repro.bench.counters import CounterTool
        from repro.machine.specs import get_platform
        counter_tool = CounterTool(get_platform("A100"))
        register_tool(counter_tool)
    # An observed run that silently fell off the whole-step native
    # lane would profile the wrong code — say so, once, with the
    # tripped gate (tracer/metrics/recorder themselves no longer
    # demote: they are fed from the native telemetry channel); when the
    # push is native, on either lane, say how many threads push.
    if (trace_path or metrics_path or profile_path
            or recorder is not None):
        reason = sim.native_fallback_reason()
        n = sim.native_push_threads()
        threads = f"{n} thread{'s' * (n != 1)}" if n else None
        if reason is None:
            print(f"note: whole-step native lane on — {threads}")
        else:
            print(f"note: whole-step native lane off — {reason}"
                  + (f"; push on {threads}" if threads else ""))
    try:
        diag = EnergyDiagnostic()
        try:
            sim.run(deck.num_steps, diag,
                    sample_every=max(1, deck.num_steps // 20))
        except Exception as exc:
            from repro.validate import GuardViolationError
            if not isinstance(exc, GuardViolationError):
                raise
            print(f"guard violation: {exc}")
            print(guard.report.format())
            if recorder is not None:
                print(f"crash dump -> {recorder.crash_path}")
            return 1
    finally:
        if tracer is not None:
            unregister_tool(tracer)
        if counter_tool is not None:
            unregister_tool(counter_tool)
        set_detail(False)
        if recorder is not None:
            recorder.close()
        if publisher is not None:
            publisher.close()
    print(energy_report(diag))
    if guard is not None:
        print(guard.report.format())
    if recorder is not None:
        s = recorder.recorder.summary()
        print(f"flight log: {s['samples']} samples "
              f"({s['dropped']} dropped from memory), "
              f"{recorder.log.lines_written} lines / "
              f"{recorder.log.bytes_written} bytes on disk, "
              f"recorder overhead {s['overhead_seconds'] * 1e3:.1f} ms")
    if args.timings:
        for label, timer in sorted(kernel_timings().items()):
            print(f"  {label:32s} {timer.seconds * 1e3:9.2f} ms "
                  f"x{timer.launches}")
    if trace_path:
        tracer.save(trace_path)
        print(f"trace: {len(tracer.buffer)} spans "
              f"({tracer.buffer.dropped} dropped) -> {trace_path}")
    if metrics_path:
        default_registry().save(metrics_path)
        print(f"metrics -> {metrics_path}")
    if profile_path:
        from repro.bench.dashboard import (ProfileBundle,
                                           baseline_deltas,
                                           load_baseline,
                                           save_dashboard)
        from repro.bench.push_bench import push_trace_from_keys
        from repro.bench.roofline_profiler import RooflineProfiler
        from repro.perfmodel.kernel_cost import push_kernel_cost
        cost = push_kernel_cost()
        for sp in sim.species:
            if sp.n == 0:
                continue
            keys = np.ascontiguousarray(sp.live("voxel"), dtype=np.int64)
            counter_tool.bind(
                f"push/{sp.name}",
                push_trace_from_keys(keys, sim.grid.n_voxels, atomic=True),
                cost)
        kernel_seconds = {name: acc.seconds
                          for name, acc in counter_tool.measured.items()}
        bundle = ProfileBundle(
            deck_name=deck.name,
            platform_name=counter_tool.platform.name,
            n_ranks=1,
            steps=deck.num_steps,
            roofline=RooflineProfiler.from_counter_tool(counter_tool),
            kernel_rows=counter_tool.rows(),
            metrics=default_registry().snapshot(),
            deltas=baseline_deltas(kernel_seconds, deck.num_steps,
                                   load_baseline(deck.name)),
        )
        save_dashboard(bundle, profile_path)
        print(f"profile dashboard -> {profile_path}")
    return 0


def cmd_profile(args) -> int:
    from repro.bench.dashboard import profile_deck, save_dashboard
    from repro.bench.plots import roofline_profile_plot
    from repro.machine.specs import get_platform

    deck = _deck_factory(args.deck, args.steps, args.seed)
    platform = get_platform(args.platform)
    print(f"profiling deck '{deck.name}' on {platform.name}: "
          f"{args.ranks} simulated ranks, {deck.num_steps} steps")
    bundle = profile_deck(deck, platform, n_ranks=args.ranks)
    print(roofline_profile_plot(bundle.roofline,
                                title=f"roofline on {platform.name}"))
    if bundle.rank_report is not None:
        print()
        print(bundle.rank_report.table())
    out = args.out or f"{deck.name}-profile.html"
    save_dashboard(bundle, out)
    print(f"dashboard -> {out}")
    if args.trace:
        bundle.save_trace(args.trace)
        print(f"merged rank trace -> {args.trace}")
    return 0


def cmd_trace(args) -> int:
    from repro.bench.overhead import measure_overhead
    from repro.kokkos.profiling import kernel_timings, reset_kernel_timings
    from repro.observability.metrics import default_registry, set_detail
    from repro.observability.tracer import tracing

    deck = _deck_factory(args.deck, args.steps, args.seed)
    sim = deck.build()
    print(f"tracing deck '{deck.name}': {sim.total_particles} particles, "
          f"{deck.num_steps} steps")
    reset_kernel_timings()
    default_registry().reset()
    set_detail(True)
    try:
        with tracing() as tracer:
            sim.run(deck.num_steps)
    finally:
        set_detail(False)
    out = args.out or f"{deck.name}-trace.json"
    tracer.save(out)
    print(f"trace: {len(tracer.buffer)} spans "
          f"({tracer.buffer.dropped} dropped) -> {out}")
    if args.metrics:
        default_registry().save(args.metrics)
        print(f"metrics -> {args.metrics}")

    totals = sorted(tracer.totals_by_name().items(),
                    key=lambda kv: kv[1][0], reverse=True)
    print("top spans by total time:")
    for name, (seconds, count) in totals[:10]:
        print(f"  {name:36s} {seconds * 1e3:9.2f} ms x{count}")

    # Overhead accounting: relate per-event instrumentation cost to
    # the measured per-launch push time (the Fig. 4 kernel).
    push = [t for label, t in kernel_timings().items()
            if "/push/" in label or label.startswith("push/")]
    push_mean = (sum(t.seconds for t in push)
                 / max(1, sum(t.launches for t in push))) if push else None
    report = measure_overhead()
    print(report.format(kernel_seconds=push_mean,
                        kernel_label="particle push"))
    return 0


def cmd_tune(args) -> int:
    from repro.core.tuning import select_sort, select_strategy
    from repro.machine.host import host_platform
    from repro.machine.specs import get_platform
    platform = (host_platform() if args.platform == "host"
                else get_platform(args.platform))
    plan = select_sort(platform, args.grid_points)
    strategy = select_strategy(platform)
    print(f"platform:      {platform.name} "
          f"({'GPU' if platform.is_gpu else 'CPU'}, "
          f"{platform.core_count} cores, "
          f"{platform.stream_bw_gbs:.0f} GB/s)")
    print(f"sort plan:     {plan}")
    print(f"vectorization: {strategy.value}")
    return 0


def cmd_platforms(args) -> int:
    from repro._util import MiB
    from repro.machine.specs import cpu_platforms, gpu_platforms
    print(f"{'name':18s} {'kind':5s} {'cores':>7s} {'LLC MB':>8s} "
          f"{'GB/s':>8s} {'peak GF':>9s}")
    for p in cpu_platforms() + gpu_platforms():
        print(f"{p.name:18s} {'GPU' if p.is_gpu else 'CPU':5s} "
              f"{p.core_count:>7d} {p.llc_bytes / MiB:>8.0f} "
              f"{p.stream_bw_gbs:>8.1f} {p.peak_fp32_gflops:>9.0f}")
    return 0


def cmd_figures(args) -> int:
    from repro.bench.reporting import format_table
    which = args.which
    if which in ("all", "fig3"):
        from repro.bench.rajaperf import fig3_normalized_runtimes
        data = fig3_normalized_runtimes()
        for kernel, rows in data.items():
            print(f"\nFigure 3 / {kernel} (runtime normalized to auto)")
            print(format_table(rows, fmt="{:.2f}",
                               col_order=["auto", "guided", "manual"]))
    if which in ("all", "fig5", "fig6"):
        from repro.bench.gather_scatter import KeyPattern, bandwidth_table
        from repro.machine.specs import cpu_platforms, gpu_platforms
        plats = (cpu_platforms() if which != "fig6" else []) + \
            (gpu_platforms() if which != "fig5" else [])
        table = bandwidth_table(plats, KeyPattern.REPEATED, unique=8000)
        rows = {p: {s: pred.effective_bandwidth_gbs
                    for s, pred in preds.items()}
                for p, preds in table.items()}
        print("\nFigures 5b/6b (repeated keys, effective GB/s)")
        print(format_table(rows, fmt="{:.1f}"))
    if which in ("all", "fig9"):
        from repro.bench.scaling_bench import fig9_series
        print("\nFigure 9 (cache peaks)")
        for name, (grids, rates, peak) in fig9_series().items():
            print(f"  {name}: peak at ~{peak} grid points, "
                  f"max {rates.max():.1f} pushes/ns")
    return 0


def cmd_scaling(args) -> int:
    from repro.bench.scaling_bench import fig10_series
    system, points, sp = fig10_series(args.system)
    base = points[0].n_gpus
    print(f"{system.name} strong scaling ({system.gpu.name}):")
    print(f"{'GPUs':>6} {'grid/GPU':>10} {'step ms':>10} "
          f"{'speedup':>9} {'vs ideal':>9}")
    for p, v in zip(points, sp):
        print(f"{p.n_gpus:>6} {p.grid_per_gpu:>10} "
              f"{p.step_seconds * 1e3:>10.3f} {v:>9.2f} "
              f"{v / (p.n_gpus / base):>9.2f}")
    return 0


def cmd_report(args) -> int:
    from repro.bench.overhead import (
        measure_native_telemetry_overhead, measure_overhead)
    from repro.bench.runner import full_report
    from repro.observability.metrics import default_registry
    from repro.perfmodel.memo import default_memo
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        default_registry().reset()
    full_report(stream=sys.stdout)
    if metrics_path:
        default_registry().save(metrics_path)
        stats = default_memo().stats()
        print(f"prediction memo: {stats['hits']} hits / "
              f"{stats['misses']} misses "
              f"({stats['hit_rate']:.0%} hit rate, "
              f"{stats['entries']} entries)")
        print(measure_overhead().format())
        nt = measure_native_telemetry_overhead(steps=10)
        if nt is not None:
            print(nt.format())
        print(f"metrics -> {metrics_path}")
    return 0


def cmd_checkpoint(args) -> int:
    from repro.vpic.checkpoint import load_checkpoint, save_checkpoint
    deck = _deck_factory(args.deck, args.steps, seed=0)
    sim = deck.build()
    sim.run(deck.num_steps)
    path = save_checkpoint(sim, args.path)
    print(f"ran {sim.step_count} steps; checkpoint written to {path}")
    restored = load_checkpoint(path)
    match = np.array_equal(restored.species[0].live("x"),
                           sim.species[0].live("x"))
    print(f"restore verified: particle state identical = {match}")
    return 0 if match else 1


#: ``validate --lane`` choices: the StepPlan member each asks for.
_LANE_PLANS = {"numpy": "NUMPY", "push": "NATIVE_PUSH",
               "native": "NATIVE_STEP", "reference": "REFERENCE"}


def cmd_validate(args) -> int:
    from repro.observability.metrics import default_registry
    from repro.validate import GuardViolationError, SimulationGuard

    deck = _deck_factory(args.deck, args.steps, args.seed)
    sim = deck.build()
    lane = getattr(args, "lane", None)
    if lane is not None:
        from repro.core.plan import StepPlan
        sim.step_plan = StepPlan[_LANE_PLANS[lane]]
    guard = SimulationGuard(policy=args.policy,
                            checkpoint_interval=args.checkpoint_interval)
    guard.attach(sim)
    print(f"validating deck '{deck.name}': {sim.grid.n_cells} cells, "
          f"{sim.total_particles} particles, {deck.num_steps} steps, "
          f"policy={args.policy}"
          + (f", lane={lane}" if lane else ""))
    resolved = sim.lane()
    print(f"resolved lane: {resolved.label}")
    if resolved.reason is not None:
        print(f"note: whole-step native lane off — {resolved.reason}")
    default_registry().reset()
    try:
        sim.run(deck.num_steps)
    except GuardViolationError as exc:
        print(f"guard violation: {exc}")
        print(guard.report.format())
        return 1
    print(guard.report.format())
    if args.overhead:
        from repro.validate import measure_guard_overhead
        print(measure_guard_overhead(
            deck=deck, steps=args.steps or 10, policy=args.policy,
            checkpoint_interval=args.checkpoint_interval).format())
    return 0


def _fuzz_ranks(args, rank_counts: list[int]) -> int:
    """``repro fuzz --ranks``: the distributed axis of the fuzzer.

    Samples rank counts x decks: deck ``i`` runs distributed at
    ``rank_counts[i % len]`` under ``RankGuard`` (processes backend by
    default, so the overlapped halo schedule and real forked workers
    are what gets fuzzed). Decks the distributed driver cannot host —
    non-periodic boundaries, grids that do not divide over the rank
    decomposition — are counted and skipped, not reported as findings.
    Failures replay into the corpus with their rank count recorded, so
    ``pytest tests/test_fuzz_corpus.py`` reproduces them distributed.
    """
    import os

    from repro.fuzz import (CorpusEntry, DeckGenerator,
                            distributed_eligible, run_deck_distributed,
                            save_entry)
    from repro.vpic.deck import Deck

    gen = DeckGenerator(seed=args.seed)
    print(f"fuzzing {args.runs} decks x ranks {rank_counts} "
          f"(seed {args.seed}, backend={args.backend}, RankGuard, "
          f"full deck length each)")
    failures = []
    ran = skipped = 0
    skip_reasons: dict[str, int] = {}
    for i, deck in gen.decks(args.runs):
        # Prefer rank count i (cycled) but accept any count in the
        # list the deck's grid can host — decomposition divisibility
        # would otherwise skip most decks at a single fixed count.
        n_ranks = reason = None
        for j in range(len(rank_counts)):
            cand = rank_counts[(i + j) % len(rank_counts)]
            reason = distributed_eligible(deck, cand)
            if reason is None:
                n_ranks = cand
                break
        if n_ranks is None:
            skipped += 1
            key = reason.split("(")[0].strip()
            skip_reasons[key] = skip_reasons.get(key, 0) + 1
            continue
        result = run_deck_distributed(deck, n_ranks,
                                      backend=args.backend)
        ran += 1
        if result.failed:
            failures.append(result)
            print(f"  FAIL {result.headline()}")
    print(f"{ran - len(failures)}/{ran} ok ({skipped} skipped as "
          f"not distributed-eligible); {len(failures)} failures")
    for reason, n in sorted(skip_reasons.items(), key=lambda kv: -kv[1]):
        print(f"  skipped {n}x: {reason}")
    if args.minimize and failures:
        print("note: --minimize is single-sim only; storing full "
              "distributed reproducers")
    for result in failures:
        if args.record_dir is not None:
            run_dir = os.path.join(args.record_dir, result.deck["name"])
            rerun = run_deck_distributed(Deck.from_dict(result.deck),
                                         result.ranks,
                                         backend=result.backend,
                                         record_dir=run_dir)
            if rerun.failed:
                print(f"  crash dump -> {run_dir}/crash.json")
        if args.save_corpus is not None:
            key = (f"guard:{result.check}"
                   if result.status == "guard" else
                   "error:" + (result.message or "?").split("(")[0])
            path = save_entry(
                CorpusEntry(deck=result.deck, expect=key,
                            note=f"distributed fuzz finding at "
                                 f"{result.ranks} ranks "
                                 f"({result.backend} backend, "
                                 f"untriaged): edit 'expect'/'note' "
                                 f"after root-causing",
                            found=result.to_dict()),
                args.save_corpus)
            print(f"  corpus entry -> {path}")
    return 0


def cmd_fuzz(args) -> int:
    import os

    from repro.fuzz import (CorpusEntry, DeckGenerator, minimize,
                            run_deck, save_entry)
    from repro.vpic.deck import Deck

    if getattr(args, "ranks", None):
        try:
            rank_counts = [int(tok) for tok in args.ranks.split(",")]
        except ValueError:
            print(f"--ranks wants a comma list of rank counts "
                  f"(e.g. 2,4,8), got {args.ranks!r}")
            return 2
        if any(n < 1 for n in rank_counts):
            print(f"--ranks counts must be >= 1, got {rank_counts}")
            return 2
        return _fuzz_ranks(args, rank_counts)

    gen = DeckGenerator(seed=args.seed)
    print(f"fuzzing {args.runs} decks (seed {args.seed}, "
          f"guard=raise, full deck length each)")
    failures = []
    lanes: dict[str, int] = {}
    for i, deck in gen.decks(args.runs):
        result = run_deck(deck)
        lane = result.lane if result.lane == "native-step" else "demoted"
        lanes[lane] = lanes.get(lane, 0) + 1
        if result.failed:
            failures.append(result)
            print(f"  FAIL {result.headline()}")
    print(f"{args.runs - len(failures)}/{args.runs} ok "
          f"({lanes.get('native-step', 0)} on the native lane, "
          f"{lanes.get('demoted', 0)} demoted); "
          f"{len(failures)} failures")
    for result in failures:
        entry_deck = result.deck
        entry_result = result
        if args.minimize:
            report = minimize(result)
            entry_deck = report.minimized
            entry_result = report.result
            print(f"\nminimized {result.deck['name']}: "
                  f"{report.reduction()} ({report.runs_used} reruns)")
            print(f"  {report.result.headline()}")
            print("  reproducer: "
                  + Deck.from_dict(report.minimized).to_json(indent=None))
        if args.record_dir is not None:
            run_dir = os.path.join(args.record_dir,
                                   entry_deck["name"])
            rerun = run_deck(Deck.from_dict(entry_deck),
                             record_dir=run_dir)
            if rerun.failed:
                print(f"  crash dump -> {run_dir}/crash.json")
        if args.save_corpus is not None:
            key = (f"guard:{entry_result.check}"
                   if entry_result.status == "guard" else
                   "error:" + (entry_result.message or "?").split("(")[0])
            path = save_entry(
                CorpusEntry(deck=entry_deck, expect=key,
                            note="fuzz finding (untriaged): edit "
                                 "'expect'/'note' after root-causing",
                            found=entry_result.to_dict()),
                args.save_corpus)
            print(f"  corpus entry -> {path}")
    return 0


def cmd_watch(args) -> int:
    from repro.observability.watch import watch_run
    return watch_run(args.run_dir, interval=args.interval,
                     once=args.once, timeout=args.timeout)


def cmd_bench(args) -> int:
    import json as _json

    from repro.bench.history import format_history, history_rows
    if args.action == "history":
        if args.json:
            print(_json.dumps(history_rows(), indent=1))
        else:
            print(format_history())
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VPIC 2.0 performance-portability reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-deck", help="run a workload deck")
    p.add_argument("deck", choices=_DECKS)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="export a Chrome-trace JSON of the run")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="export the metrics registry (.json or .csv)")
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="write an HTML counter-attribution dashboard "
                        "(modeled on A100) for the run")
    p.add_argument("--guard", nargs="?", const="raise", default=None,
                   choices=("warn", "raise", "repair"), metavar="POLICY",
                   help="screen the run with the physics guard "
                        "(warn|raise|repair; bare --guard means raise)")
    p.add_argument("--reference-step", action="store_true",
                   help="force the reference kernel-by-kernel step "
                        "path instead of the fused fast path")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="run N deck replicas (seeds SEED..SEED+N-1) "
                        "round-robin through the batched native "
                        "stepper; byte-identical to N separate runs")
    p.add_argument("--record", nargs="?", const=1, default=None,
                   type=int, metavar="STRIDE",
                   help="stream the run into an on-disk flight log "
                        "sampling every STRIDE-th step (bare "
                        "--record means every step)")
    p.add_argument("--record-dir", metavar="DIR", default=None,
                   help="flight-log directory "
                        "(default <deck>-flight)")
    p.add_argument("--serve", nargs="?", const="jsonl", default=None,
                   choices=("jsonl", "sse"), metavar="MODE",
                   help="also publish the flight log on a localhost "
                        "socket (jsonl|sse; bare --serve means jsonl)")
    p.add_argument("--ranks", type=int, default=1, metavar="N",
                   help="decompose the deck over N distributed ranks "
                        "(default 1: plain single-sim run)")
    p.add_argument("--backend", default="threads",
                   choices=("threads", "processes"),
                   help="rank execution backend for --ranks: 'threads' "
                        "steps ranks in-process under serialized "
                        "barriers (the bit-identity reference); "
                        "'processes' forks one worker per rank over "
                        "shared memory with the overlapped halo "
                        "schedule (default threads)")
    p.add_argument("--serialized", action="store_true",
                   help="with --backend processes: disable halo "
                        "overlap and run the serialized exchange "
                        "schedule (for overlap A/B measurements)")
    p.set_defaults(fn=cmd_run_deck)

    p = sub.add_parser("profile",
                       help="counter-attribution profile + dashboard")
    p.add_argument("deck", choices=_DECKS)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ranks", type=int, default=4,
                   help="simulated MPI ranks (default 4)")
    p.add_argument("--platform", default="A100",
                   help="Table-1 platform the counters are modeled on")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="dashboard path (default <deck>-profile.html)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="also export the merged per-rank Chrome trace")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("trace", help="trace a deck + overhead report")
    p.add_argument("deck", choices=_DECKS)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="trace output path (default <deck>-trace.json)")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="also export the metrics registry")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("tune", help="hardware-targeted plan")
    p.add_argument("platform", help="Table-1 platform name or 'host'")
    p.add_argument("--grid-points", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("platforms", help="list the platform registry")
    p.set_defaults(fn=cmd_platforms)

    p = sub.add_parser("figures", help="regenerate figure tables")
    p.add_argument("which", choices=("all", "fig3", "fig5", "fig6",
                                     "fig9"), default="all", nargs="?")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("scaling", help="strong-scaling curve")
    p.add_argument("system", choices=("Sierra", "Selene", "Tuolumne"))
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("report", help="regenerate the full evaluation")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="export the metrics registry (.json or .csv), "
                        "including perfmodel/memo_* counters and "
                        "report/section_seconds")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("checkpoint", help="run + checkpoint-roundtrip")
    p.add_argument("deck", choices=_DECKS)
    p.add_argument("path")
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser("watch",
                       help="follow a recorded run's flight log live")
    p.add_argument("run_dir",
                   help="flight-log directory written by "
                        "run-deck --record")
    p.add_argument("--interval", type=float, default=0.5,
                   help="screen refresh period in seconds "
                        "(default 0.5)")
    p.add_argument("--once", action="store_true",
                   help="render the current state once and exit "
                        "(no live following)")
    p.add_argument("--timeout", type=float, default=None,
                   help="stop following after this many seconds "
                        "even if the run has not ended")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("bench",
                       help="list this host's perfbench envelopes")
    p.add_argument("action", choices=("history",),
                   help="'history': one row per envelope in "
                        "perfbench/out/, newest first")
    p.add_argument("--json", action="store_true",
                   help="emit the rows as JSON instead of a table")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate",
                       help="run a deck under the physics guard")
    p.add_argument("deck", choices=_DECKS)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="raise",
                   choices=("warn", "raise", "repair"),
                   help="action on invariant violation (default raise)")
    p.add_argument("--checkpoint-interval", type=int, default=20,
                   help="auto-checkpoint cadence for rollback (repair "
                        "policy; default 20 steps)")
    p.add_argument("--overhead", action="store_true",
                   help="also measure guard overhead vs an unguarded run")
    p.add_argument("--lane", default=None,
                   choices=tuple(_LANE_PLANS),
                   help="ask for a step lane instead of the default "
                        "(numpy: kernel-by-kernel numpy step; push: "
                        "native push, Python step; native: whole-step "
                        "native; reference: kernel-by-kernel reference "
                        "path); the deck may still demote it, and the "
                        "resolved lane is printed")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "fuzz", help="guard-driven deck fuzzer")
    p.add_argument("--runs", type=int, default=50,
                   help="number of randomized decks (default 50)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; (seed, index) reproduces "
                        "any deck exactly")
    p.add_argument("--minimize", action="store_true",
                   help="delta-debug each failure to a minimal "
                        "reproducer")
    p.add_argument("--record-dir", metavar="DIR", default=None,
                   help="re-run each failure under a flight recorder "
                        "and dump DIR/<deck>/crash.json")
    p.add_argument("--save-corpus", metavar="DIR", default=None,
                   help="write each failure as an untriaged corpus "
                        "entry under DIR (e.g. tests/corpus)")
    p.add_argument("--ranks", metavar="N1,N2,...", default=None,
                   help="fuzz the distributed driver instead: run "
                        "deck i at rank count Ni (cycled) under the "
                        "per-rank guard; ineligible decks are "
                        "counted and skipped")
    p.add_argument("--backend", default="processes",
                   choices=("threads", "processes"),
                   help="rank backend for --ranks fuzzing (default "
                        "processes: forked workers + overlapped "
                        "halo schedule)")
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
