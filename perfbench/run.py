#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of ``python -m repro run-deck``.

Three ways in, one measuring core:

``run.py --workload NAME --seed N --seconds T --trace 0|1``
    One workload, measured for about T seconds. Prints every metric with
    its unit, then one JSON object as the last line of standard output
    (``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
    metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

``run.py [--seed S] [--workloads a,b] [--repeats R] [--smoke] [--out DIR]``
    Every workload, end to end and layer by layer, written as one envelope
    (``DIR/perfbench-<head>-seed<S>.json``).

``run.py --compare A.json B.json``
    Verdict per workload and end-to-end metric; exits 1 on ``worse``.

End-to-end numbers come from untraced subprocesses, spawn to exit, one at a
time (closed loop, one client). Per-layer numbers come from separate runs
of the same command under ``perfbench/trace.py``. Names, units, directions
and bounds are read from ``BENCHMARK.json``; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402  (sibling module, importable once HERE is on the path)

#: Pairs of (set-up run, full run) a timed measurement never goes below.
MIN_PAIRS = 3
RUN_TIMEOUT_S = 120.0
ORPHAN_GRACE_S = 2.0
#: energy_err a workload may show before it is OUT OF TOLERANCE.
ENERGY_TOL_SINGLE = 1e-3
ENERGY_TOL_RANKS = 2e-2
LANES = ("native-step", "native-push", "numpy-fused", "reference")
#: Flags of the ``observed`` workload; paths are relative to the run's own
#: temporary working directory.
TOOLS = ("--guard", "raise", "--record", "1", "--record-dir", "rec",
         "--metrics", "m.json")


@dataclass(frozen=True)
class Workload:
    """One named ``run-deck`` command. *lane* is the step lane every step
    must take; *prefix* the horizon of the lane-equivalence check."""

    name: str
    deck: str
    steps: int
    lane: str
    extra: tuple[str, ...] = ()
    prefix: int = 10
    tools: bool = False
    model: bool = False

    @property
    def ranks(self) -> int:
        return int(self.extra[self.extra.index("--ranks") + 1]) \
            if "--ranks" in self.extra else 1

    def command(self, seed: int, steps: int, tools: "bool | None" = None,
                extra: "tuple[str, ...] | None" = None) -> list[str]:
        tools = self.tools if tools is None else tools
        extra = self.extra if extra is None else extra
        return ["run-deck", self.deck, "--steps", str(steps),
                "--seed", str(seed), *(TOOLS if tools else ()), *extra]


# Step counts are the issue's divided by about three, so that three
# (set-up, full) pairs fit one 12 s measurement while each full run still
# steps for about 3 s on the 2-CPU reference host. The ranks horizon is the
# deck's own 50 steps: the distributed field instability (known_defects.json)
# makes anything longer time garbage. ``reference-lane`` declares
# ``numpy-fused`` because that is what the ``step_lane/*`` counter calls the
# kernel-by-kernel path whenever the plan is not the pinned reference plan.
WORKLOADS = (
    Workload("push-bound", "laser-plasma", 100, "native-step", prefix=5,
             model=True),
    Workload("small-step", "two-stream", 4000, "native-step"),
    Workload("observed", "uniform", 750, "native-step", tools=True),
    Workload("sources-lane", "wakefield", 1000, "native-push"),
    Workload("reference-lane", "beam-plasma", 64, "numpy-fused"),
    Workload("ranks-procs", "uniform", 50, "native-push",
             extra=("--ranks", "2", "--backend", "processes")),
    Workload("ranks-threads", "uniform", 50, "native-push",
             extra=("--ranks", "2", "--backend", "threads")),
)
BY_NAME = {w.name: w for w in WORKLOADS}

_ENERGY_STEP = re.compile(
    r"^step \d+: E=\S+ B=\S+ K=\S+ total=(\S+)", re.M)
_ENERGY_RANKS = re.compile(
    r"^energy: KE (\S+)\s+E (\S+)\s+B (\S+)\s*$", re.M)
_PARTICLES = re.compile(r"(\d+) particles")


def parse_energy(stdout: str) -> "tuple[str, float] | None":
    """``(line, total energy)`` from either CLI energy format, or None
    when there is no such line or a number in it does not parse."""
    m = _ENERGY_STEP.search(stdout)
    try:
        if m is not None:
            return m.group(0), float(m.group(1))
        m = _ENERGY_RANKS.search(stdout)
        if m is not None:
            return m.group(0), sum(float(g) for g in m.groups())
    except ValueError:
        pass
    return None


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


@dataclass
class Run:
    """Outcome of one subprocess."""

    ok: bool
    wall_s: float
    rss_mb: float
    stdout: str
    energy: float = math.nan
    particles: int = 0


def _group_members(pgid: int) -> list[int]:
    """Live processes whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _child_env(**extra: str) -> dict:
    """This process's environment with ``src/`` first on PYTHONPATH."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@dataclass
class Session:
    """Runs one workload's subprocesses, one at a time, each in a fresh
    temporary directory under *out_dir*, and keeps the failure tally that
    becomes ``fail_frac``."""

    out_dir: Path
    timeout: float = RUN_TIMEOUT_S
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    leaked_shm: int = 0
    leaked_children: int = 0
    _energy_lines: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=self.out_dir))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, cli_args: list[str], trace_out: "Path | None" = None,
            model: bool = False, env: "dict | None" = None) -> Run:
        """``python -m repro <cli_args>`` (or the same under trace.py),
        spawn to exit. A run that fails any check is recorded once in
        ``failures`` and comes back with ``ok=False``."""
        self.attempted += 1
        cwd = Path(tempfile.mkdtemp(prefix="run-", dir=self.tmp))
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "trace.py"),
                    "--out", str(trace_out), *(["--model"] if model else []),
                    "--", *cli_args]
        # TMPDIR: the guard's rollback ring uses tempfile; keep it inside.
        child_env = _child_env(TMPDIR=str(cwd), **(env or {}))
        shm_before = _shm_names()
        timed_out = threading.Event()

        def kill(pgid: int) -> None:
            timed_out.set()
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:      # exited as the timer fired
                pass

        with open(cwd / "stdout.txt", "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(self.timeout, kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = (cwd / "stdout.txt").read_text(errors="replace")

        problems = []
        if timed_out.is_set():
            problems.append(f"timed out after {self.timeout:.0f} s")
        elif proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        # multiprocessing's resource tracker outlives its parent by a few
        # milliseconds; only what is still there after a grace period leaked.
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while (orphans := _group_members(proc.pid)) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        if orphans:
            self.leaked_children += len(orphans)
            problems.append(f"leaked {len(orphans)} child process(es)")
            os.killpg(proc.pid, signal.SIGKILL)
        leaked = _shm_names() - shm_before
        if leaked:
            self.leaked_shm += len(leaked)
            problems.append(f"leaked /dev/shm {sorted(leaked)}")
        run = Run(ok=False, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                  stdout=stdout)
        parsed = parse_energy(stdout)
        if parsed is None or not math.isfinite(parsed[1]):
            problems.append("no finite energy line")
        else:
            line, run.energy = parsed
            first = self._energy_lines.setdefault(tuple(cli_args), line)
            if first != line:
                problems.append(f"energy line differs from an earlier run "
                                f"of the same command: {line!r} vs {first!r}")
        m = _PARTICLES.search(stdout)
        if m is not None:
            run.particles = int(m.group(1))
        if problems:
            self.fail(cli_args, "; ".join(problems), stdout)
        else:
            run.ok = True
        shutil.rmtree(cwd, ignore_errors=True)
        return run

    def fail(self, cli_args: list[str], reason: str, stdout: str = "") -> None:
        self.failures.append(f"{' '.join(cli_args)}: {reason}")
        print(f"FAILED RUN {self.failures[-1]}", file=sys.stderr)
        if stdout and len(self.failures) == 1:
            print(stdout[-2000:], file=sys.stderr)


def summarize(values: list[float]) -> dict:
    """The envelope's record for one number."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "q1": q1, "q3": q3}


def _timed_pairs(seconds: float, repeats: "int | None", minimum: int):
    """Yield pair indices until *repeats* pairs ran or, without *repeats*,
    until another pair as long as the last would overrun *seconds* (but
    never fewer than *minimum*)."""
    t_start = time.perf_counter()
    n = 0
    last = 0.0
    while True:
        if repeats is not None:
            if n >= repeats:
                return
        elif n >= minimum and time.perf_counter() - t_start + last > seconds:
            return
        t = time.perf_counter()
        yield n
        last = time.perf_counter() - t
        n += 1


def measure_e2e(sess: Session, wl: Workload, seed: int, steps: int,
                seconds: float, repeats: "int | None"):
    """Paired (``--steps 1``, full) untraced runs; returns the samples per
    end-to-end metric and the last good full run."""
    setup_cmd = wl.command(seed, 1)
    full_cmd = wl.command(seed, steps)
    # Discarded warm-up: native build cache, bytecode, page cache.
    sess.run(setup_cmd)
    samples: dict[str, list[float]] = {
        "wall_s": [], "setup_s": [], "mpart_steps_per_s": [],
        "peak_rss_mb": []}
    last_full = None
    for _ in _timed_pairs(seconds, repeats, MIN_PAIRS):
        setup = sess.run(setup_cmd)
        full = sess.run(full_cmd)
        if not (setup.ok and full.ok):
            continue
        last_full = full
        samples["wall_s"].append(full.wall_s)
        samples["setup_s"].append(setup.wall_s)
        samples["peak_rss_mb"].append(full.rss_mb)
        if wl.ranks > 1:
            # Stepping is < 10 % of a 50-step ranks run, so the paired
            # difference is noise: rate over the whole wall clock instead.
            rate = full.particles * steps / full.wall_s
        else:
            stepping = full.wall_s - setup.wall_s
            rate = (full.particles * (steps - 1) / stepping
                    if stepping > 0 else 0.0)
        samples["mpart_steps_per_s"].append(rate / 1e6)
    return samples, last_full


def lane_problem(doc: dict, wl: Workload, steps: int) -> "str | None":
    """Why the traced run in *doc* is off the workload's declared lane."""
    taken = {lane: int(doc["counts"].get(f"sim.lane.{lane}", 0))
             for lane in LANES}
    if taken[wl.lane] == steps and sum(taken.values()) == steps:
        return None
    return f"declared lane {wl.lane} for {steps} steps, ran {taken}"


def check_outputs(sess: Session, wl: Workload, seed: int, steps: int,
                  full: Run, trace_dir: Path, traced_reference: bool):
    """Run the workload's reference commands; returns ``(energy_err,
    reference trace document or None)``. Every run made here can fail and
    counts in ``fail_frac`` like any other."""
    prefix = min(wl.prefix, steps)
    twin_cmd = wl.command(seed, prefix)
    twin_path = trace_dir / f"trace-{wl.name}-prefix.json"
    twin = sess.run(twin_cmd, trace_out=twin_path)
    if twin.ok:
        problem = lane_problem(json.loads(twin_path.read_text()), wl, prefix)
        if problem is not None:
            sess.fail(twin_cmd, problem)
    if wl.ranks > 1:
        # Statistical equivalence with the single-process run of the same
        # deck, seed and horizon.
        ref_cmd = wl.command(seed, steps, extra=())
        ref_path = trace_dir / f"trace-{wl.name}-1rank.json"
        ref = sess.run(ref_cmd,
                       trace_out=ref_path if traced_reference else None)
        doc = (json.loads(ref_path.read_text())
               if traced_reference and ref.ok else None)
        return rel_err(full.energy, ref.energy), doc
    # Lane equivalence: the fast lane against the pinned reference step.
    ref = sess.run(wl.command(seed, prefix) + ["--reference-step"])
    err = rel_err(twin.energy, ref.energy)
    if wl.tools:
        # Observing a run must not change it.
        plain = sess.run(wl.command(seed, steps, tools=False))
        err = max(err, rel_err(full.energy, plain.energy))
    return err, None


def measure_layers(sess: Session, wl: Workload, seed: int, steps: int,
                   seconds: float, trace_dir: Path):
    """(untraced, traced) pairs of the full command; returns the samples
    per per-layer metric and the last good untraced run. The last trace
    stays in ``trace-<name>.json``."""
    cmd = wl.command(seed, steps)
    trace_path = trace_dir / f"trace-{wl.name}.json"
    samples: dict[str, list[float]] = {}
    overheads = []
    last_plain = None
    for _ in _timed_pairs(seconds, None, 1):
        plain = sess.run(cmd)
        traced = sess.run(cmd, trace_out=trace_path, model=wl.model)
        if not (plain.ok and traced.ok):
            continue
        last_plain = plain
        doc = json.loads(trace_path.read_text())
        problem = lane_problem(doc, wl, steps)
        if problem is not None:
            sess.fail(cmd, problem)
            continue
        wall = traced.wall_s - doc.get("model", {}).get("probe_s", 0.0)
        overheads.append(wall / plain.wall_s - 1.0)
        for name, value in ladder.derive(doc, wall).items():
            samples.setdefault(name, []).append(value)
    if not samples:
        return samples, last_plain
    med = {name: statistics.median(v) for name, v in samples.items()}
    extra = {
        "trace.overhead_frac": statistics.median(overheads),
        "native.build_cold_s": 0.0, "mpi.serialized_run_s": 0.0,
        "mpi.overlap_eff": 0.0}
    if med["native.load_warm_s"] > 0:
        # Cold start: the same set-up command against an empty build cache.
        cold_path = trace_dir / f"trace-{wl.name}-cold.json"
        cache = Path(tempfile.mkdtemp(prefix="native-cache-", dir=sess.tmp))
        cold = sess.run(wl.command(seed, 1), trace_out=cold_path,
                        env={"REPRO_NATIVE_CACHE": str(cache)})
        if cold.ok:
            extra["native.build_cold_s"] = ladder.Spans(
                json.loads(cold_path.read_text())).inclusive("native.load")
    if wl.ranks > 1 and "processes" in wl.extra:
        ser_path = trace_dir / f"trace-{wl.name}-serialized.json"
        ser = sess.run(cmd + ["--serialized"], trace_out=ser_path)
        if ser.ok:
            ser_m = ladder.derive(json.loads(ser_path.read_text()),
                                  ser.wall_s)
            extra["mpi.serialized_run_s"] = ser_m["mpi.run_s"]
            if ser_m["mpi.halo_wait_s"] > 0:
                extra["mpi.overlap_eff"] = 1.0 - (
                    med["mpi.halo_wait_s"] / ser_m["mpi.halo_wait_s"])
    for name, value in extra.items():
        samples[name] = [value]
    return samples, last_plain


def load_known_defects() -> list[dict]:
    return json.loads((HERE / "known_defects.json").read_text())


def measure_workload(wl: Workload, seed: int, out_dir: Path, *,
                     e2e: bool, layers: bool, seconds: float,
                     repeats: "int | None", smoke: bool) -> dict:
    """Everything for one workload: samples summarized per metric, the
    output check, the failure tally."""
    steps = max(2, wl.steps // 20) if smoke else wl.steps
    sess = Session(out_dir, timeout=60.0 if smoke else RUN_TIMEOUT_S)
    e2e_samples: dict = {}
    layer_samples: dict = {}
    full = None
    try:
        if e2e:
            e2e_samples, full = measure_e2e(sess, wl, seed, steps, seconds,
                                            repeats)
        else:
            sess.run(wl.command(seed, 1))       # discarded warm-up
        if layers:
            layer_samples, plain = measure_layers(sess, wl, seed, steps,
                                                  seconds, out_dir)
            full = full or plain
        if full is None or (layers and not layer_samples):
            raise SystemExit(f"perfbench: no successful run of {wl.name}: "
                             f"{sess.failures}")
        energy_err, ref_doc = check_outputs(
            sess, wl, seed, steps, full, out_dir, traced_reference=layers)
    finally:
        sess.close()
    if layers:
        # Strong scaling against the single Simulation of the same deck
        # and horizon (the ranks workloads' reference command, traced).
        run_s = statistics.median(layer_samples["mpi.run_s"])
        speedup = (ladder.Spans(ref_doc).inclusive("sim.run") / run_s
                   if ref_doc is not None and run_s > 0 else 0.0)
        layer_samples["mpi.speedup_vs_1rank"] = [speedup]
        layer_samples["mpi.scaling_eff"] = [speedup / wl.ranks]

    tol = ENERGY_TOL_RANKS if wl.ranks > 1 else ENERGY_TOL_SINGLE
    within = math.isfinite(energy_err) and energy_err <= tol
    known = any(d["workload"] == wl.name and d["metric"] == "energy_err"
                for d in load_known_defects())
    if not within:
        print(f"{wl.name}: energy_err {energy_err:.4g} OUT OF TOLERANCE "
              f"({tol:g})" + (" - known defect, see known_defects.json"
                              if known else ""))
    checks = {"energy_err": energy_err,
              "fail_frac": sess.failed / sess.attempted}
    if layers:
        layer_samples["mpi.leaked_shm"] = [float(sess.leaked_shm)]
        layer_samples["mpi.leaked_children"] = [float(sess.leaked_children)]
        for name, value in checks.items():
            layer_samples[name] = [value]
    return {
        "command": wl.command(seed, steps),
        "end_to_end": {k: summarize(v) for k, v in e2e_samples.items()},
        "per_layer": {k: summarize(v) for k, v in layer_samples.items()},
        "checks": checks,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "failures": sess.failures,
        "correct": sess.failed == 0 and (within or known),
    }


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_metrics(title: str, stats: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, s in stats.items():
        spread = (f"  [{s['min']:.6g} .. {s['max']:.6g}, n={s['n']}]"
                  if s["n"] > 1 else "")
        print(f"{name:34s} {s['median']:>14.6g} {units.get(name, '?'):14s}"
              f"{spread}")


def host_envelope(seed: int, smoke: bool) -> dict:
    """Who measured: host, interpreter, and the native build the
    subprocesses load (asked of a subprocess; the harness itself never
    imports ``repro``)."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy; from repro.vpic import native; "
         "print(numpy.__version__); print(native.native_build_key()); "
         "print(native.native_status())"],
        env=_child_env(),
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    numpy_version, build_key, status = (
        probe.stdout.splitlines() + ["unknown"] * 3)[:3]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return {
        "schema": "perfbench/1",
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_head": head.stdout.strip() if head.returncode == 0 else "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "native_build_key": build_key,
        "native_status": status,        # compiler, flags, library path
        "seed": seed,
        "smoke": smoke,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def cmd_contract(args, contract: dict) -> int:
    wl = BY_NAME[args.workload]
    layers = bool(args.trace)
    section = "per_layer" if layers else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    result = measure_workload(
        wl, args.seed, args.out, e2e=not layers, layers=layers,
        seconds=args.seconds, repeats=None, smoke=args.smoke)
    stats = result[section]
    print_metrics(f"{wl.name} seed {args.seed} ({section})", stats, units)
    missing = sorted(set(units) - set(stats))
    if missing:
        raise SystemExit(f"perfbench: no value for {missing}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def cmd_full(args, contract: dict) -> int:
    names = args.workloads.split(",") if args.workloads else list(BY_NAME)
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        raise SystemExit(f"perfbench: unknown workload(s) {unknown}; "
                         f"have {list(BY_NAME)}")
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    envelope = host_envelope(args.seed, args.smoke)
    envelope["known_defects"] = load_known_defects()
    envelope["claim"] = None
    envelope["workloads"] = {}
    for name in names:
        wl = BY_NAME[name]
        repeats = args.repeats
        if repeats is None:
            # Ranks runs are short and share both CPUs: more pairs.
            repeats = 2 if args.smoke else (15 if wl.ranks > 1 else 5)
        result = measure_workload(
            wl, args.seed, args.out, e2e=True, layers=True,
            seconds=2.0 if args.smoke else args.seconds, repeats=repeats,
            smoke=args.smoke)
        envelope["workloads"][name] = result
        print_metrics(f"{name}: end to end ({repeats} pairs)",
                      result["end_to_end"], units)
        print_metrics(f"{name}: per layer", result["per_layer"], units)
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
    tag = "smoke" if args.smoke else envelope["git_head"][:12]
    path = args.out / f"perfbench-{tag}-seed{args.seed}.json"
    path.write_text(json.dumps(envelope, indent=1))
    print(f"envelope -> {path}")
    return 0 if all(w["correct"] for w in envelope["workloads"].values()) \
        else 1


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """*b* against baseline *a* (two ``summarize`` records) for a metric
    whose *better* direction is ``lower`` or ``higher`` and which may get
    worse by *bound* (share of the baseline median)."""
    lower = better == "lower"
    base = abs(a["median"])
    worse_by = (b["median"] - a["median"] if lower
                else a["median"] - b["median"]) / base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    if spread > bound:
        # Too noisy to call on medians; only a gap between every run of b
        # and every run of a still says something.
        gap = b["min"] - a["max"] if lower else a["min"] - b["max"]
        if (b["max"] < a["min"]) if lower else (b["min"] > a["max"]):
            return "better"
        if gap > bound * base:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by * base > a["q3"] - a["q1"]:
        return "better"
    return "same"


def _cell(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}..{s['q3']:.5g}]"


def cmd_compare(args, contract: dict) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    print(f"A: {args.compare[0]} ({a['git_head'][:12]} on {a['host']})")
    print(f"B: {args.compare[1]} ({b['git_head'][:12]} on {b['host']})")
    print(f"{'workload':15s} {'metric':18s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'bound':>6s}  verdict")
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            sa = wa["end_to_end"].get(metric["name"])
            sb = wb["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                continue
            v = verdict(sa, sb, metric["better"], metric["bound"])
            worse += v == "worse"
            print(f"{name:15s} {metric['name']:18s} {_cell(sa):>34s} "
                  f"{_cell(sb):>34s} {metric['bound']:>6.2f}  {v}")
        # Counts and checks carry no bound: they repeat exactly or not.
        for metric in contract["per_layer"]:
            key = metric["name"]
            if metric["unit"] != "count" and key not in wa["checks"]:
                continue
            va = wa["per_layer"].get(key, {}).get("median")
            vb = wb["per_layer"].get(key, {}).get("median")
            if va != vb:
                print(f"{name:15s} {key:18s} {va!s:>34s} {vb!s:>34s} "
                      f"{'exact':>6s}  differs")
    return 1 if worse else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(BY_NAME),
                        help="measure this one workload and print the "
                             "result object as the last line")
    parser.add_argument("--seed", type=int, default=0,
                        help="passed through to run-deck (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one timed measurement "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                             "metrics of traced runs instead")
    parser.add_argument("--workloads", metavar="a,b",
                        help="full run: only these workloads")
    parser.add_argument("--repeats", type=int, default=None,
                        help="full run: (set-up, full) pairs per workload "
                             "(default 5, ranks-* 15)")
    parser.add_argument("--smoke", action="store_true",
                        help="steps / 20, two pairs: exercises every path "
                             "in under a minute, measures nothing")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for traces, envelopes and "
                             "temporary files (default perfbench/out)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two envelopes and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no src/repro/cli.py under {ROOT}: nothing to "
              f"measure", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.compare:
        return cmd_compare(args, contract)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    args.out = args.out.resolve()
    if args.workload:
        return cmd_contract(args, contract)
    return cmd_full(args, contract)


if __name__ == "__main__":
    sys.exit(main())
