"""Every ``perfbench/run.py`` workload command, run as the benchmark runs it.

The benchmark spawns ``python -m repro <command>`` in a fresh process, in
a fresh temporary working directory with ``TMPDIR`` inside it, and counts
a run as failed on a non-zero exit, a missing or non-finite energy line,
an energy line that differs between two runs of the same command, or a
``/dev/shm`` entry left behind. The rest of tier-1 calls the CLI in
process, in an interpreter that has already imported everything, so a
fault that depends on import order, on a fresh process or on relative
paths would first show as a failed benchmark run. This runs each
workload's own command at ``--steps 2`` (and its ``--steps 1`` set-up
command twice, the harness's warm-up rule) under those conditions.

The same runs carry ``-X importtime``, whose report goes to stderr and
changes nothing the run does: the PIC run imports none of the figure
model's packages.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
SEED = 0
#: Packages of the figure model; ``run-deck`` imports none of them.
MODEL_PACKAGES = ("machine", "simd", "perfmodel", "bench", "cluster",
                  "vpic12")

# The two energy-line formats ``perfbench/run.py`` parses.
_ENERGY_STEP = re.compile(
    r"^step \d+: E=\S+ B=\S+ K=\S+ total=(\S+)", re.M)
_ENERGY_RANKS = re.compile(
    r"^energy: KE (\S+)\s+E (\S+)\s+B (\S+)\s*$", re.M)
_IMPORTED = re.compile(r"^import time:.*\|\s*(\S+)\s*$", re.M)


def _workload_commands() -> dict[str, tuple[list[str], list[str]]]:
    """``{name: (set-up command, 2-step command)}`` from the benchmark's
    own ``WORKLOADS``, loaded in a child process: ``run.py`` puts
    ``perfbench/`` first on ``sys.path``, where its ``trace.py`` would
    shadow the standard library's ``trace`` in this one."""
    script = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('run', {str(RUN_PY)!r})\n"
        "run = importlib.util.module_from_spec(spec)\n"
        "sys.modules['run'] = run\n"
        "spec.loader.exec_module(run)\n"
        f"print(json.dumps({{w.name: (w.command({SEED}, 1), "
        f"w.command({SEED}, 2)) for w in run.WORKLOADS}}))\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout)


COMMANDS = _workload_commands()


def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _run(cli_args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``python -X importtime -m repro <cli_args>`` in *cwd*, as the
    benchmark spawns it; asserts the run left no ``/dev/shm`` entry."""
    tmp = cwd / "tmp"
    tmp.mkdir(exist_ok=True)
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp)}
    before = _shm()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *cli_args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (cli_args, proc.stdout[-2000:],
                                  proc.stderr[-2000:])
    assert not _shm() - before, f"leaked /dev/shm {sorted(_shm() - before)}"
    return proc


def _energy_line(stdout: str) -> str:
    """The energy line the benchmark checks, asserted finite."""
    m = _ENERGY_STEP.search(stdout)
    if m is not None:
        total = float(m.group(1))
    else:
        m = _ENERGY_RANKS.search(stdout)
        assert m is not None, f"no energy line in:\n{stdout[-2000:]}"
        total = sum(float(g) for g in m.groups())
    assert math.isfinite(total), m.group(0)
    return m.group(0)


def test_the_workloads_were_read():
    assert COMMANDS, f"no WORKLOADS read from {RUN_PY}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_workload_command_runs_clean_in_a_fresh_process(name, tmp_path):
    setup, full = COMMANDS[name]
    runs = []
    for i, cli_args in enumerate((setup, setup, full)):
        cwd = tmp_path / f"run-{i}"
        cwd.mkdir()
        runs.append(_run(cli_args, cwd))
    first, second, _ = (_energy_line(r.stdout) for r in runs)
    assert first == second, "the --steps 1 command is not deterministic"
    imported = set(_IMPORTED.findall(runs[2].stderr))
    assert "repro.vpic.simulation" in imported
    model = sorted(m for m in imported if m.startswith("repro.")
                   and m.split(".")[1] in MODEL_PACKAGES)
    assert not model, f"run-deck imported the figure model: {model}"
