"""Bench history: the one reader of ``perfbench/1`` envelopes.

``python3 perfbench/run.py`` writes one envelope per full run into
``perfbench/out/`` (ignored by git: the numbers belong to the host
that took them). Two consumers: ``repro bench history [--json]``
(:func:`history_rows`, :func:`format_history`) and the dashboard's
regression panel (:func:`phase_baseline`). Envelopes are outside
input: a file that is not JSON or not ``perfbench/1`` is skipped.
"""

from __future__ import annotations

import glob
import json
import os

__all__ = ["load_envelopes", "history_rows", "format_history",
           "phase_baseline"]

#: Dashboard phase -> the per-layer metrics that carry it; a workload
#: fills the native-step ones or the kernel-by-kernel ones, never both.
PHASE_METRICS = {
    "field": ("native.c_field_s", "fields.solve_s"),
    "push": ("native.c_push_s", "push.fused_s", "push.reference_s"),
    "sort": ("native.c_sort_s", "sort.apply_s"),
}


def default_dir() -> str:
    """``perfbench/out`` of this checkout (of the working directory
    when the package is installed outside one)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, "..", "..", ".."))
    if not os.path.isdir(os.path.join(root, "perfbench")):
        root = os.getcwd()
    return os.path.join(root, "perfbench", "out")


def load_envelopes(out_dir: str | None = None) -> list[dict]:
    """Every envelope in *out_dir*, newest first by its ``time``; each
    gains a ``file`` key naming where it came from."""
    pattern = os.path.join(glob.escape(out_dir or default_dir()),
                           "perfbench-*.json")
    envelopes = []
    for path in glob.glob(pattern):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if (isinstance(doc, dict) and doc.get("schema") == "perfbench/1"
                and isinstance(doc.get("workloads"), dict)):
            doc["file"] = os.path.basename(path)
            envelopes.append(doc)
    envelopes.sort(key=lambda doc: str(doc.get("time", "")), reverse=True)
    return envelopes


def _median(workload: dict, section: str, metric: str) -> float:
    try:
        return float(workload[section][metric]["median"])
    except (KeyError, TypeError, ValueError):
        return 0.0


def history_rows(out_dir: str | None = None) -> list[dict]:
    """One summary row per envelope, newest first."""
    return [{
        "file": env["file"],
        "git_head": str(env.get("git_head", ""))[:12],
        "host": str(env.get("host", "")),
        "nproc": env.get("nproc"),
        "time": str(env.get("time", "")),
        "seed": env.get("seed"),
        "smoke": bool(env.get("smoke")),
        "mpart_steps_per_s": {
            name: _median(w, "end_to_end", "mpart_steps_per_s")
            for name, w in env["workloads"].items()},
    } for env in load_envelopes(out_dir)]


def format_history(out_dir: str | None = None) -> str:
    """The ``repro bench history`` table."""
    rows = history_rows(out_dir)
    if not rows:
        return (f"no perfbench envelopes in {out_dir or default_dir()} — "
                f"run `python3 perfbench/run.py`")
    return "\n".join(
        f"{r['file']}  {r['git_head'] or '-'}  {r['host']}/{r['nproc']}  "
        f"{r['time']}  seed {r['seed']}{'  smoke' if r['smoke'] else ''}\n"
        f"    Mpart-steps/s: " + "  ".join(
            f"{name} {value:.3g}"
            for name, value in r["mpart_steps_per_s"].items())
        for r in rows)


def phase_baseline(deck_name: str, out_dir: str | None = None) -> dict | None:
    """Per-step field / push / sort seconds of the deck whose
    ``Deck.name`` is *deck_name*: from the newest non-smoke envelope
    with a workload whose ``command`` runs that deck as a single
    ``Simulation`` (``--ranks`` workloads record no ``sim.steps``).
    ``source`` names envelope and workload; ``None`` without one."""
    from repro.vpic.workloads import DECK_BUILDERS, make_deck

    for env in load_envelopes(out_dir):
        if env.get("smoke"):
            continue
        for wl_name, w in env["workloads"].items():
            command = w.get("command") if isinstance(w, dict) else None
            deck_key = str(command[1]) if isinstance(command, list) \
                and len(command) > 1 else ""
            steps = _median(w, "per_layer", "sim.steps")
            if (deck_key in DECK_BUILDERS and steps > 0
                    and make_deck(deck_key).name == deck_name):
                return {"source": f"{env['file']} · {wl_name}",
                        "seconds_per_step": {
                            phase: sum(_median(w, "per_layer", m)
                                       for m in metrics) / steps
                            for phase, metrics in PHASE_METRICS.items()}}
    return None
