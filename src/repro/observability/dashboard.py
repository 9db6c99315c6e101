"""Self-contained HTML performance dashboard (``repro profile``).

One profiled run folds into one HTML file with zero external
dependencies — inline CSS and SVG only, loadable from disk anywhere:

- stat tiles (deck, platform, ranks, load imbalance, halo wait);
- an SVG log-log roofline with one labeled point per profiled kernel
  (the reproduction's Figure 8 view);
- the top-kernel table with the modeled counters
  (:mod:`repro.observability.counters`);
- a per-rank stacked time-split chart plus table (Figures 9-10 view);
- per-step field / push / sort deltas against the newest perfbench
  envelope that measured the deck on this host
  (:func:`repro.bench.history.phase_baseline`).

:func:`profile_deck` is the driver behind ``repro profile <deck>``:
it runs the deck distributed under a
:class:`~repro.observability.rank_profile.RankProfiler` and a
:class:`~repro.observability.counters.CounterTool`, binds the push
kernels' real voxel orderings to the counter model afterwards, and
returns a :class:`ProfileBundle` ready to render or export.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field

from repro.observability.timeseries import phase_of

__all__ = [
    "ProfileBundle",
    "profile_deck",
    "render_dashboard",
    "save_dashboard",
    "load_baseline",
    "baseline_deltas",
    "lane_occupancy",
]


def load_baseline(deck_name: str | None = None) -> dict | None:
    """The perfbench baseline for the deck named *deck_name*, or None
    when no deck is named or no envelope on this host measured it."""
    if deck_name is None:
        return None
    from repro.bench.history import phase_baseline
    return phase_baseline(deck_name)


def baseline_deltas(kernel_seconds: dict, steps: int,
                    baseline: dict | None) -> list[dict]:
    """Per-step field / push / sort time of this run vs *baseline*.

    This run's kernel labels fold into phases through
    :func:`~repro.observability.timeseries.phase_of`; a phase either
    side never ran is left out. Every row names the envelope and
    workload the baseline came from.
    """
    if not baseline:
        return []
    current: dict[str, float] = {}
    for name, sec in kernel_seconds.items():
        phase = phase_of(name)
        current[phase] = current.get(phase, 0.0) + sec
    deltas = []
    for phase, base_per_step in baseline["seconds_per_step"].items():
        now_per_step = current.get(phase, 0.0) / max(1, steps)
        if base_per_step <= 0 or now_per_step <= 0:
            continue
        deltas.append({
            "name": phase,
            "baseline_ms_per_step": base_per_step * 1e3,
            "current_ms_per_step": now_per_step * 1e3,
            "delta_fraction": now_per_step / base_per_step - 1.0,
            "source": baseline["source"],
        })
    return deltas


@dataclass
class ProfileBundle:
    """Everything one profiled run produced, ready to render."""

    deck_name: str
    platform_name: str
    n_ranks: int
    steps: int
    roofline: object                    # RooflineProfiler
    kernel_rows: list                   # CounterTool.rows()
    rank_report: object | None = None   # RankProfileReport
    rank_profiler: object | None = None  # RankProfiler (trace export)
    metrics: dict = field(default_factory=dict)
    deltas: list = field(default_factory=list)
    baseline_note: str = ""

    def save_trace(self, path: str) -> str | None:
        """Write the merged per-rank Chrome trace, if one was taken."""
        if self.rank_profiler is None:
            return None
        return self.rank_profiler.save(path)


def profile_deck(deck, platform=None, n_ranks: int = 4,
                 capacity: int = 65536) -> ProfileBundle:
    """Run *deck* distributed under the full profiler stack.

    Decks carrying ``field_init``/``perturbation`` callables are
    profiled with those stripped — the distributed driver supports
    plain decks only, and the kernels under study (push, halo, field
    advance) are unaffected by the initial condition's shape.
    """
    import dataclasses

    import numpy as np

    from repro.bench.push_bench import push_trace_from_keys
    from repro.kokkos.profiling import profiling_session
    from repro.machine.specs import get_platform
    from repro.mpi.distributed import DistributedSimulation
    from repro.observability.callbacks import (register_tool,
                                               unregister_tool)
    from repro.observability.counters import CounterTool
    from repro.observability.metrics import default_registry
    from repro.observability.rank_profile import RankProfiler
    from repro.observability.roofline_profiler import RooflineProfiler
    from repro.perfmodel.kernel_cost import push_kernel_cost

    if platform is None:
        platform = get_platform("A100")
    if deck.field_init is not None or deck.perturbation is not None:
        deck = dataclasses.replace(deck, field_init=None,
                                   perturbation=None)

    profiler = RankProfiler(n_ranks, capacity=capacity)
    tool = CounterTool(platform)
    with profiling_session():
        sim = DistributedSimulation(deck, n_ranks)
        register_tool(profiler)
        register_tool(tool)
        try:
            sim.run(deck.num_steps)
        finally:
            unregister_tool(tool)
            unregister_tool(profiler)

        # Bind the push kernels to the voxel orderings the particles
        # actually ended in — the same post-hoc attribution a vendor
        # profiler does when it replays counters against a kernel.
        cost = push_kernel_cost()
        table = sim.ranks[0].grid.n_voxels
        for si, cfg in enumerate(deck.species):
            parts = [rs.species[si].live("voxel") for rs in sim.ranks
                     if rs.species[si].n > 0]
            if not parts:
                continue
            keys = np.ascontiguousarray(np.concatenate(parts),
                                        dtype=np.int64)
            tool.bind(f"push/{cfg.name}",
                      push_trace_from_keys(keys, table, atomic=True),
                      cost)

    rank_report = profiler.report()
    baseline = load_baseline(deck.name)
    kernel_seconds = {name: acc.seconds
                      for name, acc in tool.measured.items()}
    deltas = baseline_deltas(kernel_seconds, deck.num_steps, baseline)
    note = "" if baseline else (
        f"no perfbench envelope on this host measured {deck.name} — "
        f"run `python3 perfbench/run.py` for a regression panel")
    return ProfileBundle(
        deck_name=deck.name,
        platform_name=platform.name,
        n_ranks=n_ranks,
        steps=deck.num_steps,
        roofline=RooflineProfiler.from_counter_tool(tool),
        kernel_rows=tool.rows(),
        rank_report=rank_report,
        rank_profiler=profiler,
        metrics=default_registry().snapshot(),
        deltas=deltas,
        baseline_note=note,
    )


# --------------------------------------------------------------------------
# HTML rendering
# --------------------------------------------------------------------------

# Validated reference palette (light / dark): categorical slots 1-3,
# chart chrome, and status steps — see the repo's dashboard docs.
_CSS = """
:root { color-scheme: light dark; }
body { margin: 0; padding: 24px; background: #f9f9f7;
       font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #006300; --bad: #d03b3b;
  --border: rgba(11,11,11,0.10);
  color: var(--text-primary);
  max-width: 980px; margin: 0 auto;
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; }
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --good: #0ca30c; --bad: #e66767;
    --border: rgba(255,255,255,0.10);
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 10px;
               color: var(--text-primary); }
.viz-root .sub { color: var(--text-secondary); font-size: 13px;
                 margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 12px 16px; min-width: 120px; }
.tile .v { font-size: 22px; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
.card { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 16px; }
table.data { border-collapse: collapse; width: 100%; font-size: 13px; }
table.data th { text-align: right; color: var(--text-secondary);
                font-weight: 600; padding: 6px 10px;
                border-bottom: 1px solid var(--axis); }
table.data th:first-child, table.data td:first-child
  { text-align: left; }
table.data td { text-align: right; padding: 5px 10px;
                border-bottom: 1px solid var(--grid);
                font-variant-numeric: tabular-nums; }
.legend { display: flex; gap: 16px; font-size: 12px;
          color: var(--text-secondary); margin: 4px 0 10px; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
                border-radius: 2px; margin-right: 5px; }
.delta-up { color: var(--bad); }
.delta-down { color: var(--good); }
.note { color: var(--muted); font-size: 12px; }
.footer { margin-top: 28px; color: var(--text-secondary);
          font-size: 12px; line-height: 1.6; }
svg text { font-family: system-ui, -apple-system, "Segoe UI",
           sans-serif; }
"""


def _fmt(value: float, digits: int = 2) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return "∞" if value > 0 else "-"
    return f"{value:.{digits}f}"


def _tile(label: str, value: str) -> str:
    return (f'<div class="tile"><div class="v">{html.escape(value)}'
            f'</div><div class="k">{html.escape(label)}</div></div>')


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo), math.floor(hi) + 1))


def _roofline_svg(profiler, width: int = 720, height: int = 380) -> str:
    """Inline SVG log-log roofline with direct-labeled kernel points."""
    model = profiler.model
    entries = [e for e in profiler.entries.values()
               if 0 < e.point.arithmetic_intensity < float("inf")
               and e.point.gflops > 0]
    if not entries:
        return '<p class="note">(no roofline points)</p>'
    ais = [e.point.arithmetic_intensity for e in entries]
    gfs = [e.point.gflops for e in entries]
    ridge = math.log10(model.ridge_point)
    peak = math.log10(model.peak_gflops)
    x0 = math.log10(min(min(ais), model.ridge_point) / 4)
    x1 = math.log10(max(max(ais), model.ridge_point) * 4)
    y1 = peak + math.log10(2)
    y0 = math.log10(min(min(gfs) / 4, model.peak_gflops / 1e4))
    ml, mr, mt, mb = 64, 18, 14, 46

    def sx(lx: float) -> float:
        return ml + (lx - x0) / (x1 - x0) * (width - ml - mr)

    def sy(ly: float) -> float:
        return mt + (1 - (ly - y0) / (y1 - y0)) * (height - mt - mb)

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Roofline of profiled kernels on '
             f'{html.escape(model.platform.name)}">']
    # Decade gridlines + tick labels.
    for d in _decades(x0, x1):
        parts.append(f'<line x1="{sx(d):.1f}" y1="{mt}" '
                     f'x2="{sx(d):.1f}" y2="{height - mb}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{sx(d):.1f}" y="{height - mb + 16}" '
                     f'fill="var(--muted)" font-size="11" '
                     f'text-anchor="middle">{10.0 ** d:g}</text>')
    for d in _decades(y0, y1):
        parts.append(f'<line x1="{ml}" y1="{sy(d):.1f}" '
                     f'x2="{width - mr}" y2="{sy(d):.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 8}" y="{sy(d):.1f}" '
                     f'fill="var(--muted)" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">'
                     f'{10.0 ** d:g}</text>')
    # The ceiling: bandwidth slope up to the ridge, then flat at peak.
    bw_y0 = x0 + math.log10(model.bandwidth_gbs)
    parts.append(
        f'<polyline fill="none" stroke="var(--text-secondary)" '
        f'stroke-width="2" points="{sx(x0):.1f},{sy(bw_y0):.1f} '
        f'{sx(ridge):.1f},{sy(peak):.1f} '
        f'{sx(x1):.1f},{sy(peak):.1f}"/>')
    parts.append(f'<text x="{sx(ridge):.1f}" y="{sy(peak) - 8:.1f}" '
                 f'fill="var(--text-secondary)" font-size="11" '
                 f'text-anchor="middle">peak '
                 f'{model.peak_gflops:.0f} GFLOP/s · ridge AI '
                 f'{model.ridge_point:.1f}</text>')
    # Kernel points: one series (identity via direct labels), 2px
    # surface ring so overlapping marks stay separable.
    for entry in entries:
        p = entry.point
        cx, cy = sx(math.log10(p.arithmetic_intensity)), \
            sy(math.log10(p.gflops))
        tip = (f"{p.label}: AI {p.arithmetic_intensity:.2f} FLOP/B, "
               f"{p.gflops:.1f} GFLOP/s, "
               f"{model.utilization(p) * 100:.1f}% of peak")
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="6" '
            f'fill="var(--series-1)" stroke="var(--surface-1)" '
            f'stroke-width="2"><title>{html.escape(tip)}</title>'
            f'</circle>')
        parts.append(
            f'<text x="{cx + 10:.1f}" y="{cy + 4:.1f}" '
            f'fill="var(--text-primary)" font-size="12">'
            f'{html.escape(p.label)}</text>')
    # Axis titles.
    parts.append(f'<text x="{(ml + width - mr) / 2:.0f}" '
                 f'y="{height - 8}" fill="var(--text-secondary)" '
                 f'font-size="12" text-anchor="middle">'
                 f'arithmetic intensity (FLOP/byte)</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2:.0f}" '
                 f'fill="var(--text-secondary)" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(mt + height - mb) / 2:.0f})">GFLOP/s</text>')
    parts.append("</svg>")
    return "".join(parts)


_RANK_SERIES = (("push", "var(--series-1)"),
                ("field", "var(--series-3)"),
                ("comm", "var(--series-2)"),
                ("other", "var(--muted)"))


def _rank_bars_svg(report, width: int = 720) -> str:
    """Stacked per-rank time split (2px surface gaps between fills)."""
    rows = report.rows()
    if not rows:
        return '<p class="note">(no rank activity)</p>'
    busy_max = max(r["busy_seconds"] for r in rows) or 1.0
    bar_h, gap, label_w = 24, 10, 64
    height = len(rows) * (bar_h + gap) + 6
    plot_w = width - label_w - 90
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Per-rank time split">']
    for i, row in enumerate(rows):
        y = i * (bar_h + gap) + 3
        parts.append(f'<text x="{label_w - 10}" y="{y + bar_h / 2 + 4}" '
                     f'fill="var(--text-secondary)" font-size="12" '
                     f'text-anchor="end">rank {row["rank"]}</text>')
        x = float(label_w)
        for key, color in _RANK_SERIES:
            sec = row[f"{key}_seconds"]
            if sec <= 0:
                continue
            w = sec / busy_max * plot_w
            tip = f"rank {row['rank']} {key}: {sec * 1e3:.2f} ms"
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" '
                f'width="{max(w - 2, 1):.1f}" height="{bar_h}" '
                f'rx="2" fill="{color}">'
                f'<title>{html.escape(tip)}</title></rect>')
            x += w
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h / 2 + 4}" '
                     f'fill="var(--text-secondary)" font-size="12">'
                     f'{row["busy_seconds"] * 1e3:.1f} ms</text>')
    parts.append("</svg>")
    return "".join(parts)


def _legend() -> str:
    items = "".join(
        f'<span><span class="chip" style="background:{color}"></span>'
        f'{name}</span>' for name, color in _RANK_SERIES)
    return f'<div class="legend">{items}</div>'


#: Step-lane display order + colors (the lane vocabulary of the
#: ``step_lane/*`` counters).
_LANE_SERIES = (("native-step", "var(--series-1)"),
                ("native-push", "var(--series-3)"),
                ("numpy-fused", "var(--series-2)"),
                ("reference", "var(--muted)"))


def lane_occupancy(counters: dict) -> dict:
    """Steps per execution lane from the ``step_lane/*`` counters."""
    return {name: int(counters[f"step_lane/{name}"])
            for name, _ in _LANE_SERIES
            if counters.get(f"step_lane/{name}", 0) > 0}


def _lane_bar_svg(occupancy: dict, width: int = 720) -> str:
    """One stacked bar: share of steps each lane executed."""
    total = sum(occupancy.values())
    if total <= 0:
        return '<p class="note">(no step-lane counters)</p>'
    bar_h, label_w = 24, 64
    height = bar_h + 6
    plot_w = width - label_w - 90
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Share of steps per execution lane">']
    parts.append(f'<text x="{label_w - 10}" y="{3 + bar_h / 2 + 4}" '
                 f'fill="var(--text-secondary)" font-size="12" '
                 f'text-anchor="end">steps</text>')
    x = float(label_w)
    for name, color in _LANE_SERIES:
        n = occupancy.get(name, 0)
        if n <= 0:
            continue
        w = n / total * plot_w
        tip = f"{name}: {n} steps ({n / total:.1%})"
        parts.append(
            f'<rect x="{x:.1f}" y="3" '
            f'width="{max(w - 2, 1):.1f}" height="{bar_h}" '
            f'rx="2" fill="{color}">'
            f'<title>{html.escape(tip)}</title></rect>')
        x += w
    parts.append(f'<text x="{x + 6:.1f}" y="{3 + bar_h / 2 + 4}" '
                 f'fill="var(--text-secondary)" font-size="12">'
                 f'{total} steps</text>')
    parts.append("</svg>")
    items = "".join(
        f'<span><span class="chip" style="background:{color}"></span>'
        f'{name} {occupancy[name] / total:.0%}</span>'
        for name, color in _LANE_SERIES if occupancy.get(name, 0) > 0)
    return f'<div class="legend">{items}</div>' + "".join(parts)


def _kernel_table(rows: list) -> str:
    head = ("<tr><th>kernel</th><th>time ms</th><th>launches</th>"
            "<th>AI</th><th>GFLOP/s</th><th>LLC hit</th>"
            "<th>coalescing</th><th>lanes</th><th>conflicts</th></tr>")
    body = []
    for r in rows:
        c = r["counters"]
        if c is None:
            extra = "<td>-</td>" * 6
        else:
            extra = (f"<td>{_fmt(c.arithmetic_intensity)}</td>"
                     f"<td>{_fmt(c.gflops, 1)}</td>"
                     f"<td>{_fmt(c.cache_hit_rate)}</td>"
                     f"<td>{_fmt(c.coalescing_efficiency)}</td>"
                     f"<td>{_fmt(c.vector_lane_utilization)}</td>"
                     f"<td>{c.atomic_conflicts:,}</td>")
        body.append(f"<tr><td>{html.escape(r['name'])}</td>"
                    f"<td>{r['seconds'] * 1e3:.2f}</td>"
                    f"<td>{r['launches']}</td>{extra}</tr>")
    return f'<table class="data">{head}{"".join(body)}</table>'


def _rank_table(report) -> str:
    head = ("<tr><th>rank</th><th>push ms</th><th>field ms</th>"
            "<th>comm ms</th><th>other ms</th><th>busy ms</th></tr>")
    body = "".join(
        f"<tr><td>rank {r['rank']}</td>"
        f"<td>{r['push_seconds'] * 1e3:.2f}</td>"
        f"<td>{r['field_seconds'] * 1e3:.2f}</td>"
        f"<td>{r['comm_seconds'] * 1e3:.2f}</td>"
        f"<td>{r['other_seconds'] * 1e3:.2f}</td>"
        f"<td>{r['busy_seconds'] * 1e3:.2f}</td></tr>"
        for r in report.rows())
    return f'<table class="data">{head}{body}</table>'


def _delta_table(deltas: list) -> str:
    head = ("<tr><th>phase</th><th>baseline ms/step</th>"
            "<th>current ms/step</th><th>delta</th>"
            "<th>baseline from</th></tr>")
    body = []
    for d in deltas:
        frac = d["delta_fraction"]
        cls = "delta-up" if frac > 0.02 else \
            ("delta-down" if frac < -0.02 else "")
        arrow = "▲ " if frac > 0.02 else ("▼ " if frac < -0.02 else "")
        body.append(
            f"<tr><td>{html.escape(d['name'])}</td>"
            f"<td>{d['baseline_ms_per_step']:.3f}</td>"
            f"<td>{d['current_ms_per_step']:.3f}</td>"
            f'<td class="{cls}">{arrow}{frac:+.1%}</td>'
            f"<td>{html.escape(d['source'])}</td></tr>")
    return f'<table class="data">{head}{"".join(body)}</table>'


def render_dashboard(bundle: ProfileBundle) -> str:
    """The full self-contained dashboard HTML document."""
    report = bundle.rank_report
    tiles = [
        _tile("deck", bundle.deck_name),
        _tile("platform", bundle.platform_name),
        _tile("ranks", str(bundle.n_ranks)),
        _tile("steps", str(bundle.steps)),
    ]
    if report is not None:
        tiles.append(_tile("load imbalance",
                           f"{report.load_imbalance:.3f}"))
        tiles.append(_tile("halo wait",
                           f"{report.halo_wait_fraction:.1%}"))
    counters = bundle.metrics.get("counters", {})
    if counters.get("mpi/messages"):
        tiles.append(_tile("MPI messages",
                           f"{counters['mpi/messages']:,}"))

    sections = [
        f'<h1>Performance profile — {html.escape(bundle.deck_name)}'
        f'</h1>',
        f'<div class="sub">modeled counters on '
        f'{html.escape(bundle.platform_name)} · '
        f'{bundle.n_ranks} simulated ranks · '
        f'{bundle.steps} steps</div>',
        f'<div class="tiles">{"".join(tiles)}</div>',
        f'<h2>Roofline (cf. paper Fig. 8)</h2>'
        f'<div class="card">{_roofline_svg(bundle.roofline)}</div>',
        f'<h2>Kernels</h2>'
        f'<div class="card">{_kernel_table(bundle.kernel_rows)}</div>',
    ]
    if report is not None:
        sections.append(
            f'<h2>Rank time split (cf. paper Figs. 9-10)</h2>'
            f'<div class="card">{_legend()}'
            f'{_rank_bars_svg(report)}{_rank_table(report)}</div>')
    occupancy = lane_occupancy(counters)
    if occupancy:
        sections.append(
            f'<h2>Lane occupancy</h2>'
            f'<div class="card">{_lane_bar_svg(occupancy)}'
            f'<p class="note">which execution lane each recorded step '
            f'took: whole-step C (native-step), per-species compiled '
            f'push (native-push), the fused numpy path, or the '
            f'reference kernels.</p></div>')
    if bundle.deltas:
        sections.append(
            f'<h2>Regression vs perfbench baseline</h2>'
            f'<div class="card">{_delta_table(bundle.deltas)}'
            f'<p class="note">baseline: the deck stepped as one '
            f'<code>run-deck</code> process, as perfbench measured it on '
            f'this host; current: this profiled run, summed over its '
            f'ranks.</p></div>')
    elif bundle.baseline_note:
        sections.append(f'<p class="note">'
                        f'{html.escape(bundle.baseline_note)}</p>')
    sections.append(
        '<div class="footer">'
        'Reading this page against the paper: the roofline point per '
        'kernel is the modeled equivalent of an nsight-compute / '
        'rocprof-compute placement — arithmetic intensity uses '
        'cache-filtered DRAM bytes, so better particle ordering moves '
        'points up and right (Fig. 8). The rank lanes split each '
        'simulated rank\'s step into push / field / halo-wait time; '
        'load imbalance is (max−mean)/mean of per-rank push seconds '
        'and halo wait fraction is the communication share of busy '
        'time — the quantities behind the scaling analysis of '
        'Figs. 9-10. Counter definitions live in '
        '<code>repro/observability/counters.py</code>.</div>')

    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>repro profile — {html.escape(bundle.deck_name)}"
        f"</title>\n<style>{_CSS}</style></head>\n"
        f'<body><div class="viz-root">{"".join(sections)}</div>'
        "</body></html>\n")


def save_dashboard(bundle: ProfileBundle, path: str) -> str:
    """Write the dashboard HTML; returns *path*."""
    with open(path, "w") as f:
        f.write(render_dashboard(bundle))
    return path
