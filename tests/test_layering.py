"""The layer order of ``src/repro``, and the test that holds it.

This table is the one place the order is written. Lowest first; a
module may import only from its own layer or a layer below it. Every
``import`` and ``from ... import`` counts, also one inside a function
body, so a deferred import is no way around the order. The PIC run
(``vpic``, ``mpi``, ``validate``, ``fuzz`` on ``kokkos`` and the
observability core) sits above the platform model it may consult
(``machine``, ``simd``, ``perfmodel``) and below the figure model's
benches and views (``bench``, ``cluster``, ``vpic12``), which may
import both.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS = (
    ("_util",),
    ("machine",),
    ("simd",),
    ("kokkos",),
    ("observability",),
    ("perfmodel",),
    ("core",),
    ("vpic",),
    ("mpi",),
    ("validate",),
    ("fuzz",),
    ("bench", "cluster", "vpic12"),
    ("cli", "__main__"),
)
RANK = {unit: i for i, layer in enumerate(LAYERS) for unit in layer}


def _module(path: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


def _unit(module: str) -> "str | None":
    """The layer unit of a ``repro`` module: its top-level package or
    module below ``repro`` (None for the bare ``repro`` package)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else None


def _imports(path: Path):
    """``(line, imported module)`` for every ``repro`` import in *path*,
    at any depth, relative imports resolved."""
    module, is_package = _module(path)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                anchor = anchor[:len(anchor) - node.level + is_package]
                base = ".".join(anchor + ([base] if base else []))
            # ``from pkg import name`` may import the submodule pkg.name.
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "repro":
                yield node.lineno, name


def _edges():
    """``(importer unit, imported unit, where)`` across units."""
    for path in sorted(SRC.rglob("*.py")):
        module, _ = _module(path)
        src = _unit(module)
        for line, name in _imports(path):
            dst = _unit(name)
            if dst is not None and dst != src:
                yield src, dst, f"{path.relative_to(SRC.parent)}:{line} " \
                                f"imports {name}"


def test_every_unit_has_a_layer():
    units = {_unit(_module(p)[0]) for p in SRC.rglob("*.py")} - {None}
    assert units <= set(RANK), \
        f"place these in LAYERS: {sorted(units - set(RANK))}"


def test_no_import_goes_up_a_layer():
    upward = sorted({where for src, dst, where in _edges()
                     if RANK.get(dst, -1) > RANK[src]})
    assert not upward, "imports above the importer's layer:\n" + \
        "\n".join(upward)


def test_no_package_cycle():
    graph: dict[str, set[str]] = {}
    for src, dst, _ in _edges():
        graph.setdefault(src, set()).add(dst)
    cycles = []
    state: dict[str, int] = {}     # 1: on the DFS stack, 2: finished

    def visit(unit: str, stack: list[str]) -> None:
        state[unit] = 1
        for nxt in sorted(graph.get(unit, ())):
            if state.get(nxt) == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
            elif nxt not in state:
                visit(nxt, stack + [nxt])
        state[unit] = 2

    for unit in sorted(graph):
        if unit not in state:
            visit(unit, [unit])
    assert not cycles, "package import cycles: " + \
        "; ".join(" -> ".join(c) for c in cycles)
