"""Checkpoint / restart: save and restore full simulation state.

Production PIC runs checkpoint for fault tolerance and for the
batched-campaign workflows §6 describes (restarting parameter
variants from a common warm state). The format is a single ``.npz``
holding grid geometry, every field component, and every species'
live arrays; restore reconstructs a bit-identical
:class:`~repro.vpic.simulation.Simulation` (verified by the tests:
stepping the original and the restored run produces identical
trajectories).

Format version 2 additionally persists:

- per-species array **capacity**, so a restored run has the same
  overflow headroom as the original (version 1 silently shrank
  capacity to ``max(1024, n)``, making post-restore injection or
  exchange overflow earlier than the pre-checkpoint run would);
- the energy-drift reference ``Simulation._energy0`` (the detail-mode
  ``sim/energy_drift`` gauge keeps its original baseline across a
  restart);
- the Mur absorbing-boundary history slabs for ``ABSORBING_X`` decks
  (the first-order ABC is a one-step recursion; without its previous
  boundary values a restored run diverges at the open faces).

Version-1 files still load, with capacity defaulting to the old
``max(1024, n)`` behavior.

**Determinism contract.** Restore is bit-identical iff every source
of randomness is either replayed from persisted state or external to
the loop. The in-loop stochastic state is the sort policy's
``(seed, sorts_performed)`` pair (persisted; the RANDOM sort kind
derives its generator from it each sort) and the Mur ABC history
(persisted in v2). Particle loading RNG runs only at deck build time
and never after restore. Anything a *caller* drives per step — e.g.
:class:`~repro.vpic.injection.LaserAntenna` — must be a pure function
of ``step_count`` (the antenna is), or the caller owns persisting its
state. The test suite pins this contract for the RANDOM-sort and
antenna-driven absorbing decks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.sorting import SortKind
from repro.vpic.boundary import BoundaryKind
from repro.vpic.deck import DepositionKind, FieldBoundaryKind
from repro.vpic.fields import FieldArrays
from repro.vpic.grid import Grid
from repro.vpic.simulation import Simulation
from repro.vpic.sort_step import SortStep
from repro.vpic.species import Species

__all__ = ["save_checkpoint", "load_checkpoint", "restore_state_into"]

_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def _mur_entries(sim: Simulation):
    """(key, array) pairs of Mur ABC history, if the solver has one."""
    mur = getattr(sim.solver, "mur", None)
    if mur is None:
        return []
    return [(_mur_name(key), arr) for key, arr in mur.history_items()]


def _mur_name(key) -> str:
    axis, high, comp = key
    return f"mur_{axis}_{int(high)}_{comp}"


def save_checkpoint(sim: Simulation, path: str | Path,
                    compress: bool = True) -> Path:
    """Write the simulation state to *path* (.npz). Returns the path.

    *compress* selects ``savez_compressed`` (the archival default)
    vs plain ``savez`` — the guard subsystem's auto-checkpoint ring
    uses the uncompressed fast path to keep per-snapshot cost low.
    """
    path = Path(path)
    g = sim.grid
    meta = {
        "version": _FORMAT_VERSION,
        "step_count": sim.step_count,
        "grid": {"nx": g.nx, "ny": g.ny, "nz": g.nz,
                 "dx": g.dx, "dy": g.dy, "dz": g.dz,
                 "x0": g.x0, "y0": g.y0, "z0": g.z0, "dt": g.dt},
        "boundary": sim.boundary.value,
        "field_boundary": sim.field_boundary.value,
        "deposition": sim.deposition.value,
        "sort": {"kind": sim.sort_step.kind.value,
                 "tile_size": sim.sort_step.tile_size,
                 "interval": sim.sort_step.interval,
                 "seed": sim.sort_step.seed,
                 "sorts_performed": sim.sort_step.sorts_performed},
        "species": [{"name": sp.name, "q": sp.q, "m": sp.m, "n": sp.n,
                     "capacity": sp.capacity}
                    for sp in sim.species],
        "energy0": sim._energy0,
    }
    arrays: dict[str, np.ndarray] = {
        "_meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    }
    for name in _FIELDS:
        arrays[f"field_{name}"] = getattr(sim.fields, name).data
    for i, sp in enumerate(sim.species):
        for attr in Species._ARRAYS:
            arrays[f"sp{i}_{attr}"] = sp.live(attr)
    for key, arr in _mur_entries(sim):
        arrays[key] = arr
    writer = np.savez_compressed if compress else np.savez
    writer(path, **arrays)
    return path


def load_checkpoint(path: str | Path) -> Simulation:
    """Reconstruct a :class:`Simulation` from a checkpoint file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode())
        if meta.get("version") not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"checkpoint version {meta.get('version')} not supported "
                f"(expected one of {_SUPPORTED_VERSIONS})")
        gm = meta["grid"]
        grid = Grid(gm["nx"], gm["ny"], gm["nz"], gm["dx"], gm["dy"],
                    gm["dz"], gm["x0"], gm["y0"], gm["z0"], gm["dt"])
        fields = FieldArrays(grid)
        for name in _FIELDS:
            getattr(fields, name).data[...] = data[f"field_{name}"]
        species = []
        for i, sm in enumerate(meta["species"]):
            n = sm["n"]
            # v1 files carry no capacity; fall back to the historical
            # reconstruction (which could shrink the original run's
            # headroom — the reason v2 persists it).
            capacity = max(1024, n, sm.get("capacity", 0))
            sp = Species(sm["name"], sm["q"], sm["m"], grid,
                         capacity=capacity)
            sp.n = n
            for attr in Species._ARRAYS:
                getattr(sp, attr)[:n] = data[f"sp{i}_{attr}"]
            species.append(sp)
        sort_meta = meta["sort"]
        sim = Simulation(
            grid=grid,
            fields=fields,
            species=species,
            boundary=BoundaryKind(meta["boundary"]),
            field_boundary=FieldBoundaryKind(
                meta.get("field_boundary", "periodic")),
            deposition=DepositionKind(meta["deposition"]),
            sort_step=SortStep(kind=SortKind(sort_meta["kind"]),
                               tile_size=sort_meta["tile_size"],
                               interval=sort_meta["interval"],
                               seed=sort_meta["seed"],
                               sorts_performed=sort_meta["sorts_performed"]),
            step_count=meta["step_count"],
        )
        sim._energy0 = meta.get("energy0")
        mur = getattr(sim.solver, "mur", None)
        if mur is not None:
            mur.load_history({key: data[_mur_name(key)]
                              for key, _ in mur.history_items()
                              if _mur_name(key) in data.files})
        return sim


def restore_state_into(sim: Simulation, path: str | Path) -> int:
    """Restore a checkpoint *in place* into an existing simulation.

    Used by the guard subsystem's rollback: the live
    :class:`Simulation` object (and everything holding a reference to
    it) keeps its identity while its state rewinds to the snapshot.
    The checkpoint must describe the same grid geometry and species
    list. Returns the restored step count.
    """
    restored = load_checkpoint(path)
    g, rg = sim.grid, restored.grid
    if (g.nx, g.ny, g.nz) != (rg.nx, rg.ny, rg.nz):
        raise ValueError(
            f"checkpoint grid {(rg.nx, rg.ny, rg.nz)} does not match "
            f"simulation grid {(g.nx, g.ny, g.nz)}")
    if [sp.name for sp in sim.species] != \
            [sp.name for sp in restored.species]:
        raise ValueError("checkpoint species do not match simulation")
    for name in _FIELDS:
        getattr(sim.fields, name).data[...] = \
            getattr(restored.fields, name).data
    for dst, src in zip(sim.species, restored.species):
        if dst.capacity < src.n:
            dst._ensure_capacity(src.n)
        dst.n = src.n
        for attr in Species._ARRAYS:
            getattr(dst, attr)[:src.n] = getattr(src, attr)[:src.n]
        # Checkpoints are saved through live(), which refreshes lazy
        # voxels first — the restored indices are fresh even if the
        # target species was mid-fused-step stale.
        dst._voxels_stale = False
    sim.sort_step = restored.sort_step
    sim.step_count = restored.step_count
    sim._energy0 = restored._energy0
    mur = getattr(sim.solver, "mur", None)
    restored_mur = getattr(restored.solver, "mur", None)
    if mur is not None and restored_mur is not None:
        mur.load_history(dict(restored_mur.history_items()))
    return sim.step_count
