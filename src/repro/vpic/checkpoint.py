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

The same state also lives in memory: :func:`capture_state` copies it
into a :class:`Snapshot` (the file's metadata and arrays under the
file's keys, less the voxel indices), and :func:`restore_state_into`
restores from a snapshot or a file through one routine. The guard's
rollback ring (:class:`repro.validate.ring.CheckpointRing`) holds its
snapshots this way.

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

__all__ = ["Snapshot", "save_checkpoint", "load_checkpoint",
           "capture_state", "restore_state_into"]

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


def _state_meta(sim: Simulation) -> dict:
    """The metadata a checkpoint carries beside its arrays."""
    g = sim.grid
    return {
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


def _state_arrays(sim: Simulation, voxel: bool = True):
    """(key, live array) pairs of the state, by the file's keys."""
    for name in _FIELDS:
        yield f"field_{name}", getattr(sim.fields, name).data
    for i, sp in enumerate(sim.species):
        for attr in Species._ARRAYS:
            if voxel or attr != "voxel":
                yield f"sp{i}_{attr}", sp.live(attr)
    yield from _mur_entries(sim)


class Snapshot:
    """A checkpoint in memory: the metadata :func:`save_checkpoint`
    writes and the arrays, under the file's keys. :func:`capture_state`
    fills one with copies; :func:`restore_state_into` reads one as it
    reads a file."""

    __slots__ = ("meta", "arrays")

    def __init__(self, meta: dict, arrays: dict):
        self.meta = meta
        self.arrays = arrays


def save_checkpoint(sim: Simulation, path: str | Path) -> Path:
    """Write the simulation state to *path* (compressed .npz).
    Returns the path."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "_meta": np.frombuffer(json.dumps(_state_meta(sim)).encode(),
                               dtype=np.uint8)
    }
    arrays.update(_state_arrays(sim))
    np.savez_compressed(path, **arrays)
    return path


def capture_state(sim: Simulation,
                  into: Snapshot | None = None) -> Snapshot:
    """Copy the state of *sim* into memory — a :class:`Snapshot` of
    what :func:`save_checkpoint` writes, less the voxel indices: they
    are a pure function of the positions, so a restore marks them
    stale and the first reader recomputes them. Copies land in
    *into*'s arrays where shape and dtype match (the guard's ring
    passes the snapshot it evicts), so a steady push allocates no
    array."""
    old = into.arrays if into is not None else {}
    arrays = {}
    for key, src in _state_arrays(sim, voxel=False):
        buf = old.get(key)
        if buf is None or buf.shape != src.shape or buf.dtype != src.dtype:
            buf = np.empty_like(src)
        np.copyto(buf, src)
        arrays[key] = buf
    if into is None:
        return Snapshot(_state_meta(sim), arrays)
    into.meta, into.arrays = _state_meta(sim), arrays
    return into


def _read_checkpoint(path: str | Path) -> Snapshot:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode())
        if meta.get("version") not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"checkpoint version {meta.get('version')} not supported "
                f"(expected one of {_SUPPORTED_VERSIONS})")
        return Snapshot(meta, {k: data[k] for k in data.files
                               if k != "_meta"})


def _sort_step(meta: dict) -> SortStep:
    sm = meta["sort"]
    return SortStep(kind=SortKind(sm["kind"]), tile_size=sm["tile_size"],
                    interval=sm["interval"], seed=sm["seed"],
                    sorts_performed=sm["sorts_performed"])


def load_checkpoint(path: str | Path) -> Simulation:
    """Reconstruct a :class:`Simulation` from a checkpoint file."""
    snap = _read_checkpoint(path)
    meta = snap.meta
    gm = meta["grid"]
    grid = Grid(gm["nx"], gm["ny"], gm["nz"], gm["dx"], gm["dy"],
                gm["dz"], gm["x0"], gm["y0"], gm["z0"], gm["dt"])
    # v1 files carry no capacity; fall back to the historical
    # reconstruction (which could shrink the original run's headroom —
    # the reason v2 persists it).
    species = [Species(sm["name"], sm["q"], sm["m"], grid,
                       capacity=max(1024, sm["n"], sm.get("capacity", 0)))
               for sm in meta["species"]]
    sim = Simulation(
        grid=grid,
        fields=FieldArrays(grid),
        species=species,
        boundary=BoundaryKind(meta["boundary"]),
        field_boundary=FieldBoundaryKind(
            meta.get("field_boundary", "periodic")),
        deposition=DepositionKind(meta["deposition"]),
        sort_step=_sort_step(meta),
        step_count=meta["step_count"],
    )
    restore_state_into(sim, snap)
    return sim


def restore_state_into(sim: Simulation,
                       source: str | Path | Snapshot) -> int:
    """Restore a checkpoint *in place* into an existing simulation,
    from a file or from a :class:`Snapshot`.

    Used by the guard subsystem's rollback: the live
    :class:`Simulation` object (and everything holding a reference to
    it) keeps its identity while its state rewinds to the snapshot.
    The checkpoint must describe the same grid geometry and species
    list. Returns the restored step count.
    """
    snap = (source if isinstance(source, Snapshot)
            else _read_checkpoint(source))
    meta, arrays = snap.meta, snap.arrays
    g, gm = sim.grid, meta["grid"]
    if (g.nx, g.ny, g.nz) != (gm["nx"], gm["ny"], gm["nz"]):
        raise ValueError(
            f"checkpoint grid {(gm['nx'], gm['ny'], gm['nz'])} does not "
            f"match simulation grid {(g.nx, g.ny, g.nz)}")
    if [sp.name for sp in sim.species] != \
            [sm["name"] for sm in meta["species"]]:
        raise ValueError("checkpoint species do not match simulation")
    for name in _FIELDS:
        getattr(sim.fields, name).data[...] = arrays[f"field_{name}"]
    for i, (dst, sm) in enumerate(zip(sim.species, meta["species"])):
        n = sm["n"]
        if dst.capacity < n:
            dst._ensure_capacity(n)
        dst.n = n
        for attr in Species._ARRAYS:
            key = f"sp{i}_{attr}"
            if key in arrays:
                getattr(dst, attr)[:n] = arrays[key]
        # A file's voxels were saved through live(), which refreshes
        # them first; a snapshot has none, and they refresh on first use.
        if f"sp{i}_voxel" in arrays:
            dst.mark_voxels_fresh()
        else:
            dst.mark_voxels_stale()
    sim.sort_step = _sort_step(meta)
    sim.step_count = meta["step_count"]
    sim._energy0 = meta.get("energy0")
    sim.state_changed()
    mur = getattr(sim.solver, "mur", None)
    if mur is not None:
        # Planes the checkpoint lacks take a freshly built solver's
        # values, read from the restored fields.
        mur.refresh_history()
        mur.load_history({key: arrays[_mur_name(key)]
                          for key, _ in mur.history_items()
                          if _mur_name(key) in arrays})
    return sim.step_count
