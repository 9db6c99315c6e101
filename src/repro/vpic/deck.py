"""Simulation decks: the input configuration VPIC runs from.

A VPIC run is described by an input deck — grid geometry, species
list, loading, boundary conditions, and run length. :class:`Deck`
is the declarative equivalent; :meth:`Deck.build` materializes a
:class:`~repro.vpic.simulation.Simulation`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable

import enum

from repro._util import check_nonnegative, check_positive
from repro.core.sorting import SortKind
from repro.vpic.boundary import BoundaryKind
from repro.vpic.grid import Grid

__all__ = ["SpeciesConfig", "Deck", "DepositionKind", "FieldBoundaryKind"]


class DepositionKind(enum.Enum):
    """Current-deposition scheme.

    ``CIC`` is the fast trilinear scatter; ``ESIRKEPOV`` is the
    charge-conserving density-decomposition scheme (exact discrete
    continuity, ~2x the deposition cost).
    """

    CIC = "cic"
    ESIRKEPOV = "esirkepov"


class FieldBoundaryKind(enum.Enum):
    """Field ghost handling.

    ``PERIODIC`` wraps all axes; ``ABSORBING_X`` applies a first-order
    Mur ABC on the x faces (laser decks: let the pump exit) while the
    transverse axes stay periodic.
    """

    PERIODIC = "periodic"
    ABSORBING_X = "absorbing-x"


@dataclass(frozen=True)
class SpeciesConfig:
    """One species' loading parameters."""

    name: str
    q: float
    m: float
    ppc: int
    uth: float = 0.0
    drift: tuple[float, float, float] = (0.0, 0.0, 0.0)
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_positive("ppc", self.ppc)
        check_positive("m", self.m)
        check_positive("weight", self.weight)
        check_nonnegative("uth", self.uth)
        if len(self.drift) != 3:
            raise ValueError(
                f"drift must be a 3-tuple, got {self.drift!r}")
        for v in (self.q, self.m, self.uth, self.weight, *self.drift):
            if not math.isfinite(v):
                raise ValueError(
                    f"species {self.name!r} has a non-finite parameter "
                    f"(q={self.q}, m={self.m}, uth={self.uth}, "
                    f"drift={self.drift}, weight={self.weight})")

    def to_dict(self) -> dict:
        return {"name": self.name, "q": self.q, "m": self.m,
                "ppc": self.ppc, "uth": self.uth,
                "drift": list(self.drift), "weight": self.weight}

    @classmethod
    def from_dict(cls, data: dict) -> "SpeciesConfig":
        return cls(name=data["name"], q=data["q"], m=data["m"],
                   ppc=data["ppc"], uth=data.get("uth", 0.0),
                   drift=tuple(data.get("drift", (0.0, 0.0, 0.0))),
                   weight=data.get("weight", 1.0))


@dataclass
class Deck:
    """Declarative description of one simulation.

    ``field_init`` / ``perturbation`` are optional callables invoked
    with the built :class:`~repro.vpic.simulation.Simulation` to set
    initial fields or perturb loaded particles (how the workload decks
    seed instabilities). ``sources`` are per-step field sources (the
    :class:`~repro.vpic.injection.LaserAntenna` /
    :class:`~repro.vpic.window.MovingWindow` protocol: ``bind(sim)``
    once at build, ``apply(sim, step)`` after every field solve).

    Construction validates every numeric parameter up front — a bad
    deck fails here with a named ``ValueError``, not hundreds of
    frames deep in ``Grid`` or the native packing. The fuzzer relies
    on this boundary to tell "invalid deck" (generator bug) apart
    from "valid deck that trips the physics guard" (simulation bug).
    """

    name: str
    nx: int
    ny: int
    nz: int
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0
    dt: float = 0.0
    num_steps: int = 100
    species: tuple[SpeciesConfig, ...] = ()
    boundary: BoundaryKind = BoundaryKind.PERIODIC
    field_boundary: FieldBoundaryKind = FieldBoundaryKind.PERIODIC
    deposition: DepositionKind = DepositionKind.CIC
    sort_kind: SortKind = SortKind.STANDARD
    sort_interval: int = 20
    sort_tile_size: int = 0
    seed: int = 0
    field_init: Callable | None = None
    perturbation: Callable | None = None
    sources: tuple = ()

    def __post_init__(self) -> None:
        check_positive("num_steps", self.num_steps)
        for axis in ("nx", "ny", "nz"):
            n = getattr(self, axis)
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(
                    f"{axis} must be an int, got {n!r} "
                    f"({type(n).__name__})")
            check_positive(axis, n)
        for name in ("dx", "dy", "dz"):
            d = getattr(self, name)
            check_positive(name, d)
            if not math.isfinite(d):
                raise ValueError(f"{name} must be finite, got {d}")
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        check_nonnegative("dt", self.dt)
        check_nonnegative("sort_interval", self.sort_interval)
        check_nonnegative("sort_tile_size", self.sort_tile_size)
        for name in ("sort_interval", "sort_tile_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"{name} must be an int, got {v!r} "
                    f"({type(v).__name__})")
        if (self.sort_kind is SortKind.TILED_STRIDED
                and self.sort_interval > 0
                and self.sort_tile_size <= 0):
            # Found by the deck fuzzer: this combination passed
            # construction and then blew up inside the first sort.
            raise ValueError(
                "sort_kind 'tiled-strided' needs sort_tile_size > 0 "
                f"(got {self.sort_tile_size}); set a tile size or "
                "disable sorting with sort_interval=0")
        for cfg in self.species:
            if not isinstance(cfg, SpeciesConfig):
                raise ValueError(
                    f"species entries must be SpeciesConfig, got "
                    f"{cfg!r}")

    def make_grid(self) -> Grid:
        return Grid(self.nx, self.ny, self.nz,
                    self.dx, self.dy, self.dz, dt=self.dt)

    def build(self):
        """Materialize the simulation (imported lazily to keep the
        deck module import-light)."""
        from repro.vpic.simulation import Simulation
        return Simulation.from_deck(self)

    @property
    def total_particles(self) -> int:
        cells = self.nx * self.ny * self.nz
        return sum(cells * s.ppc for s in self.species)

    # -- serialization (the fuzzer / corpus interchange format) -------------

    def to_dict(self) -> dict:
        """Pure-data representation (enums by value).

        Only *declarative* decks serialize: ``field_init`` /
        ``perturbation`` / ``sources`` are arbitrary callables and
        would not survive a JSON round trip, so their presence is a
        :class:`ValueError` — the corpus must never hold a deck it
        cannot faithfully replay.
        """
        for attr in ("field_init", "perturbation"):
            if getattr(self, attr) is not None:
                raise ValueError(
                    f"deck {self.name!r} carries a {attr} callable and "
                    f"cannot be serialized; only pure-data decks "
                    f"round-trip")
        if self.sources:
            raise ValueError(
                f"deck {self.name!r} carries per-step sources and "
                f"cannot be serialized; only pure-data decks round-trip")
        return {
            "name": self.name,
            "nx": self.nx, "ny": self.ny, "nz": self.nz,
            "dx": self.dx, "dy": self.dy, "dz": self.dz,
            "dt": self.dt,
            "num_steps": self.num_steps,
            "species": [s.to_dict() for s in self.species],
            "boundary": self.boundary.value,
            "field_boundary": self.field_boundary.value,
            "deposition": self.deposition.value,
            "sort_kind": self.sort_kind.value,
            "sort_interval": self.sort_interval,
            "sort_tile_size": self.sort_tile_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Deck":
        """Inverse of :meth:`to_dict` (validates like any construction).

        Unknown keys are an error: a corpus file with a typo'd field
        must fail loudly, not silently replay a different deck.
        """
        known = {f.name for f in dataclass_fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(
                f"unknown deck fields {sorted(extra)}; expected a "
                f"subset of {sorted(known)}")
        kwargs = dict(data)
        kwargs["species"] = tuple(
            SpeciesConfig.from_dict(s) for s in data.get("species", ()))
        for key, enum_cls in (("boundary", BoundaryKind),
                              ("field_boundary", FieldBoundaryKind),
                              ("deposition", DepositionKind),
                              ("sort_kind", SortKind)):
            if key in kwargs:
                kwargs[key] = enum_cls(kwargs[key])
        return cls(**kwargs)

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
