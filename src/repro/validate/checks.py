"""Composable runtime invariant checks for the PIC loop.

Production VPIC campaigns die from silent corruption — a NaN that
propagates for a thousand steps, charge-continuity drift from
non-conserving deposition, unbounded energy growth from a too-large
timestep — as often as from crashes. Each :class:`InvariantCheck`
here encodes one physical or structural invariant the loop should
hold, with a configurable cadence so expensive O(N) checks amortise:

- :class:`FiniteFieldsCheck` / :class:`FiniteParticlesCheck` —
  NaN/Inf screening of field and particle arrays;
- :class:`ParticleBoundsCheck` — positions inside the grid extents
  (the boundary pass's postcondition);
- :class:`GaussLawCheck` — ``div E - rho`` residual
  (:func:`repro.vpic.clean.div_e_error`), repairable by divergence
  cleaning;
- :class:`DivBCheck` — ``div B`` drift, repairable likewise;
- :class:`ContinuityCheck` — the Esirkepov discrete continuity
  residual (only an invariant of the charge-conserving path);
- :class:`EnergyDriftCheck` — bounded relative total-energy drift;
- :class:`SortOrderCheck` — sort keys nondecreasing after
  :meth:`~repro.vpic.sort_step.SortStep.apply`.

Checks are policy-free: they *detect* (and optionally *repair*);
what happens on a violation is the
:class:`~repro.validate.guard.SimulationGuard`'s decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sorting import SortKind, strided_keys, tiled_strided_keys
from repro.vpic.clean import clean_div_b, clean_div_e, div_b_error, div_e_error
from repro.vpic.deck import DepositionKind, FieldBoundaryKind
from repro.vpic.deposit import deposit_charge
from repro.vpic.esirkepov import continuity_residual

__all__ = [
    "Violation",
    "InvariantCheck",
    "FiniteFieldsCheck",
    "FiniteParticlesCheck",
    "ParticleBoundsCheck",
    "GaussLawCheck",
    "DivBCheck",
    "ContinuityCheck",
    "EnergyDriftCheck",
    "SortOrderCheck",
    "default_checks",
    "rank_checks",
    "neutralized_charge_density",
]

_FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")
_PARTICLE_ARRAYS = ("x", "y", "z", "ux", "uy", "uz", "w")


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    check: str
    step: int
    value: float
    threshold: float
    message: str

    def __str__(self) -> str:
        return (f"[{self.check}] step {self.step}: {self.message} "
                f"(value {self.value:.3e}, threshold {self.threshold:.3e})")


class InvariantCheck:
    """Base class: one invariant, checked every ``cadence`` steps.

    ``cadence=1`` checks every step; 0 disables the check. Subclasses
    with ``repairable = True`` must implement :meth:`repair`, which
    attempts an in-place fix and returns a short description of what
    it did (the guard re-checks afterwards to confirm).
    """

    name = "invariant"
    repairable = False

    def __init__(self, cadence: int = 1):
        if cadence < 0:
            raise ValueError(f"cadence must be >= 0, got {cadence}")
        self.cadence = cadence

    def due(self, step: int) -> bool:
        return self.cadence > 0 and step % self.cadence == 0

    def prepare(self, sim) -> None:
        """Pre-step hook for checks that need before/after state."""

    def check(self, sim):
        """Return a :class:`Violation` or None."""
        raise NotImplementedError

    def repair(self, sim) -> str | None:
        """Attempt an in-place fix; returns a description or None."""
        return None

    def _violation(self, sim, value: float, threshold: float,
                   message: str) -> Violation:
        return Violation(self.name, sim.step_count, float(value),
                         float(threshold), message)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cadence={self.cadence})"


class FiniteFieldsCheck(InvariantCheck):
    """Every field component is finite (no NaN/Inf anywhere)."""

    name = "finite_fields"

    def check(self, sim):
        for comp in _FIELD_NAMES:
            data = getattr(sim.fields, comp).data
            if not np.isfinite(data).all():
                bad = int(np.size(data) - np.count_nonzero(
                    np.isfinite(data)))
                return self._violation(
                    sim, bad, 0.0,
                    f"{bad} non-finite values in field '{comp}'")
        return None


class FiniteParticlesCheck(InvariantCheck):
    """Every live particle attribute is finite."""

    name = "finite_particles"

    def check(self, sim):
        for sp in sim.species:
            if sp.n == 0:
                continue
            for attr in _PARTICLE_ARRAYS:
                arr = sp.live(attr)
                if not np.isfinite(arr).all():
                    bad = int(arr.size - np.count_nonzero(
                        np.isfinite(arr)))
                    return self._violation(
                        sim, bad, 0.0,
                        f"{bad} non-finite values in species "
                        f"'{sp.name}' attribute '{attr}'")
        return None


class ParticleBoundsCheck(InvariantCheck):
    """Live particles lie inside the grid box (boundary postcondition).

    ``slack`` cells of tolerance absorb float32 rounding at the box
    faces (the periodic wrap computes in float32).
    """

    name = "particle_bounds"

    def __init__(self, cadence: int = 1, slack: float = 1e-3):
        super().__init__(cadence)
        self.slack = slack

    def check(self, sim):
        g = sim.grid
        lx, ly, lz = g.lengths
        eps = (self.slack * g.dx, self.slack * g.dy, self.slack * g.dz)
        los = (g.x0, g.y0, g.z0)
        lens = (lx, ly, lz)
        for sp in sim.species:
            if sp.n == 0:
                continue
            for axis, attr in enumerate(("x", "y", "z")):
                pos = sp.live(attr)
                lo = los[axis] - eps[axis]
                hi = los[axis] + lens[axis] + eps[axis]
                # fmin/fmax skip NaN, which the mask below compares
                # false too (it is FiniteParticlesCheck's finding).
                if np.fmin.reduce(pos) < lo or np.fmax.reduce(pos) > hi:
                    out = np.count_nonzero((pos < lo) | (pos > hi))
                    worst = float(np.max(np.abs(
                        pos - np.clip(pos, lo, hi))))
                    return self._violation(
                        sim, worst, eps[axis],
                        f"{out} particles of species '{sp.name}' "
                        f"outside the box along {attr}")
        return None


def neutralized_charge_density(sim) -> np.ndarray:
    """Total CIC charge density, ghost-folded and mean-subtracted.

    The interior mean is removed because single-species decks rely on
    an implied neutralizing background; the DC component has no
    periodic potential and is not a Gauss-law violation.
    """
    a = _folded_rho(sim).reshape(sim.grid.shape)
    interior = a[1:-1, 1:-1, 1:-1]
    interior -= interior.mean()
    return a.reshape(-1)


def _folded_rho(sim) -> np.ndarray:
    """Ghost-folded (not mean-subtracted) total charge density."""
    g = sim.grid
    rho = np.zeros(g.n_voxels, dtype=np.float32)
    for sp in sim.species:
        if sp.n == 0:
            continue
        x, y, z = sp.positions()
        deposit_charge(g, x, y, z, sp.live("w"), sp.q, out=rho)
    a = rho.astype(np.float64).reshape(g.shape)
    for axis, n in ((0, g.nx), (1, g.ny), (2, g.nz)):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis], hi[axis] = 0, n
        a[tuple(hi)] += a[tuple(lo)]
        a[tuple(lo)] = 0.0
        lo[axis], hi[axis] = n + 1, 1
        a[tuple(hi)] += a[tuple(lo)]
        a[tuple(lo)] = 0.0
    return a.reshape(-1)


def _periodic_fields(sim) -> bool:
    return getattr(sim, "field_boundary",
                   FieldBoundaryKind.PERIODIC) is FieldBoundaryKind.PERIODIC


class GaussLawCheck(InvariantCheck):
    """``max |div E - rho|`` stays near its baseline.

    PIC decks start with ``E = 0`` over shot-noise charge, so the
    residual is O(rho-noise) from step zero even on a healthy run —
    the invariant is that it does not *grow*. The first check
    captures a baseline; a violation is a residual above
    ``floor + growth * baseline``. Pass *threshold* for an absolute
    bound instead (e.g. after a Poisson-consistent initialization).

    Only meaningful (and only repairable, via spectral divergence
    cleaning) on fully periodic field boundaries; the check is a
    no-op otherwise. The CIC deposition path violates this slowly and
    deterministically — the canonical auto-repair target.
    """

    name = "gauss_law"
    repairable = True

    def __init__(self, cadence: int = 10, threshold: float | None = None,
                 growth: float = 2.0, floor: float = 1e-3):
        super().__init__(cadence)
        self.threshold = threshold
        self.growth = growth
        self.floor = floor
        self._baseline: float | None = None

    def _bound(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return self.floor + self.growth * (self._baseline or 0.0)

    def check(self, sim):
        if not _periodic_fields(sim):
            return None
        rho = neutralized_charge_density(sim)
        residual = float(np.abs(div_e_error(sim.fields, rho)).max())
        if self.threshold is None and self._baseline is None:
            self._baseline = residual
            return None
        bound = self._bound()
        if residual > bound:
            return self._violation(
                sim, residual, bound,
                "Gauss-law residual |div E - rho| exceeds threshold")
        return None

    def repair(self, sim) -> str | None:
        if not _periodic_fields(sim):
            return None
        rho = neutralized_charge_density(sim)
        after = clean_div_e(sim.fields, rho)
        return f"clean_div_e -> residual {after:.3e}"


class DivBCheck(InvariantCheck):
    """``max |div B|`` stays at the FDTD roundoff floor."""

    name = "div_b"
    repairable = True

    def __init__(self, cadence: int = 10, threshold: float = 1e-3):
        super().__init__(cadence)
        self.threshold = threshold

    def check(self, sim):
        if not _periodic_fields(sim):
            return None
        residual = float(np.abs(div_b_error(sim.fields)).max())
        if residual > self.threshold:
            return self._violation(
                sim, residual, self.threshold,
                "|div B| drifted above the roundoff floor")
        return None

    def repair(self, sim) -> str | None:
        if not _periodic_fields(sim):
            return None
        after = clean_div_b(sim.fields)
        return f"clean_div_b -> residual {after:.3e}"


class ContinuityCheck(InvariantCheck):
    """Discrete continuity ``(rho_new - rho_old)/dt + div J ~ 0``.

    An exact invariant only of the Esirkepov (charge-conserving)
    deposition path; the check is a no-op for CIC decks. Needs the
    pre-step charge density, captured by :meth:`prepare`. The
    threshold is relative to ``max |rho| / dt`` so it is deck-scale
    independent.

    Reflecting decks are covered too: the deck fuzzer originally
    tripped this check on a 1x1x3 reflecting deck because the
    deposit used the straight pre-reflection endpoint while the
    particle teleported back inside — charge landed in the wrong
    cell. The push now folds the bounce *before* depositing, so the
    Esirkepov ledger closes (residual back at float noise, ~1e-7)
    and this check keeps jurisdiction over reflecting walls.
    """

    name = "continuity"

    def __init__(self, cadence: int = 10, rel_threshold: float = 1e-3):
        super().__init__(cadence)
        self.rel_threshold = rel_threshold
        self._rho_old: np.ndarray | None = None
        self._rho_scale = 0.0

    def _active(self, sim) -> bool:
        return (sim.deposition is DepositionKind.ESIRKEPOV
                and _periodic_fields(sim))

    def prepare(self, sim) -> None:
        if not self._active(sim):
            return
        self._rho_old = _folded_rho(sim)
        self._rho_scale = float(np.abs(self._rho_old).max())

    def check(self, sim):
        if not self._active(sim) or self._rho_old is None:
            return None
        rho_new = _folded_rho(sim)
        # The backward-difference divergence reads the low J ghost
        # layer, which reduce_ghost_currents zeroed; refresh it from
        # the periodic interior (dead state for the field solve, so
        # mutating it here is safe).
        from repro.vpic.fields import FieldSolver
        FieldSolver(sim.fields).sync_currents()
        residual = continuity_residual(sim.grid, self._rho_old, rho_new,
                                       sim.fields, sim.grid.dt)
        self._rho_old = None
        scale = max(self._rho_scale, float(np.abs(rho_new).max()))
        if scale == 0.0:
            return None
        rel = float(np.abs(residual).max()) * sim.grid.dt / scale
        if rel > self.rel_threshold:
            return self._violation(
                sim, rel, self.rel_threshold,
                "charge-continuity residual exceeds the "
                "conservation floor")
        return None


class EnergyDriftCheck(InvariantCheck):
    """Relative total-energy drift stays below *max_drift*.

    The reference is the total at the first checked step. A cold
    reference (zero total energy) falls back to the largest total
    seen, mirroring :meth:`repro.vpic.diagnostics.EnergyDiagnostic.
    max_total_drift`'s guarded denominator.

    Bounded drift is only an invariant of *closed* decks: a per-step
    field source (laser antenna, moving window) injects or discards
    energy by design, so the check is a no-op whenever
    ``sim.sources`` is non-empty — mirroring how
    :class:`ContinuityCheck` applies only to the charge-conserving
    deposition path. An absorbing field boundary is open the same
    way — the Mur ABC removes outgoing wave energy by design (found
    by the deck fuzzer: a source-free drifting beam under
    ``absorbing-x`` trips the bound purely through legitimate
    boundary losses) — so the check requires periodic fields too.
    """

    name = "energy_drift"

    def __init__(self, cadence: int = 5, max_drift: float = 0.25):
        super().__init__(cadence)
        self.max_drift = max_drift
        self._reference: float | None = None

    def _total(self, sim) -> float:
        e, b, k = sim.energy_totals()
        return e + b + k

    def check(self, sim):
        if getattr(sim, "sources", None):
            return None
        if not _periodic_fields(sim):
            return None
        total = self._total(sim)
        if not np.isfinite(total):
            return self._violation(
                sim, total, self.max_drift, "total energy is non-finite")
        if self._reference is None:
            self._reference = total
            return None
        ref = abs(self._reference)
        if ref == 0.0:
            ref = abs(total)
            if ref == 0.0:
                return None
        drift = abs(total - self._reference) / ref
        if drift > self.max_drift:
            return self._violation(
                sim, drift, self.max_drift,
                "total energy drifted beyond the conservation bound")
        return None


class SortOrderCheck(InvariantCheck):
    """Sort keys are nondecreasing right after a sort step.

    Runs only on steps where :meth:`SortStep.due` fired, and checks
    the ordering the active :class:`~repro.core.sorting.SortKind`
    promises: plain voxel order for STANDARD, the Algorithm 1/2 key
    rewrites for STRIDED / TILED_STRIDED. RANDOM and NONE promise no
    postcondition.
    """

    name = "sort_order"

    def check(self, sim):
        step = sim.sort_step
        if not step.due(sim.step_count):
            return None
        kind = step.kind
        if kind not in (SortKind.STANDARD, SortKind.STRIDED,
                        SortKind.TILED_STRIDED):
            return None
        for sp in sim.species:
            if sp.n < 2:
                continue
            vox = sp.live("voxel")
            if kind is SortKind.STANDARD:
                keys = vox
            elif kind is SortKind.STRIDED:
                keys = strided_keys(vox)
            else:
                keys = tiled_strided_keys(vox, step.tile_size)
            inversions = int(np.count_nonzero(np.diff(keys) < 0))
            if inversions:
                return self._violation(
                    sim, inversions, 0.0,
                    f"{inversions} key inversions in species "
                    f"'{sp.name}' after a {kind.value} sort")
        return None


def default_checks(*, finite_cadence: int = 1, bounds_cadence: int = 1,
                   gauss_cadence: int = 10,
                   gauss_threshold: float | None = None,
                   div_b_cadence: int = 10, div_b_threshold: float = 1e-3,
                   continuity_cadence: int = 10,
                   energy_cadence: int = 5, max_energy_drift: float = 0.25,
                   ) -> list[InvariantCheck]:
    """The standard guard suite, cheap checks every step and O(N)
    physics checks amortised over their cadences."""
    return [
        FiniteFieldsCheck(cadence=finite_cadence),
        FiniteParticlesCheck(cadence=finite_cadence),
        ParticleBoundsCheck(cadence=bounds_cadence),
        SortOrderCheck(cadence=1),
        GaussLawCheck(cadence=gauss_cadence, threshold=gauss_threshold),
        DivBCheck(cadence=div_b_cadence, threshold=div_b_threshold),
        ContinuityCheck(cadence=continuity_cadence),
        EnergyDriftCheck(cadence=energy_cadence,
                         max_drift=max_energy_drift),
    ]


def rank_checks(cadence: int = 1) -> list[InvariantCheck]:
    """The per-rank guard suite for distributed runs: structural
    checks that need only one rank's local state (no collectives)."""
    return [
        FiniteFieldsCheck(cadence=cadence),
        FiniteParticlesCheck(cadence=cadence),
    ]
