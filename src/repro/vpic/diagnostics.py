"""Physics diagnostics: energy accounting and conservation checks.

The integration tests use these to validate the PIC loop: total
energy (field + kinetic) should be bounded for stable decks, the
two-stream instability should convert kinetic to field energy at
roughly the linear growth rate, and the Weibel instability should
grow magnetic energy from anisotropic streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EnergySample", "EnergyDiagnostic", "energy_report",
           "exponential_growth_rate"]


@dataclass(frozen=True)
class EnergySample:
    """Energy breakdown at one step."""

    step: int
    time: float
    electric: float
    magnetic: float
    kinetic: float

    @property
    def field(self) -> float:
        return self.electric + self.magnetic

    @property
    def total(self) -> float:
        return self.field + self.kinetic


@dataclass
class EnergyDiagnostic:
    """Collects :class:`EnergySample` rows over a run."""

    samples: list[EnergySample] = field(default_factory=list)

    def record(self, simulation) -> EnergySample:
        """Sample *simulation*'s energy totals
        (:meth:`~repro.vpic.simulation.Simulation.energy_totals`) at its
        step count. Samples at that step or later are dropped first: a
        guard rollback rewinds the run, and the steps it re-runs replace
        the rows of the steps it undid."""
        step = simulation.step_count
        while self.samples and self.samples[-1].step >= step:
            self.samples.pop()
        e, b, k = simulation.energy_totals()
        s = EnergySample(step, step * simulation.grid.dt, e, b, k)
        self.samples.append(s)
        return s

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    def max_total_drift(self) -> float:
        """Max relative deviation of total energy from its initial
        value (conservation metric).

        The denominator is guarded for cold decks: a zero initial
        total (zero fields, zero-momentum particles) falls back to
        the largest |total| seen, so a deck that *gains* energy from
        a cold start reports a finite, usable drift instead of 0/0.
        A deck that stays exactly cold reports 0.
        """
        totals = self.series("total")
        if totals.size == 0:
            return 0.0
        ref = abs(float(totals[0]))
        if ref == 0.0:
            ref = float(np.max(np.abs(totals)))
            if ref == 0.0:
                return 0.0
        return float(np.max(np.abs(totals - totals[0])) / ref)


def exponential_growth_rate(times: np.ndarray, values: np.ndarray,
                            window: tuple[int, int] | None = None) -> float:
    """Fit ``values ~ exp(2 gamma t)`` (energy grows at twice the
    field growth rate); returns gamma.

    *window* selects the linear-growth phase by sample index; default
    is the middle half of the series.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size != values.size or times.size < 4:
        raise ValueError("need at least 4 matching samples")
    if window is None:
        window = (times.size // 4, 3 * times.size // 4)
    lo, hi = window
    t = times[lo:hi]
    v = values[lo:hi]
    if np.any(v <= 0):
        raise ValueError("values must be positive in the fit window")
    slope = np.polyfit(t, np.log(v), 1)[0]
    return 0.5 * float(slope)


def energy_report(diag: EnergyDiagnostic) -> str:
    """Human-readable last-sample summary."""
    if not diag.samples:
        return "no samples"
    s = diag.samples[-1]
    return (f"step {s.step}: E={s.electric:.4e} B={s.magnetic:.4e} "
            f"K={s.kinetic:.4e} total={s.total:.4e} "
            f"(drift {diag.max_total_drift() * 100:.2f}%)")
