"""Physics oracles: every step path against a theory value, not each other.

Bit-identity between lanes, rank counts and backends cannot see a bug
that every compared path shares. Each row here names a deck, a
measured quantity, the theory value and a tolerance with its source,
then runs on every lane, rank count and backend the deck is eligible
for.

Rows:

- **vacuum standing wave** — fields-only deck, 16×16×8, mode (2, 2, 1).
  Measured: the oscillation frequency on the single ``Simulation``
  (theory: the Yee discrete dispersion relation, 1e-4 relative), and
  the interior E/B bytes at 2/4/8 ranks on every backend and schedule
  (theory: the single run's bytes, exact).
- **cold Langmuir oscillation** — ``uniform`` at 32×4×4, 8 ppc, zero
  temperature, one velocity mode along x. Measured: the plasma
  frequency, from the peak of the field-energy spectrum (at 2ω) over
  600 steps, on every lane (theory: the leapfrog-corrected
  ω = (2/Δt)·asin(ω_pΔt/2), 2 % relative).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.tuning import StepPlan
from repro.mpi.distributed import DistributedSimulation
from repro.vpic.deck import Deck
from repro.vpic.workloads import uniform_plasma_deck

_EB = ("ex", "ey", "ez", "bx", "by", "bz")

#: A fields-only deck whose grid splits on every axis at 8 ranks
#: (bricks of 8×8×4), so every brick face carries the wave.
VACUUM = Deck("vacuum-standing-wave", 16, 16, 8, species=())
#: Mode numbers per axis: k_i = 2π m_i / L_i, so k_iΔ_i = π/4 on all
#: three axes — far enough from the continuum that the Yee relation
#: and ω = c|k| differ by 0.27 % at this Δt.
MODE = (2, 2, 1)
#: Polarization, orthogonal to the discrete wave vector (whose three
#: components are equal here), so the mode is divergence-free on the
#: lattice and a pure eigenmode of the discrete curl-curl operator.
POLARIZATION = (1.0, -1.0, 0.0)


def _wavenumbers(grid) -> list[float]:
    return [2 * math.pi * m * d / (n * d) for m, n, d in
            zip(MODE, (grid.nx, grid.ny, grid.nz),
                (grid.dx, grid.dy, grid.dz))]


def _set_standing_mode(sim) -> None:
    """E = p · (cos, sin, sin)-type standing wave, staggered as the Yee
    lattice places each component (ex at x-edge centres, …), B = 0.

    Interior index i (1-based, ghosts at 0 and n+1) sits at node
    x = (i-1)Δx; a component along axis a sits half a cell further
    along a.
    """
    g = sim.grid
    k = _wavenumbers(g)
    nodes = [np.arange(n) * d for n, d in
             zip((g.nx, g.ny, g.nz), (g.dx, g.dy, g.dz))]
    for axis, name in enumerate(("ex", "ey", "ez")):
        factors = []
        for a in range(3):
            x = nodes[a] + (0.5 * (g.dx, g.dy, g.dz)[a] if a == axis
                            else 0.0)
            factors.append(np.cos(k[a] * x) if a == axis
                           else np.sin(k[a] * x))
        wave = (POLARIZATION[axis] * factors[0][:, None, None]
                * factors[1][None, :, None] * factors[2][None, None, :])
        getattr(sim.fields, name).data[1:-1, 1:-1, 1:-1] = wave


def _yee_omega(grid) -> float:
    """ω from sin²(ωΔt/2)/Δt² = Σ_i sin²(k_iΔ_i/2)/Δ_i² (c = 1):
    the numerical dispersion relation of the 3-D Yee algorithm
    (Taflove & Hagness, *Computational Electrodynamics*, ch. 4)."""
    rhs = sum(math.sin(ki * d / 2) ** 2 / d ** 2 for ki, d in
              zip(_wavenumbers(grid), (grid.dx, grid.dy, grid.dz)))
    return 2 / grid.dt * math.asin(grid.dt * math.sqrt(rhs))


def _single(plan: StepPlan):
    sim = VACUUM.build()
    sim.step_plan = plan
    _set_standing_mode(sim)
    return sim


def _brick(dsim, rank: int):
    """Rank *rank*'s interior as a slice of the global interior
    (ghost-inclusive global indices)."""
    lx, ly, lz = dsim.decomp.local_shape
    cx, cy, cz = dsim.decomp.coords_of(rank)
    return (slice(1 + cx * lx, 1 + (cx + 1) * lx),
            slice(1 + cy * ly, 1 + (cy + 1) * ly),
            slice(1 + cz * lz, 1 + (cz + 1) * lz))


PLANS = {"native": StepPlan.NATIVE_STEP, "numpy": StepPlan.NUMPY_FUSED}


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
def test_vacuum_wave_oscillates_at_the_yee_frequency(plan):
    """The mode's amplitude a_n (E projected on its initial shape) is a
    sampled sinusoid of the discrete frequency, so it satisfies
    a_{n+1} + a_{n-1} = 2 cos(ωΔt) a_n; the least-squares fit of that
    recurrence (Prony's method, order 2) measures ω.

    Tolerance 1e-4 relative: float32 fields round at 6e-8 per update,
    at worst 240 × 6e-8 ≈ 1.4e-5 accumulated over the run, and the
    bound stays 27 times below the 0.27 % that separates the Yee
    relation from ω = c|k| (checked below, so the row can tell them
    apart).
    """
    sim = _single(plan)
    shape = np.concatenate([getattr(sim.fields, n).data[1:-1, 1:-1, 1:-1]
                            .ravel() for n in _EB[:3]]).astype(np.float64)
    amp = []
    for _ in range(240):
        e = np.concatenate([getattr(sim.fields, n).data[1:-1, 1:-1, 1:-1]
                            .ravel() for n in _EB[:3]])
        amp.append(float(e @ shape) / float(shape @ shape))
        sim.step()
    a = np.array(amp)
    assert a.min() < -0.5 and a.max() > 0.5      # several full swings
    cos_wdt = float((a[2:] + a[:-2]) @ a[1:-1] / (2 * a[1:-1] @ a[1:-1]))
    measured = math.acos(cos_wdt) / sim.grid.dt
    theory = _yee_omega(sim.grid)
    continuum = math.hypot(*_wavenumbers(sim.grid))
    assert measured == pytest.approx(theory, rel=1e-4)
    assert continuum != pytest.approx(theory, rel=1e-4)


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
@pytest.mark.parametrize("backend,overlap", [
    ("threads", True), ("processes", True), ("processes", False)],
    ids=["threads", "processes-overlapped", "processes-serialized"])
def test_vacuum_wave_distributed_equals_single(backend, overlap, plan):
    """A fields-only run decomposed over 2/4/8 ranks leaves every
    rank's interior E and B byte-equal to the same slice of the single
    run: every brick-face stencil read sees the value the single
    domain's periodic ghost holds."""
    steps = 20
    ref = _single(plan)
    initial = {n: getattr(ref.fields, n).data.copy() for n in _EB}
    ref.run(steps)
    for n_ranks in (2, 4, 8):
        dsim = DistributedSimulation(VACUUM, n_ranks, plan=plan,
                                     backend=backend, overlap=overlap)
        try:
            for rs in dsim.ranks:
                sl = _brick(dsim, rs.rank)
                for n in _EB:
                    getattr(rs.fields, n).data[1:-1, 1:-1, 1:-1] = \
                        initial[n][sl]
            dsim.run(steps)
            for rs in dsim.ranks:
                sl = _brick(dsim, rs.rank)
                for n in _EB:
                    got = getattr(rs.fields, n).data[1:-1, 1:-1, 1:-1]
                    assert got.tobytes() == \
                        getattr(ref.fields, n).data[sl].tobytes(), \
                        (n_ranks, rs.rank, n)
        finally:
            dsim.close()


@pytest.mark.parametrize("plan", list(StepPlan), ids=str)
def test_cold_langmuir_oscillates_at_the_plasma_frequency(plan):
    """A cold electron plasma over a neutralizing background, kicked
    with ux = 1e-3·sin(2πx/L), oscillates at ω_p whatever the
    wavelength; the field energy, quadratic in E, at 2ω. Leapfrog
    shifts the discrete frequency to sin(ωΔt/2) = ω_pΔt/2 (Birdsall &
    Langdon, *Plasma Physics via Computer Simulation*, ch. 4).

    ω_p comes from the deck: n q²/m (ε0 = 1) with n = ppc·w/ΔV. The
    600-step record spans about 26 periods; the peak of its
    Hann-windowed, zero-padded spectrum lands within a few tenths of a
    percent of the theory value, and 2 % leaves room for the grid's
    aliasing shift at this resolution. The leapfrog correction itself
    (0.3 % here) is inside the tolerance: the row checks the plasma
    frequency, not the integrator.
    """
    deck = uniform_plasma_deck(nx=32, ny=4, nz=4, ppc=8, uth=0.0)
    sim = deck.build()
    sim.step_plan = plan
    g = sim.grid
    (cfg,) = deck.species
    density = cfg.ppc * cfg.weight / g.cell_volume
    omega_p = math.sqrt(density * cfg.q ** 2 / cfg.m)
    length = g.nx * g.dx
    for sp in sim.species:
        x = sp.live("x").astype(np.float64)
        sp.live("ux")[:] += (1e-3 * np.sin(2 * math.pi * x / length)
                             ).astype(np.float32)
    energy = []
    for _ in range(600):
        sim.step()
        energy.append(sim.fields.field_energy()[0])
    e = np.asarray(energy) - np.mean(energy)
    n_fft = 1 << 16
    spectrum = np.abs(np.fft.rfft(e * np.hanning(e.size), n_fft))
    omega = 2 * math.pi * np.fft.rfftfreq(n_fft, g.dt)
    measured = omega[1 + int(np.argmax(spectrum[1:]))] / 2
    theory = 2 / g.dt * math.asin(omega_p * g.dt / 2)
    assert measured == pytest.approx(theory, rel=0.02)
