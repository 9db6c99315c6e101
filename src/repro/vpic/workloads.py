"""Standard decks: the workloads the paper's evaluation runs.

- :func:`laser_plasma_deck` — the "laser-plasma instability"
  benchmark class used for the vectorization (Fig. 4), sorting
  (Fig. 7), and scaling (Figs. 9-10) studies: a thermal plasma slab
  driven by a linearly polarized laser entering from vacuum.
- :func:`two_stream_deck` — the classic two-stream instability
  (physics validation: longitudinal field growth).
- :func:`weibel_deck` — counter-streaming Weibel instability
  (physics validation: magnetic field growth).
- :func:`uniform_plasma_deck` — a plain thermal plasma used by unit
  tests and microbenchmarks.
- :func:`beam_plasma_deck` — a dilute relativistic electron beam
  through a return-current background (the PIConGPU
  beam-instability workload class).
- :func:`laser_wakefield_deck` — antenna-driven laser wakefield with
  a moving window and open x boundaries (composes
  :mod:`repro.vpic.injection`, :mod:`repro.vpic.absorbing`, and
  :mod:`repro.vpic.window`).
- :func:`reconnection_deck` — the Harris-sheet example promoted to a
  first-class scaled magnetic-reconnection deck.

All decks use normalized units with the electron plasma frequency
near 1 (density is set via the particle weight so that
``w_pe^2 = q^2 n / m = 1`` for the electron population).

Every deck is *registered*: :data:`DECK_BUILDERS` maps a CLI name to
its factory, and :func:`make_deck` builds one by name — the single
source of truth for ``repro run-deck``/``validate``/``fuzz`` and the
scenario-zoo tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro._util import check_positive
from repro.core.sorting import SortKind
from repro.vpic.deck import Deck, SpeciesConfig

__all__ = [
    "uniform_plasma_deck",
    "two_stream_deck",
    "weibel_deck",
    "laser_plasma_deck",
    "harris_sheet_deck",
    "beam_plasma_deck",
    "laser_wakefield_deck",
    "reconnection_deck",
    "DECK_BUILDERS",
    "registered_decks",
    "make_deck",
]


def _electron_weight(ppc: int, cell_volume: float,
                     wpe: float = 1.0) -> float:
    """Per-particle weight making the electron plasma frequency wpe.

    ``w_pe^2 = q^2 n / m`` with q = m = 1 gives target density
    ``n = wpe^2``; each cell holds *ppc* particles in *cell_volume*.
    """
    return wpe**2 * cell_volume / ppc


def uniform_plasma_deck(nx: int = 16, ny: int = 16, nz: int = 16,
                        ppc: int = 8, uth: float = 0.05,
                        num_steps: int = 50, seed: int = 0,
                        sort_kind: SortKind = SortKind.STANDARD,
                        sort_interval: int = 20,
                        sort_tile_size: int = 0) -> Deck:
    """Plain thermal electron plasma over a neutralizing background."""
    check_positive("ppc", ppc)
    dx = 0.5  # half a skin depth per cell
    w = _electron_weight(ppc, dx**3)
    return Deck(
        name="uniform_plasma",
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("electron", q=-1.0, m=1.0, ppc=ppc,
                          uth=uth, weight=w),
        ),
        sort_kind=sort_kind,
        sort_interval=sort_interval,
        sort_tile_size=sort_tile_size,
        seed=seed,
    )


def two_stream_deck(nx: int = 64, ppc: int = 64, drift: float = 0.1,
                    uth: float = 0.005, num_steps: int = 400,
                    seed: int = 0) -> Deck:
    """Two counter-streaming electron beams along x.

    The cold-beam two-stream instability grows the longitudinal E
    field at gamma_max = w_pe/2 per beam system (for equal beams with
    w_pe the *total* plasma frequency, the fastest mode grows near
    ``w_pe / 2`` when ``k v0 ~ sqrt(3)/2 w_pe``); the integration
    test checks exponential growth within a factor-2 band.

    The box is quasi-1D: ny = nz = 2 cells, periodic.
    """
    check_positive("drift", drift)
    # Resolve the fastest-growing wavelength: k v0 ~ 0.6 wpe =>
    # lambda = 2 pi v0 / (0.6 wpe). Fit ~2 wavelengths in the box.
    lam = 2.0 * np.pi * drift / 0.6
    dx = 2.0 * lam / nx
    w = _electron_weight(ppc, dx**3) / 2.0   # two half-density beams
    return Deck(
        name="two_stream",
        nx=nx, ny=2, nz=2, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("beam+", q=-1.0, m=1.0, ppc=ppc // 2,
                          uth=uth, drift=(drift, 0.0, 0.0), weight=w),
            SpeciesConfig("beam-", q=-1.0, m=1.0, ppc=ppc // 2,
                          uth=uth, drift=(-drift, 0.0, 0.0), weight=w),
        ),
        seed=seed,
    )


def weibel_deck(nx: int = 32, ny: int = 32, ppc: int = 32,
                drift: float = 0.3, uth: float = 0.01,
                num_steps: int = 300, seed: int = 0) -> Deck:
    """Counter-streaming beams along z, quasi-2D in x-y.

    The Weibel/filamentation instability converts streaming
    anisotropy into transverse magnetic field; the test checks that
    magnetic energy grows by orders of magnitude from the noise
    floor.
    """
    dx = 0.5
    w = _electron_weight(ppc, dx**3) / 2.0
    return Deck(
        name="weibel",
        nx=nx, ny=ny, nz=2, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("stream+", q=-1.0, m=1.0, ppc=ppc // 2,
                          uth=uth, drift=(0.0, 0.0, drift), weight=w),
            SpeciesConfig("stream-", q=-1.0, m=1.0, ppc=ppc // 2,
                          uth=uth, drift=(0.0, 0.0, -drift), weight=w),
        ),
        seed=seed,
    )


def _laser_field_init(amplitude: float, wavelength_cells: float):
    """Returns a field_init callable injecting a standing laser wave
    in the vacuum half of the box (linear polarization: Ey, Bz)."""

    def init(sim) -> None:
        g = sim.grid
        k = 2.0 * np.pi / (wavelength_cells * g.dx)
        x_edges = g.x0 + (np.arange(g.nx + 2) - 1.0) * g.dx
        # Laser occupies the first half of the box (vacuum region).
        envelope = np.where(x_edges < g.x0 + g.nx * g.dx / 2.0, 1.0, 0.0)
        wave = amplitude * np.sin(k * (x_edges - g.x0)) * envelope
        sim.fields.ey.data[:, :, :] = wave[:, None, None].astype(np.float32)
        sim.fields.bz.data[:, :, :] = wave[:, None, None].astype(np.float32)

    return init


def laser_plasma_deck(nx: int = 64, ny: int = 16, nz: int = 16,
                      ppc: int = 32, a0: float = 0.5,
                      uth: float = 0.02, num_steps: int = 100,
                      seed: int = 0,
                      sort_kind: SortKind = SortKind.STANDARD,
                      sort_interval: int = 10) -> Deck:
    """The laser-plasma instability benchmark (paper §5.3-§5.5).

    A plasma slab fills the right half of the box; a linearly
    polarized laser (normalized amplitude ``a0``) propagates in from
    the vacuum half. Electrons and ions (mass ratio 1836) are mobile.
    The particle distribution this deck produces — strongly
    non-uniform in x, with relativistic electrons near the
    interaction surface — is what makes the sorting strategies of
    §3.2 matter.
    """
    dx = 0.4
    w = _electron_weight(ppc, dx**3) * 2.0   # slab covers half the box

    def slab_perturbation(sim) -> None:
        # Confine the plasma to the right half of the box by folding
        # left-half particles into the right half.
        g = sim.grid
        mid = g.x0 + g.nx * g.dx / 2.0
        span = g.nx * g.dx / 2.0
        for sp in sim.species:
            x = sp.live("x")
            left = x < mid
            x[left] = mid + (x[left] - g.x0) % span
            sp.update_voxels()

    return Deck(
        name="laser_plasma",
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("electron", q=-1.0, m=1.0, ppc=ppc,
                          uth=uth, weight=w),
            SpeciesConfig("ion", q=1.0, m=1836.0, ppc=max(1, ppc // 4),
                          uth=uth / 40.0, weight=w * ppc / max(1, ppc // 4)),
        ),
        field_init=_laser_field_init(a0, wavelength_cells=16.0),
        perturbation=slab_perturbation,
        sort_kind=sort_kind,
        sort_interval=sort_interval,
        seed=seed,
    )


def _harris_field_init(b0: float, sheet_half_width: float):
    """Field initializer for a double Harris current sheet.

    ``Bx(z) = B0 [tanh((z - L/4)/d) - tanh((z - 3L/4)/d) - 1]`` — two
    oppositely-signed reversals so the periodic box stays consistent.
    A small flux perturbation (X-point seed) is added on By... on Bz
    via a sinusoidal vector-potential bump at the sheet centers.
    """

    def init(sim) -> None:
        g = sim.grid
        lz = g.nz * g.dz
        z_centers = g.z0 + (np.arange(g.nz + 2) - 0.5) * g.dz
        profile = (np.tanh((z_centers - g.z0 - lz / 4) / sheet_half_width)
                   - np.tanh((z_centers - g.z0 - 3 * lz / 4)
                             / sheet_half_width)
                   - 1.0)
        sim.fields.bx.data[:, :, :] = (
            b0 * profile[None, None, :]).astype(np.float32)
        # X-point seed: a weak long-wavelength Bz ripple along x.
        lx = g.nx * g.dx
        x_centers = g.x0 + (np.arange(g.nx + 2) - 0.5) * g.dx
        ripple = 0.05 * b0 * np.sin(2 * np.pi * (x_centers - g.x0) / lx)
        sim.fields.bz.data[:, :, :] += (
            ripple[:, None, None]).astype(np.float32)

    return init


def harris_sheet_deck(nx: int = 32, nz: int = 32, ppc: int = 16,
                      b0: float = 0.5, sheet_cells: float = 2.0,
                      uth: float = 0.1, num_steps: int = 200,
                      dx: float = 0.5, seed: int = 0) -> Deck:
    """Magnetic reconnection: a (double) Harris current sheet.

    The flagship VPIC workload class (§2.1 names magnetic
    reconnection first). Counter-drifting electrons and ions carry
    the sheet current that supports the reversed field; the seeded
    X-point reconnects and converts magnetic to particle energy. The
    deck is quasi-2D in x-z.

    The loading is approximate (uniform density with a localized
    drift rather than the exact Harris equilibrium), which is
    standard for short demonstration runs: the sheet relaxes within
    a few w_pe^-1 and reconnection proceeds from the seeded
    perturbation.
    """
    check_positive("dx", dx)
    d_sheet = sheet_cells * dx
    w = _electron_weight(ppc, dx**3)
    # Sheet drift that supports the field jump: from Ampere's law the
    # current layer needs J_y ~ B0 / d; spread over the sheet density
    # this sets the drift. Clamp well below c.
    drift = min(0.4, b0 / (2.0 * d_sheet))

    def sheet_perturbation(sim) -> None:
        g = sim.grid
        lz = g.nz * g.dz
        for sp in sim.species:
            z = sp.live("z")
            uy = sp.live("uy")
            s1 = np.exp(-((z - g.z0 - lz / 4) / d_sheet) ** 2)
            s2 = np.exp(-((z - g.z0 - 3 * lz / 4) / d_sheet) ** 2)
            sign = np.float32(1.0 if sp.q < 0 else -1.0)
            # Opposite drifts in the two sheets keep net momentum zero.
            uy += sign * np.float32(drift) * (s1 - s2).astype(np.float32)

    return Deck(
        name="harris_sheet",
        nx=nx, ny=2, nz=nz, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("electron", q=-1.0, m=1.0, ppc=ppc,
                          uth=uth, weight=w),
            SpeciesConfig("ion", q=1.0, m=25.0, ppc=ppc,
                          uth=uth / 5.0, weight=w),
        ),
        field_init=_harris_field_init(b0, d_sheet),
        perturbation=sheet_perturbation,
        seed=seed,
    )


def beam_plasma_deck(nx: int = 64, ppc: int = 32, u_beam: float = 2.0,
                     density_ratio: float = 0.1, uth: float = 0.01,
                     beam_uth: float = 0.002, num_steps: int = 300,
                     seed: int = 0) -> Deck:
    """Relativistic beam–plasma instability (PIConGPU workload class).

    A dilute relativistic electron beam (``n_b = density_ratio *
    n_p``, normalized momentum ``u_beam = gamma v``) streams through
    a thermal background plasma carrying the compensating return
    current, so the initial state is current-neutral and the
    two-stream/oblique instability grows from particle noise. The
    box is quasi-1D along the beam, sized to fit ~2 of the
    fastest-growing wavelengths (``k v_b ~ w_pe``).

    Deposition is Esirkepov: with plain CIC the Gauss-law residual
    grows secularly as the relativistic beam saturates and the guard
    (correctly) trips around step ~270; the charge-conserving scheme
    keeps the residual at its baseline indefinitely and additionally
    activates the continuity guard check, making this the
    guard-richest deck in the zoo. The trade is the fused/native
    step lanes demoting to per-kernel paths (the fallback reason
    names the deposition gate).
    """
    check_positive("u_beam", u_beam)
    check_positive("density_ratio", density_ratio)
    if density_ratio >= 1.0:
        raise ValueError(
            f"density_ratio must be < 1 (dilute beam), got "
            f"{density_ratio}")
    gamma_b = float(np.sqrt(1.0 + u_beam**2))
    v_beam = u_beam / gamma_b
    # Resonant mode k ~ w_pe / v_b; fit two wavelengths in the box.
    lam = 2.0 * np.pi * v_beam
    dx = 2.0 * lam / nx
    w_plasma = _electron_weight(ppc, dx**3)
    ppc_beam = max(1, int(round(ppc * density_ratio)))
    w_beam = density_ratio * _electron_weight(ppc_beam, dx**3)
    # Background return-current drift cancels the beam current:
    # n_p v_ret = n_b v_b.
    v_ret = density_ratio * v_beam
    u_ret = v_ret / np.sqrt(1.0 - v_ret**2)
    from repro.vpic.deck import DepositionKind
    return Deck(
        name="beam_plasma",
        nx=nx, ny=2, nz=2, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(
            SpeciesConfig("plasma", q=-1.0, m=1.0, ppc=ppc,
                          uth=uth, drift=(-float(u_ret), 0.0, 0.0),
                          weight=w_plasma),
            SpeciesConfig("beam", q=-1.0, m=1.0, ppc=ppc_beam,
                          uth=beam_uth, drift=(float(u_beam), 0.0, 0.0),
                          weight=w_beam),
        ),
        deposition=DepositionKind.ESIRKEPOV,
        seed=seed,
    )


def laser_wakefield_deck(nx: int = 96, ny: int = 8, nz: int = 8,
                         ppc: int = 4, a0: float = 1.0,
                         omega: float = 3.0, uth: float = 0.01,
                         num_steps: int = 160, seed: int = 0) -> Deck:
    """Moving-window laser wakefield (PIConGPU's flagship workload).

    An antenna at the left edge launches a short laser pulse
    (normalized amplitude ``a0``, frequency ``omega > w_pe = 1``:
    underdense propagation) into a uniform plasma; the ponderomotive
    push drives the plasma wake behind the pulse. Once the pulse is
    fully launched, a :class:`~repro.vpic.window.MovingWindow`
    follows it at ~c: trailing plasma drops off the back, fresh
    unperturbed plasma loads at the front, and the x field
    boundaries are first-order Mur absorbers so the pulse and wake
    leave cleanly instead of wrapping.

    This deck composes three subsystems — antenna injection
    (:mod:`repro.vpic.injection`), open boundaries
    (:mod:`repro.vpic.absorbing`), and the moving window
    (:mod:`repro.vpic.window`) — and therefore runs on the
    push-scope lanes (per-step sources demote the whole-step native
    lane by design). There the push, the field solve, the Mur update,
    the sort and the window's shift are native calls; the antenna and
    the reload column's RNG stay numpy.
    """
    if omega <= 1.0:
        raise ValueError(
            f"omega must be > 1 (underdense: w_pe = 1), got {omega}")
    from repro.vpic.deck import FieldBoundaryKind
    from repro.vpic.injection import LaserAntenna
    from repro.vpic.window import MovingWindow
    dx = 0.4
    w = _electron_weight(ppc, dx**3)
    electrons = SpeciesConfig("electron", q=-1.0, m=1.0, ppc=ppc,
                              uth=uth, weight=w)
    # Pulse: ~1 plasma period rise, short flat top.
    t_rise = 4.0
    t_flat = 4.0
    antenna = LaserAntenna(amplitude=a0, omega=omega, t_rise=t_rise,
                           t_flat=t_flat, plane_index=2)
    # dt is the deck's auto (0.95x Courant); the window advances one
    # cell every ceil(dx / dt) steps ~ light speed, starting once the
    # pulse is fully launched.
    dt = float(0.95 / np.sqrt(3.0) * dx)
    interval = max(1, int(np.ceil(dx / dt)))
    window = MovingWindow(interval=interval, reload=(electrons,),
                          seed=seed,
                          start=int(np.ceil(antenna.duration / dt)))
    return Deck(
        name="laser_wakefield",
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, dz=dx,
        num_steps=num_steps,
        species=(electrons,),
        field_boundary=FieldBoundaryKind.ABSORBING_X,
        sources=(antenna, window),
        sort_interval=10,
        seed=seed,
    )


def reconnection_deck(scale: float = 1.0, ppc: int = 16,
                      b0: float = 0.5, num_steps: int = 240,
                      seed: int = 0) -> Deck:
    """Magnetic reconnection at scale: the Harris-sheet example
    promoted to a registered deck.

    ``scale = 1`` is a 48x48 x-z box (twice the linear size of the
    :func:`harris_sheet_deck` default, four times the example
    script); larger scales grow the box while keeping the sheet
    half-width fixed in cell units, so the separatrix structure is
    resolved identically and only the system size changes — the
    setup of the island-coalescence studies the VPIC papers run.

    Like VPIC itself (whose deposition is charge-conserving by
    construction), this deck uses Esirkepov deposition: at this box
    size and run length the CIC Gauss residual grows past the guard
    threshold once the sheet goes nonlinear, while the conserving
    scheme stays at baseline and keeps the continuity check active.
    Esirkepov lacks CIC's matched gather/deposit shape pair, so it
    needs the Debye length resolved (``dx <~ 2.5 lambda_D``) or
    finite-grid heating takes over — hence ``dx = 0.2`` here
    (``lambda_D = uth = 0.1``, so ``dx = 2 lambda_D`` with margin)
    versus the Harris deck's coarse 0.5.
    """
    check_positive("scale", scale)
    from repro.vpic.deck import DepositionKind
    n = max(16, int(round(48 * scale)))
    deck = harris_sheet_deck(nx=n, nz=n, ppc=ppc, b0=b0,
                             num_steps=num_steps, dx=0.2, seed=seed)
    return replace(deck, name="reconnection",
                   deposition=DepositionKind.ESIRKEPOV)


# -- the registry (scenario zoo) ---------------------------------------------

#: CLI name -> deck factory. Every entry must build a deck that runs
#: green under ``repro validate --guard=raise`` (pinned by
#: tests/test_scenario_zoo.py).
DECK_BUILDERS = {
    "uniform": uniform_plasma_deck,
    "two-stream": two_stream_deck,
    "weibel": weibel_deck,
    "laser-plasma": laser_plasma_deck,
    "harris": harris_sheet_deck,
    "beam-plasma": beam_plasma_deck,
    "wakefield": laser_wakefield_deck,
    "reconnection": reconnection_deck,
}


def registered_decks() -> tuple[str, ...]:
    """All deck names, in registry order."""
    return tuple(DECK_BUILDERS)


def make_deck(name: str, steps: int | None = None, seed: int = 0,
              **kwargs) -> Deck:
    """Build a registered deck by name.

    *steps* overrides ``num_steps`` after construction (so factories
    keep their tuned defaults); extra keyword arguments pass through
    to the factory.
    """
    try:
        factory = DECK_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"no deck named {name!r}; registered: "
            f"{', '.join(registered_decks())}") from None
    deck = factory(seed=seed, **kwargs)
    if steps is not None:
        deck = replace(deck, num_steps=steps)
    return deck
