"""Moving window: follow a light-speed pulse through long plasma.

Laser-wakefield runs track a pulse travelling at ~c through
centimetres of plasma — far more box than any fixed grid affords.
The standard trick (PIConGPU's wakefield workload, VPIC's boosted
decks) is a *moving window*: every few steps the box slides one cell
in +x — field contents shift one cell toward -x, particles that fall
off the left (trailing) edge are dropped, and a fresh column of
unperturbed plasma is loaded at the right (leading) edge.

:class:`MovingWindow` implements this as a ``Deck.sources`` per-step
hook (``bind(sim)`` once at build, ``apply(sim, step)`` after each
field solve). The shift schedule and the reload RNG are pure
functions of the step index, preserving the checkpoint determinism
contract: a restored run replays the same shifts with the same fresh
particles.

The window is a physical approximation, not an invariant-preserving
transform — it deliberately discards trailing fields/particles and
injects new ones, so the energy-drift guard check does not apply to
windowed decks (the guard skips it whenever per-step sources are
attached).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive
from repro.vpic.deck import SpeciesConfig

__all__ = ["MovingWindow"]

#: All ghost-inclusive field components shifted by the window.
_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")


class MovingWindow:
    """Slide the box +x by one cell every *interval* steps.

    Parameters
    ----------
    interval:
        Steps between one-cell shifts. For a window tracking a
        luminal pulse choose ``interval ~ dx / dt`` (c = 1).
    reload:
        :class:`~repro.vpic.deck.SpeciesConfig` entries describing
        the fresh plasma loaded into the leading-edge column after
        each shift, matched to simulation species by name. Species
        not listed (e.g. an injected beam) are shifted but not
        replenished. Empty tuple: vacuum enters.
    seed:
        Base seed for the reload RNG; the per-shift stream is
        ``(seed, step)`` so reloads are deterministic functions of
        the step index.
    start:
        First step index at which the schedule applies: the window
        stands still before it (a wakefield deck waits out the pulse
        launch). The schedule's phase does not depend on it.
    """

    def __init__(self, interval: int,
                 reload: tuple[SpeciesConfig, ...] = (),
                 seed: int = 0, start: int = 0):
        check_positive("interval", interval)
        if not isinstance(interval, int) or isinstance(interval, bool):
            raise ValueError(f"interval must be an int, got {interval!r}")
        if (not isinstance(start, int) or isinstance(start, bool)
                or start < 0):
            raise ValueError(
                f"start must be a non-negative int, got {start!r}")
        for cfg in reload:
            if not isinstance(cfg, SpeciesConfig):
                raise ValueError(
                    f"reload entries must be SpeciesConfig, got {cfg!r}")
        self.interval = interval
        self.reload = tuple(reload)
        self.seed = seed
        self.start = start
        self.shifts_applied = 0
        # (ny, nz, ppc) -> the leading column's per-particle cell
        # indices: a pure function of the key, built once instead of
        # on every shift.
        self._column_cells: dict = {}

    def bind(self, sim) -> None:
        """Validate the reload table against the built simulation."""
        names = {sp.name for sp in sim.species}
        for cfg in self.reload:
            if cfg.name not in names:
                raise ValueError(
                    f"moving-window reload names unknown species "
                    f"{cfg.name!r}; simulation has {sorted(names)}")
        if sim.grid.nx < 2:
            raise ValueError(
                f"moving window needs nx >= 2, got nx={sim.grid.nx}")

    def due(self, step: int) -> bool:
        return step >= self.start and (step + 1) % self.interval == 0

    def apply(self, sim, step: int) -> None:
        """``Deck.sources`` hook: shift when the schedule says so."""
        if self.due(step):
            self.shift(sim, step)

    # -- the shift ----------------------------------------------------------

    def shift(self, sim, step: int) -> None:
        """One-cell +x slide: fields left, drop trailing particles,
        load a fresh leading-edge plasma column."""
        g = sim.grid
        for name in _FIELDS:
            arr = getattr(sim.fields, name).data
            arr[:-1, :, :] = arr[1:, :, :]
            # Zero the NEW leading interior column, not just the
            # ghost: the slab that slid into it was the old high
            # ghost — boundary-condition bookkeeping (Mur ABC
            # extrapolation state), not field data. Recycling it
            # into the interior closes a feedback loop with the
            # absorbing boundary that grows exponentially at the
            # leading edge. Fresh window cells are unperturbed
            # medium: fields are zero there by definition.
            arr[-2:, :, :] = 0.0
        # The Mur ABC history slabs refer to pre-shift boundary
        # values; refresh them so the next apply() sees a consistent
        # recursion state (one step of absorber history is lost at
        # each shift — negligible against the injected column).
        mur = getattr(sim.solver, "mur", None)
        if mur is not None:
            mur.refresh_history()
        dx = np.float32(g.dx)
        x_lo = np.float32(g.x0)
        reload_by_name = {cfg.name: cfg for cfg in self.reload}
        for i, sp in enumerate(sim.species):
            if sp.n:
                x = sp.live("x")
                x -= dx
                gone = np.nonzero(x < x_lo)[0]
                if gone.size:
                    sp.remove(gone)
            cfg = reload_by_name.get(sp.name)
            if cfg is not None:
                self._load_column(sp, cfg, g, step, i)
            sp.mark_voxels_stale()
        self.shifts_applied += 1

    def _load_column(self, sp, cfg: SpeciesConfig, g, step: int,
                     species_index: int) -> None:
        """Fresh stratified plasma in the leading-edge cell column."""
        rng = np.random.default_rng((self.seed, step, species_index))
        key = (g.ny, g.nz, cfg.ppc)
        cells = self._column_cells.get(key)
        if cells is None:
            iy, iz = np.meshgrid(np.arange(g.ny), np.arange(g.nz),
                                 indexing="ij")
            cells = self._column_cells[key] = (
                np.repeat(iy.ravel(), cfg.ppc).astype(np.float64),
                np.repeat(iz.ravel(), cfg.ppc).astype(np.float64))
        cy, cz = cells
        n = cy.size
        x = g.x0 + (g.nx - 1 + rng.random(n)) * g.dx
        y = g.y0 + (cy + rng.random(n)) * g.dy
        z = g.z0 + (cz + rng.random(n)) * g.dz
        from repro.vpic.particles import maxwellian_momenta
        if cfg.uth > 0 or any(cfg.drift):
            ux, uy, uz = maxwellian_momenta(n, cfg.uth, cfg.drift, rng)
        else:
            ux = uy = uz = np.zeros(n, dtype=np.float32)
        sp.append(x.astype(np.float32), y.astype(np.float32),
                  z.astype(np.float32), ux, uy, uz,
                  np.full(n, cfg.weight, dtype=np.float32))

    def __repr__(self) -> str:
        return (f"MovingWindow(interval={self.interval}, "
                f"start={self.start}, "
                f"reload={[c.name for c in self.reload]}, "
                f"shifts={self.shifts_applied})")
