"""First-order Mur absorbing boundaries for the field solver.

Laser-plasma decks need open boundaries along the propagation axis —
with periodic wrap the pump re-enters the box. The first-order Mur
condition advects outgoing waves through the boundary:

``E_g^{n+1} = E_b^n + k (E_b^{n+1} - E_g^n)``,  ``k = (c dt - d)/(c dt + d)``

applied to the tangential E components in the ghost layer (``g`` =
ghost, ``b`` = the adjacent boundary cell). B ghosts then follow from
the regular update using those E ghosts. Reflection for normal
incidence is ~0 at the design speed and grows with angle — adequate
for pump exit, and the test measures it.

Usage: construct once, then call :meth:`apply` after each
``advance_e`` *instead of* letting the periodic sync overwrite the
ghost layer on the absorbing axes (pass the solver's sync component
lists accordingly, or use :class:`AbsorbingFieldSolver` which wires
it up).
"""

from __future__ import annotations

import numpy as np

from repro.vpic.fields import FieldArrays, FieldSolver, _FIELD_NAMES

__all__ = ["MurBoundary", "AbsorbingFieldSolver"]

#: Tangential E and B components per axis.
_TANGENTIAL = {0: ("ey", "ez"), 1: ("ex", "ez"), 2: ("ex", "ey")}
_TANGENTIAL_B = {0: ("by", "bz"), 1: ("bx", "bz"), 2: ("bx", "by")}


class MurBoundary:
    """First-order Mur ABC state for selected axes.

    The one-step history (last step's boundary-adjacent planes) lives
    in one contiguous float32 block, laid out ``[axis][component: E
    tangential pair, then B pair][side: low, high][plane]`` and only
    ever written in place — by the update itself,
    :meth:`refresh_history` and :meth:`load_history` — so the native
    kernel can be handed its address.
    """

    def __init__(self, fields: FieldArrays, axes: tuple[int, ...] = (0,)):
        for a in axes:
            if a not in (0, 1, 2):
                raise ValueError(f"axis must be 0..2, got {a}")
        self.fields = fields
        self.grid = fields.grid
        self.axes = tuple(sorted(set(axes)))
        self._k = {a: self._coefficient(a) for a in self.axes}
        keys = [(a, high, comp) for a in self.axes
                for comp in _TANGENTIAL[a] + _TANGENTIAL_B[a]
                for high in (False, True)]
        shapes = [self._slab(comp, a, high, ghost=False).shape
                  for a, high, comp in keys]
        self._history = np.empty(sum(int(np.prod(s)) for s in shapes),
                                 dtype=np.float32)
        # Previous-step boundary-adjacent values per (axis, side,
        # comp): views into the block.
        self._prev: dict[tuple[int, bool, str], np.ndarray] = {}
        offset = 0
        for key, shape in zip(keys, shapes):
            size = int(np.prod(shape))
            self._prev[key] = \
                self._history[offset:offset + size].reshape(shape)
            offset += size
        self.refresh_history()

    def _coefficient(self, axis: int) -> float:
        d = (self.grid.dx, self.grid.dy, self.grid.dz)[axis]
        cdt = self.grid.dt           # c = 1
        return (cdt - d) / (cdt + d)

    def _slab(self, comp: str, axis: int, high: bool, ghost: bool):
        g = self.grid
        n = (g.nx, g.ny, g.nz)[axis]
        idx = (n + 1 if high else 0) if ghost else (n if high else 1)
        sl = [slice(None)] * 3
        sl[axis] = idx
        return getattr(self.fields, comp).data[tuple(sl)]

    # -- history ----------------------------------------------------------------

    def history_items(self):
        """``((axis, high, comp), plane)`` pairs in sorted key order
        (the checkpoint format's); the planes are live views."""
        return sorted(self._prev.items())

    def refresh_history(self) -> None:
        """Re-read every history plane from the current fields (after
        a moving-window shift: the old planes refer to pre-shift
        cells)."""
        for (a, high, comp), prev in self._prev.items():
            prev[...] = self._slab(comp, a, high, ghost=False)

    def load_history(self, arrays) -> None:
        """Overwrite history planes from a ``{(axis, high, comp):
        array}`` mapping (checkpoint restore); keys it lacks keep
        their current values."""
        for key, prev in self._prev.items():
            if key in arrays:
                prev[...] = arrays[key]

    def native_args(self, magnetic: bool):
        """``(component 0, component 1, history, k)`` for the native
        x-axis update of the tangential E (or, *magnetic*, B) pair:
        the two field arrays, the pair's ``(2 components, 2 sides,
        plane)`` run of the history block and the float32
        coefficient. Axis 0 sorts first, so its planes open the
        block."""
        names = (_TANGENTIAL_B if magnetic else _TANGENTIAL)[0]
        run = 4 * self._prev[(0, False, names[0])].size
        start = run if magnetic else 0
        return (getattr(self.fields, names[0]).data,
                getattr(self.fields, names[1]).data,
                self._history[start:start + run],
                np.float32(self._k[0]))

    # -- the update -------------------------------------------------------------

    def _apply_components(self, table) -> None:
        for a in self.axes:
            k = np.float32(self._k[a])
            for high in (False, True):
                for comp in table[a]:
                    ghost = self._slab(comp, a, high, ghost=True)
                    boundary = self._slab(comp, a, high, ghost=False)
                    prev = self._prev[(a, high, comp)]
                    ghost[...] = prev + k * (boundary - ghost)
                    prev[...] = boundary

    def apply(self) -> None:
        """Update ghost tangential E on the absorbing faces.

        Call after ``advance_e`` each step.
        """
        self._apply_components(_TANGENTIAL)

    def apply_b(self) -> None:
        """Update ghost tangential B on the absorbing faces.

        Call after each ``advance_b`` half-step; the low-side B ghost
        feeds the backward-difference curl in ``advance_e``.
        """
        self._apply_components(_TANGENTIAL_B)


class AbsorbingFieldSolver(FieldSolver):
    """Field solver with Mur ABC on chosen axes, periodic elsewhere.

    The periodic ghost sync is suppressed on absorbing axes (it would
    overwrite the ABC ghosts); the Mur update runs after every E
    advance. With :attr:`~FieldSolver.kernels` set (absorbing x only
    — the owner's gate) the inherited advances sync y and z natively
    and the Mur update is native too.
    """

    def __init__(self, fields: FieldArrays, axes: tuple[int, ...] = (0,)):
        super().__init__(fields)
        self.mur = MurBoundary(fields, axes)
        self._absorbing_axes = self.mur.axes

    def sync_periodic(self, names=_FIELD_NAMES) -> None:
        g = self.grid
        for name in names:
            arr = getattr(self.fields, name).data
            if 0 not in self._absorbing_axes:
                arr[0, :, :] = arr[g.nx, :, :]
                arr[g.nx + 1, :, :] = arr[1, :, :]
            if 1 not in self._absorbing_axes:
                arr[:, 0, :] = arr[:, g.ny, :]
                arr[:, g.ny + 1, :] = arr[:, 1, :]
            if 2 not in self._absorbing_axes:
                arr[:, :, 0] = arr[:, :, g.nz]
                arr[:, :, g.nz + 1] = arr[:, :, 1]

    @property
    def native_sync(self) -> int:
        """2 — periodic in y and z only; the x ghosts belong to the
        Mur update. The native kernels cover no other axis set."""
        if self._absorbing_axes != (0,):
            raise ValueError(
                f"native kernels cover absorbing axes (0,) only, "
                f"got {self._absorbing_axes}")
        return 2

    def advance_b(self, frac: float = 0.5, sync: bool = True) -> None:
        super().advance_b(frac, sync=sync)
        if self.kernels is not None:
            self._native().mur_apply(magnetic=True)
        else:
            self.mur.apply_b()

    def advance_e(self, frac: float = 1.0) -> None:
        super().advance_e(frac)
        if self.kernels is not None:
            self._native().mur_apply(magnetic=False)
        else:
            self.mur.apply()
