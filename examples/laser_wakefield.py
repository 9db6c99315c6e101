#!/usr/bin/env python
"""Moving-window laser wakefield: following a pulse at ~c.

An antenna launches a short laser pulse into underdense plasma
(omega = 3 w_pe); its ponderomotive push drives a plasma wake. Once
the pulse is fully launched, a MovingWindow slides the whole box
along with it: trailing plasma drops off the back, fresh unperturbed
plasma loads at the front, and the absorbing x boundary keeps the
launch edge quiet. The simulated region stays pulse-sized while the
pulse propagates arbitrarily far — PIConGPU's flagship workload
pattern, composed here from the injection + window + absorbing
boundary subsystems.

Run:  python examples/laser_wakefield.py
"""

import numpy as np

from repro.vpic.diagnostics import EnergyDiagnostic
from repro.vpic.workloads import laser_wakefield_deck


def main() -> None:
    deck = laser_wakefield_deck(a0=1.0, omega=3.0, num_steps=160)
    sim = deck.build()
    antenna, window = sim.sources
    print(f"wakefield: {sim.grid.nx}x{sim.grid.ny}x{sim.grid.nz} "
          f"cells, {sim.total_particles} particles, "
          f"a0={antenna.amplitude}, omega={antenna.omega}")
    print(f"window starts after step {window.start} "
          f"(pulse launch takes {antenna.duration:.1f}/c)")

    diag = EnergyDiagnostic()
    sim.run(deck.num_steps, diag, sample_every=10)

    print(f"\nwindow shifts applied: {window.shifts_applied} "
          f"(box has moved {window.shifts_applied * sim.grid.dx:.1f} "
          f"of {sim.grid.nx * sim.grid.dx:.1f} box lengths worth)")

    # transverse laser field + longitudinal wake field along x
    mid_y, mid_z = sim.grid.ny // 2 + 1, sim.grid.nz // 2 + 1
    ez_line = sim.fields.ez.data[1:-1, mid_y, mid_z]
    ex_line = sim.fields.ex.data[1:-1, mid_y, mid_z]
    print(f"laser Ez:  peak |Ez| = {np.abs(ez_line).max():.3f} "
          f"at cell {int(np.abs(ez_line).argmax())}")
    print(f"wake Ex:   peak |Ex| = {np.abs(ex_line).max():.3f} "
          f"at cell {int(np.abs(ex_line).argmax())} (trails the pulse)")

    scale = max(np.abs(ex_line).max(), 1e-30)
    print("\n  x cell   Ex (wake)")
    for i in range(0, sim.grid.nx, max(1, sim.grid.nx // 24)):
        v = ex_line[i]
        n = int(20 * abs(v) / scale)
        bar = ("-" * n if v < 0 else "+" * n)
        print(f"  {i:5d}    {v:+.3e} {bar}")

    e = diag.series("electric")
    print(f"\nfield energy in box: {e[0]:.3e} -> {e[-1]:.3e} "
          f"(steady once the window tracks the pulse)")


if __name__ == "__main__":
    main()
