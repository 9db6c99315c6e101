"""Goldens of the observed path: guard, flight recorder and metrics.

``run-deck uniform --steps 60 --guard raise --record 1 --metrics m.json``
at seeds 0 and 3 — the command of perfbench's ``observed`` workload at a
shorter horizon. Every step a tool reads there is a native step that
measures its energy in C, and the detail-mode sort runs in the step
and counts its own disorder; what the tools print and record must be
what the numpy passes gave: the energy line, the guard report, the
flight log's energy rows, the drift and disorder gauges and the final
state.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.vpic.simulation import Simulation

pytestmark = pytest.mark.native

_FIELDS9 = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz")

#: The guard report of both seeds (a clean run).
GUARD_REPORT = [
    "guard report: 60 steps guarded, 270 checks run, 0 violations "
    "(0 warned, 0 repaired, 0 rollbacks)",
    "  continuity         x6",
    "  div_b              x6",
    "  energy_drift       x12",
    "  finite_fields      x60",
    "  finite_particles   x60",
    "  gauss_law          x6",
    "  particle_bounds    x60",
    "  sort_order         x60",
]

#: Per seed: the energy line, the flight log's energy rows as
#: ``(step, field_e, field_b, kinetic, total, drift)``, the metrics
#: gauges and the final-state sha256, recorded at commit e579587.
GOLDEN = {
    0: {
        "energy": ("step 60: E=7.1344e-02 B=5.7166e-03 K=1.8553e+00"
                   " total=1.9324e+00 (drift 0.37%)"),
        "rows": [
            (1, 0.005251733616389546, 0.0, 1.925337041858751,
             1.9305887754751405, 0.0),
            (11, 0.05766189434948205, 0.005311872951543984, 1.865715538753307,
             1.928689306054333, 0.0009838808994110876),
            (21, 0.06937895948254773, 0.005705000140739244,
             1.8547953159452448, 1.929879275568532, 0.0003675044191811421),
            (31, 0.070314716224742, 0.005368944487496027, 1.8555798294466992,
             1.9312634901589372, 0.0003494864843138829),
            (41, 0.06897275543983601, 0.005907503269277119, 1.855795062295599,
             1.930675321004712, 4.48285676737382e-05),
            (51, 0.07163036312098699, 0.005645008734639311, 1.854351820522385,
             1.9316271923780113, 0.0005378757589716112),
        ],
        "gauges": {
            "sim/energy_drift": 0.0009335573540206828,
            "sort/disorder_before": 0.46595660267952516,
            "sort/disorder_after": 0.0,
        },
        "sha256": ("8477abe73e6b6e3bf0d7379f723c0491"
                   "589cdcebe0fa722bb1dbf49b62b59f25"),
    },
    3: {
        "energy": ("step 60: E=7.3293e-02 B=6.1584e-03 K=1.8429e+00"
                   " total=1.9223e+00 (drift 0.40%)"),
        "rows": [
            (1, 0.005359840476149295, 0.0, 1.9145999012797135,
             1.9199597417558627, 0.0),
            (11, 0.056355666666155615, 0.0056708040005710395,
             1.8561697010006557, 1.9181961716673823, 0.0009185453476579369),
            (21, 0.06893200726308629, 0.005609720660795519, 1.844770287379455,
             1.9193120153033367, 0.000337364601162736),
            (31, 0.06754728661596382, 0.00545656657894554, 1.8472042352560463,
             1.9202080884509556, 0.00012934994921599857),
            (41, 0.06891428450160146, 0.005864335052351044,
             1.8456388984270065, 1.920417517980959, 0.0002384301166011433),
            (51, 0.07213825309212621, 0.005680211421173689,
             1.8434310860635836, 1.9212495505768836, 0.0006717895135870668),
        ],
        "gauges": {
            "sim/energy_drift": 0.0012399294504757549,
            "sort/disorder_before": 0.4640949736014893,
            "sort/disorder_after": 0.0,
        },
        "sha256": ("21d15e418ccb649639e95d42769aa8b6"
                   "9fb20f27c996ea558945a0bc796d0854"),
    },
}


def _state_digest(sim) -> str:
    h = hashlib.sha256()
    for name in _FIELDS9:
        h.update(getattr(sim.fields, name).data.tobytes())
    for sp in sim.species:
        for attr in sp._ARRAYS:
            h.update(sp.live(attr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_observed_run_matches_golden(tmp_path, capsys, monkeypatch, seed):
    sims = []
    run = Simulation.run

    def capture(self, *args, **kwargs):
        sims.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", capture)
    rec, metrics = tmp_path / "rec", tmp_path / "m.json"
    assert main(["run-deck", "uniform", "--steps", "60", "--seed",
                 str(seed), "--guard", "raise", "--record", "1",
                 "--record-dir", str(rec), "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out.splitlines()
    want = GOLDEN[seed]
    energy = [line for line in out if line.startswith("step 60:")]
    assert energy == [want["energy"]]
    at = out.index(want["energy"]) + 1
    assert out[at:at + len(GUARD_REPORT)] == GUARD_REPORT
    rows = []
    for path in sorted(rec.glob("flight-*.jsonl")):
        for line in path.read_text().splitlines():
            ev = json.loads(line)
            if ev.get("energy") is not None:
                e = ev["energy"]
                rows.append((ev["step"], e["field_e"], e["field_b"],
                             e["kinetic"], e["total"], e["drift"]))
    assert rows == want["rows"]
    gauges = json.loads(metrics.read_text())["gauges"]
    assert {k: gauges[k] for k in want["gauges"]} == want["gauges"]
    assert _state_digest(sims[0]) == want["sha256"]
