"""Tests of the benchmark itself. Run explicitly: ``python -m pytest perfbench -q``
(tier-1 ``testpaths`` does not include this directory)."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ladder
import run

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def doc(spans, names):
    """Trace document from ``(name, start, end, parent index)`` tuples."""
    return {"names": names, "counts": {}, "spans": {
        "name": [names.index(s[0]) for s in spans],
        "start": [s[1] for s in spans],
        "end": [s[2] for s in spans],
        "parent": [s[3] for s in spans]}}


def test_self_time_is_span_minus_union_of_children():
    spans = ladder.Spans(doc([
        ("step", 0.0, 10.0, -1),
        ("push", 1.0, 4.0, 0),
        ("sort", 3.0, 6.0, 0),        # overlaps push: union is 1..6
        ("drain", 8.0, 12.0, 0),      # sticks out: clipped to 8..10
        ("inner", 1.5, 2.0, 1),       # grandchild: only push's business
    ], ["step", "push", "sort", "drain", "inner"]))
    assert spans.self_times == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])
    assert spans.self_total("step") == pytest.approx(3.0)
    assert spans.calls("push") == 1


def test_inclusive_counts_nested_same_name_once_and_filters_by_parent():
    spans = ladder.Spans(doc([
        ("solve", 0.0, 4.0, -1),
        ("solve", 1.0, 3.0, 0),       # subclass calling the base method
        ("step", 5.0, 9.0, -1),
        ("energy", 5.0, 6.0, 2),
        ("diag", 9.0, 12.0, -1),
        ("energy", 9.0, 11.0, 4),
    ], ["solve", "step", "energy", "diag"]))
    assert spans.inclusive("solve") == pytest.approx(4.0)
    assert spans.inclusive("energy") == pytest.approx(3.0)
    assert spans.inclusive("energy", under="step") == pytest.approx(1.0)
    assert spans.inclusive("absent") == 0.0


def test_tail_claims_only_percentiles_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert ladder.tail(values) == (90.0, 90.0)
    assert ladder.tail(values[:64])[0] == 75.0
    assert ladder.tail(values[:12]) == (50.0, 6.5)
    assert ladder.tail([float(i) for i in range(20000)])[0] == 99.9


def test_derive_reports_every_per_layer_metric_it_owns():
    d = doc([("cli.import", 0.0, 0.2, -1), ("cli.main", 0.2, 1.0, -1),
             ("sim.step", 0.3, 0.9, 1)], ["cli.import", "cli.main",
                                          "sim.step"])
    d["counts"] = {"sim.lane.native-step": 1}
    metrics = ladder.derive(d, wall_s=1.25)
    assert metrics["cli.self_s"] == pytest.approx(0.2)
    assert metrics["trace.unaccounted_frac"] == pytest.approx(0.2)
    harness_side = {"trace.overhead_frac", "native.build_cold_s",
                    "mpi.serialized_run_s", "mpi.overlap_eff",
                    "mpi.speedup_vs_1rank", "mpi.scaling_eff",
                    "mpi.leaked_shm", "mpi.leaked_children", "energy_err",
                    "fail_frac"}
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(metrics) | harness_side == declared


def test_parse_energy_reads_both_cli_formats():
    single = ("deck 'u': 4096 cells, 32768 particles, 50 steps\n"
              "step 50: E=7.1185e-02 B=5.7100e-03 K=1.8548e+00 "
              "total=1.9317e+00 (drift 0.34%)\n")
    ranks = ("50 steps in 0.282 s (5.636 ms/step)\n"
             "energy: KE 1.839605e+00  E 1.460348e-01  B 7.707037e-02\n")
    assert run.parse_energy(single)[1] == pytest.approx(1.9317)
    assert run.parse_energy(ranks)[1] == pytest.approx(2.0627104)
    # Parses, but is not finite: Session.run counts the run as failed.
    assert math.isnan(run.parse_energy("step 5: E=nan B=0 K=0 total=nan")[1])
    assert run.parse_energy("no energy here") is None
    assert run.parse_energy("step 5: E=1 B=2 K=3 total=oops") is None


def stats(values):
    return run.summarize([float(v) for v in values])


@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.1, 10.2], [10.1, 10.2, 10.3], "lower", "same"),
    ([10, 10.1, 10.2], [11.5, 11.6, 11.7], "lower", "worse"),
    ([10, 10.1, 10.2], [9.0, 9.1, 9.2], "lower", "better"),
    ([10, 10.1, 10.2], [9.0, 9.1, 9.2], "higher", "same"),       # -9 % < bound
    ([10, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", "worse"),
    ([8, 10, 12, 14], [9, 10.5, 12, 13], "lower", "unresolved"),  # noisy
    ([8, 10, 12, 14], [5, 6, 7, 7.5], "lower", "better"),  # noisy, all better
    ([8, 10, 12, 14], [16, 18, 20, 22], "lower", "worse"),  # noisy, all worse
])
def test_compare_verdicts(a, b, better, expected):
    assert run.verdict(stats(a), stats(b), better, bound=0.10) == expected


def test_contract_names_are_well_formed_and_match_the_workload_table():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = [m["name"]
               for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert all(name.match(n) for n in metrics + workloads)
    assert len(set(metrics)) == len(metrics)
    assert workloads == [w.name for w in run.WORKLOADS]
    assert "setup_s" in metrics


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench-out")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    (path,) = out.glob("perfbench-smoke-seed0.json")
    return json.loads(path.read_text()), out


def test_smoke_reports_exactly_the_contract(smoke):
    envelope, out = smoke
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    assert list(envelope["workloads"]) == [w["name"]
                                           for w in CONTRACT["workloads"]]
    for name, result in envelope["workloads"].items():
        assert set(result["end_to_end"]) == end_to_end, name
        assert set(result["per_layer"]) == per_layer, name
        assert result["failed"] == 0 and result["correct"], result["failures"]
        assert result["checks"]["fail_frac"] == 0
        for record in result["end_to_end"].values():
            assert set(record) == {"n", "median", "min", "max", "q1", "q3"}
        assert (out / f"trace-{name}.json").is_file()
    for key in ("host", "nproc", "git_head", "python", "numpy",
                "native_build_key", "native_status", "seed"):
        assert key in envelope
    assert envelope["claim"] is None
    assert not list(out.glob("tmp-*")), "temporary directories left behind"


def test_smoke_ladder_has_the_expected_shape(smoke):
    workloads = smoke[0]["workloads"]

    def layer(workload, metric):
        return workloads[workload]["per_layer"][metric]["median"]

    assert layer("push-bound", "native.c_push_s") > 0
    assert layer("reference-lane", "native.calls") == 0
    assert layer("reference-lane", "push.reference_s") > 0
    assert layer("sources-lane", "sources.apply_s") > 0
    assert layer("observed", "guard.checks_run") > 0
    assert layer("observed", "guard.violations") == 0
    assert layer("ranks-procs", "mpi.arena_bytes") > 0
    assert layer("ranks-threads", "mpi.msgs_per_step") > 0
    for name in workloads:
        assert layer(name, "mpi.leaked_shm") == 0
        assert layer(name, "mpi.leaked_children") == 0
        if not name.startswith("ranks-"):
            assert workloads[name]["checks"]["energy_err"] == 0


def test_compare_cli_accepts_an_envelope_against_itself(smoke, tmp_path):
    envelope, out = smoke
    (path,) = out.glob("perfbench-smoke-seed0.json")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(path),
         str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout and "differs" not in proc.stdout
    # A copy whose push-bound wall clock doubled is worse, and exits 1.
    envelope["workloads"]["push-bound"]["end_to_end"]["wall_s"] = {
        k: (v if k == "n" else 2 * v) for k, v in
        envelope["workloads"]["push-bound"]["end_to_end"]["wall_s"].items()}
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(envelope))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(path),
         str(slow)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "worse" in proc.stdout
