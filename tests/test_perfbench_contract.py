"""What ``perfbench/trace.py`` needs of ``src/``, as a tier-1 test.

The benchmark's tracer wraps the layers' entry points from outside and
is frozen between ``benchmark`` PRs, so a renamed or deleted name in
``src/`` would otherwise first show as a failed benchmark run. This
reads the tracer's own target tables (nothing here is a second copy of
them) and checks that every name still resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"

#: ``(module, class or None, attribute)`` that ``install()``,
#: ``_install_distributed()``, ``exit_counts()`` and ``model_probe()``
#: reach by name beyond the two target tables.
BY_NAME = (
    ("repro.cli", None, "main"),
    ("repro.vpic.native", None, "step_simulation"),
    ("repro.vpic.native", None, "native_push_kernel"),
    ("repro.vpic.deck", "Deck", "build"),
    ("repro.observability.flight", "FlightRecorder", "close"),
    ("repro.mpi.distributed", "DistributedSimulation", "__init__"),
    ("repro.mpi.distributed", "DistributedSimulation", "run"),
    ("repro.mpi.distributed", "DistributedSimulation", "close"),
    ("repro.mpi.process_backend", None, "STAT_PUSH"),
    ("repro.mpi.process_backend", None, "STAT_FIELD"),
    ("repro.mpi.process_backend", None, "STAT_WAIT"),
    ("repro.mpi.process_backend", None, "STAT_MIG_WAIT"),
    ("repro.mpi.process_backend", None, "STAT_PACK"),
    ("repro.mpi.process_backend", "ProcessBackend", "rank_report"),
    ("repro.kokkos.profiling", None, "kernel_timings"),
    ("repro.observability.metrics", None, "default_registry"),
    ("repro.bench.push_bench", None, "push_trace_from_keys"),
    ("repro.machine.host", None, "host_platform"),
    ("repro.perfmodel.kernel_cost", None, "push_kernel_cost"),
    ("repro.perfmodel.predict", None, "predict_time"),
)


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace",
                                                  TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(targets) -> list[str]:
    missing = []
    for mod_name, cls_name, attr in targets:
        module = importlib.import_module(mod_name)
        if cls_name is None:
            found = hasattr(module, attr)
        else:
            # ``Tracer.wrap_method`` reads ``cls.__dict__[attr]``: an
            # inherited method is not enough.
            found = attr in vars(getattr(module, cls_name, object))
        if not found:
            missing.append(".".join(filter(None, (mod_name, cls_name, attr))))
    return missing


def test_every_traced_entry_point_resolves(trace):
    targets = [t[:3] for t in trace._TARGETS + trace._MPI_TARGETS]
    assert len(targets) > 20             # the tables were found, not emptied
    assert _missing(targets) == []


def test_names_the_tracer_imports_resolve(trace):
    assert _missing(BY_NAME) == []
