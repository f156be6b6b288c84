"""The benchmark still runs against this source tree.

`bench/tracing.py` wraps the public functions each shardsim layer defines or
imports from another layer.  A name it expects but cannot find would leave
its per-layer metrics silently at zero, so a change to the imports between
layers must keep every one of them.  `bench/run.py` checks every pass of its
workloads; one small pass of each must check clean here too, so a change to
what the benchmark reads (such as `EventTrace.events`) fails the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import shardsim
import shardsim.cli  # noqa: F401  (the tracer reads each layer as an attribute)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_expected_function():
    assert load("tracing").Tracer(shardsim).absent() == []


@pytest.mark.parametrize("workload",
                         ["sweep-wide", "calibrate-fit", "schedule-fuzz"])
def test_tiny_pass_checks_clean(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds bench/
    run = load("run")
    case = run.WORKLOADS[workload](shardsim, 1, True, tmp_path)
    done = case.run_pass()
    assert case.verify(done) == []
    assert done.failed == 0
