"""The benchmark's tracer still finds every function it was designed around.

`bench/tracing.py` wraps the public functions each shardsim layer defines or
imports from another layer.  A name it expects but cannot find would leave
its per-layer metrics silently at zero, so a change to the imports between
layers must keep every one of them.
"""

import importlib.util
from pathlib import Path

import shardsim
import shardsim.cli  # noqa: F401  (the tracer reads each layer as an attribute)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_finds_every_expected_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer(shardsim).absent() == []
