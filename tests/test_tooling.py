"""The benchmark's tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

import lineariv.estimators

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = lineariv.estimators.standard_tsls
    tracer = tracing.Tracer()
    try:
        # resolves every traced name: a renamed or removed one raises here
        tracer.install()
        assert lineariv.estimators.standard_tsls is not original
    finally:
        tracer.uninstall()
    assert lineariv.estimators.standard_tsls is original
