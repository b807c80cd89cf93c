"""The benchmark's tracer still finds every function it wraps, and its
bootstrap workload still agrees with ``lineariv fit``."""

import importlib.util
import sys
from pathlib import Path

import lineariv.estimators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_bootstrap_workload_equals_lineariv_fit(tmp_path, monkeypatch):
    # the benchmark's modules import each other by their bare names
    for name in ("refclock", "tracing"):
        _load(name, monkeypatch)
    workloads = _load("workloads", monkeypatch)
    params = workloads.SIZES["bootstrap_fit"]["smoke"]
    assert params == {"n": 200, "resamples": 100}
    workloads.BootstrapFit.prepare(tmp_path, params, 1)
    workload = workloads.BootstrapFit(params, 1, tmp_path, full=False)
    workload.warmup()
    harness = workloads.Harness()
    result = workload.run_pass(harness)
    assert result["passed"], result["detail"]
    assert harness.ops == params["resamples"] and harness.failed_ops == 0
    checks = workload.final_check([result])
    assert checks and all(check["passed"] for check in checks), checks
