"""The benchmark's tracer still finds every function it wraps, its
bootstrap workload still agrees with ``lineariv fit``, the committed
``BENCH_*.json`` summaries are complete, and no module imports a name it
does not use."""

import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import lineariv.estimators

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_bench_summaries_are_strict_json_with_both_sides_of_every_workload():
    # each root BENCH_*.json is ``perfbench/summarize.py``'s document for the
    # parent and for the change, over the same paired runs
    registry = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in registry["workloads"]}
    metrics = [m["name"] for m in registry["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        for side in ("parent", "change"):
            summary = doc[side]["workloads"]
            assert workloads <= summary.keys(), (path.name, side)
            for name in workloads:
                for metric in metrics:
                    spread = summary[name]["untraced"][metric]
                    values = [spread[k] for k in ("q1", "median", "q3")]
                    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
                    assert values == sorted(values), (path.name, side, name, metric)


def _unused_imports(path: Path) -> list[str]:
    """Names that a module imports and never reads; a name listed in its
    ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_package_modules_import_only_what_they_use():
    modules = sorted((ROOT / "src" / "lineariv").glob("*.py"))
    assert len(modules) > 5
    unused = [entry for path in modules if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
