"""The C-heap policy of every process that builds a dataset (glibc's
mallopt thresholds)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lineariv
from lineariv import dataset
from lineariv.dataset import Dataset

glibc_only = pytest.mark.skipif(dataset._libc() is None, reason="the policy acts on glibc only")

GLIBC_MALLOC_ENV = (*dataset._MALLOC_ENV, "GLIBC_TUNABLES")


def make(n: int) -> Dataset:
    return Dataset(np.zeros(n), np.zeros(n), np.zeros((n, 1)), np.zeros((n, 1)))


@pytest.fixture
def mallopt(monkeypatch):
    """Records the mallopt calls of a fresh process with a clean environment."""
    calls = []
    monkeypatch.setattr(dataset, "_heap_pinned", False)
    monkeypatch.setattr(dataset, "_libc",
                        lambda: SimpleNamespace(mallopt=lambda *args: calls.append(args)))
    for name in GLIBC_MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    return calls


PINNED = [(-3, 4 << 20), (-1, 64 << 20)]


def test_policy_engages_once_per_process_at_the_first_dataset(mallopt):
    make(1)
    assert mallopt == PINNED
    make(8000).take(np.arange(8000))
    make(3).take([0, 2])
    assert mallopt == PINNED


def test_policy_engages_from_the_trusted_constructor(mallopt, monkeypatch):
    small = make(10)
    mallopt.clear()
    monkeypatch.setattr(dataset, "_heap_pinned", False)
    small.take(np.zeros(4, dtype=int))
    assert mallopt == PINNED


@pytest.mark.parametrize("name, value", [
    ("MALLOC_TOP_PAD_", "4194304"),
    ("MALLOC_TRIM_THRESHOLD_", "0"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1000000"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.top_pad=0"),
])
def test_environment_settings_defer_the_policy(mallopt, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    make(1)
    make(8000)
    assert mallopt == []
    assert dataset._heap_pinned


def test_other_tunables_do_not_defer_the_policy(mallopt, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.nns=2")
    make(1)
    assert mallopt == PINNED


@pytest.mark.parametrize("libc", [None, SimpleNamespace()])
def test_missing_mallopt_is_no_error(mallopt, monkeypatch, libc):
    monkeypatch.setattr(dataset, "_libc", lambda: libc)
    assert make(1).n == 1
    assert dataset._heap_pinned


def run_python(code: str, env: dict | None = None, cwd=None) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports this
    lineariv, with ``env`` (default: without glibc malloc settings)."""
    if env is None:
        env = {k: v for k, v in os.environ.items() if k not in GLIBC_MALLOC_ENV}
    src = str(Path(lineariv.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


@glibc_only
def test_n8000_replicates_stop_faulting_in_fresh_pages():
    # about 900 minor faults a replicate without the policy
    out = run_python("""
        import resource
        from lineariv.simlab import ScenarioConfig, run_monte_carlo
        from lineariv.suites import table1_estimators

        estimators = table1_estimators()
        run_monte_carlo(ScenarioConfig("table1", n=8000, seed=1, reps=2, lam=(0, 0, 0)), estimators)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_monte_carlo(ScenarioConfig("table1", n=8000, seed=2, reps=4, lam=(0, 0, 0)), estimators)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert int(out) < 200


@glibc_only
def test_reports_are_byte_identical_under_either_heap_policy(tmp_path):
    code = """
        from lineariv import dataset
        from lineariv.simlab import ScenarioConfig, run_monte_carlo, write_report_csv, write_report_json
        from lineariv.suites import table1_estimators

        reached = []
        libc = dataset._libc
        dataset._libc = lambda: reached.append(1) or libc()
        reports = [run_monte_carlo(ScenarioConfig("table1", n=8000, seed=11, reps=3, lam=lam),
                                   table1_estimators())
                   for lam in [(1, 0, 0), (0, 0, -1)]]
        write_report_csv(reports, "report.csv")
        write_report_json(reports, "report.json")
        print(len(reached))
    """
    clean = {k: v for k, v in os.environ.items() if k not in GLIBC_MALLOC_ENV}
    runs = {"pinned": (clean, "1"), "deferred": ({**clean, "MALLOC_TOP_PAD_": "4194304"}, "0")}
    reports = {}
    for label, (env, mallopt_reached) in runs.items():
        (tmp_path / label).mkdir()
        assert run_python(code, env, cwd=tmp_path / label).strip() == mallopt_reached
        reports[label] = [(tmp_path / label / name).read_bytes()
                          for name in ("report.csv", "report.json")]
    assert reports["pinned"] == reports["deferred"]
    assert len(json.loads(reports["pinned"][1])["rows"]) == 2 * 5


@glibc_only
@pytest.mark.skipif(any(name in os.environ for name in GLIBC_MALLOC_ENV),
                    reason="a glibc malloc variable in the environment defers the policy")
def test_small_n_resamples_without_scipy_special_stop_faulting_in_fresh_pages(tmp_path):
    # without the policy, a process that never imports scipy.special (whose
    # import raises glibc's dynamic thresholds) faults in about 30 fresh pages
    # a resample at n=1000; with it, about 200 in all 1000 resamples
    from lineariv.simlab import gen_table1

    dataset.write_csv(gen_table1(0, 0, 0, 1000, 5).dataset, tmp_path / "table1.csv")
    out = run_python("""
        import resource, sys
        from lineariv import BasisSpec, ColumnMap, load_csv
        from lineariv.adaptive import br_gamma_estimate
        from lineariv.inference import bootstrap_ci

        data = load_csv("table1.csv", ColumnMap("y", "x", ["z"], ["v"]))
        lin = BasisSpec(["1", "c0"])
        fit = lambda ds: br_gamma_estimate(ds, lin, lin, lin).psi_hat
        bootstrap_ci(data, fit, resamples=200, seed=1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        bootstrap_ci(data, fit, resamples=1000, seed=2)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
              "scipy.special" in sys.modules)
    """, cwd=tmp_path)
    faults, special = out.split()
    assert special == "False"
    assert int(faults) < 2000
