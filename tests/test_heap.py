"""The C-heap policy of large datasets (glibc's mallopt thresholds)."""

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
BIG = dataset.CHUNK_BYTES // (2 * dataset.ROW_BYTES) + 1


def make(n: int) -> Dataset:
    return Dataset(np.zeros(n), np.zeros(n), np.zeros((n, 1)), np.zeros((n, 1)))


@pytest.fixture
def mallopt(monkeypatch):
    """Records the mallopt calls of a fresh process with a clean environment."""
    calls = []
    monkeypatch.setattr(dataset, "_heap_rows", BIG)
    monkeypatch.setattr(dataset, "_libc",
                        lambda: SimpleNamespace(mallopt=lambda *args: calls.append(args)))
    for name in GLIBC_MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    return calls


PINNED = [(-3, 4 << 20), (-1, 64 << 20)]


def test_policy_engages_once_per_process_at_the_chunk_of_one(mallopt):
    assert dataset._chunk_size(BIG - 1) == 2 and dataset._chunk_size(BIG) == 1
    make(BIG - 1).take(np.arange(BIG - 1))
    assert mallopt == []
    make(BIG)
    assert mallopt == PINNED
    make(BIG).take(np.arange(BIG))
    assert mallopt == PINNED


def test_policy_engages_from_the_trusted_constructor(mallopt):
    small = make(10)
    assert mallopt == []
    small.take(np.zeros(BIG, dtype=int))
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
    make(BIG)
    make(BIG)
    assert mallopt == []
    assert dataset._heap_rows == np.inf


def test_other_tunables_do_not_defer_the_policy(mallopt, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.nns=2")
    make(BIG)
    assert mallopt == PINNED


@pytest.mark.parametrize("libc", [None, SimpleNamespace()])
def test_missing_mallopt_is_no_error(mallopt, monkeypatch, libc):
    monkeypatch.setattr(dataset, "_libc", lambda: libc)
    assert make(BIG).n == BIG
    assert dataset._heap_rows == np.inf


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
