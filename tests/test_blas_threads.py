"""Results do not depend on the BLAS thread count.

OpenBLAS splits a dot product across its threads above 10,000 elements, so a
sum over more rows than that is taken in blocks of at most 10,000 rows
(``glm._rowsum``).  Two fresh interpreters, one with one OpenBLAS thread and
one with two, must print the same bytes for fits on 25,000 rows, and for a
Table 1 report at n=8000, whose default chunks stack two replicates.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lineariv
from lineariv import simlab, write_csv

QUAD = ["1", "c0", "c0^2"]
LIN = ["1", "c0"]
PROBIT = ["--exposure-link", "probit", "--exposure-basis", "z0", "1", "c0"]
SANDWICH = ["--inference", "sandwich"]

# the flags of the benchmark's large-CSV workload (perfbench/workloads.py CLI_FITS)
CLI_FITS = {
    "tsls": ["--outcome-basis", *QUAD, *SANDWICH],
    "two-stage": [*PROBIT, "--outcome-basis", *QUAD, *SANDWICH],
    "loc-eff-y": [*PROBIT, "--outcome-basis", *QUAD, *SANDWICH],
    "g-est": ["--outcome-basis", *QUAD, "--iv-basis", *LIN, *SANDWICH],
    "loc-eff-dr": [*PROBIT, "--outcome-basis", *QUAD, "--iv-basis", *LIN, *SANDWICH],
    "eem": ["--index-basis", *LIN, "--outcome-basis", *QUAD, "--iv-basis", *LIN, *SANDWICH],
    "br-gamma": ["--index-basis", *LIN, "--outcome-basis", *QUAD, "--iv-basis", *LIN],
    "br-beta": ["--index-basis", *LIN, "--outcome-basis", *QUAD, "--iv-basis", *LIN],
}

CHILD = """
    import json, sys
    from lineariv.cli import main
    from lineariv.simlab import ScenarioConfig, report_rows, run_monte_carlo
    from lineariv.suites import sim_binary_estimators, table1_estimators

    csv, fits = sys.argv[1], json.loads(sys.argv[2])
    codes = [main(["fit", "--data", csv, "--y-col", "y", "--x-col", "x", "--z-cols", "z",
                   "--cov-cols", "v", "--estimator", estimator, *flags])
             for estimator, flags in fits.items()]
    reports = [run_monte_carlo(ScenarioConfig("sim1", n=25000, seed=4, reps=2),
                               sim_binary_estimators()),
               run_monte_carlo(ScenarioConfig("table1", n=8000, seed=20260809, reps=4,
                                              lam=(1, 1, 0)), table1_estimators())]
    print(json.dumps({"exit": codes, "report": report_rows(reports)}, sort_keys=True))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: OpenBLAS runs one thread whatever it is asked for")
def test_fits_and_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    csv = tmp_path / "sim1.csv"
    write_csv(simlab.gen_sim1(25_000, 1).dataset, csv)
    src = str(Path(lineariv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", textwrap.dedent(CHILD), str(csv), json.dumps(CLI_FITS)]
    children = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": path,
                                      "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
    (one, err_one), (two, err_two) = (child.communicate(timeout=600) for child in children)
    assert [child.returncode for child in children] == [0, 0], (err_one, err_two)
    last = json.loads(one.splitlines()[-1])
    assert last["exit"] == [0] * len(CLI_FITS)
    assert all(row["failed"] == 0 for row in last["report"])
    assert one == two
