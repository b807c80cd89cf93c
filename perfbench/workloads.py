"""The four benchmark workloads.

Every workload is a closed loop: one client in one process, the next op sent
when the previous one returns.  A run repeats whole *passes* of a workload;
a pass is the unit whose output is checked (a Monte Carlo report, a bootstrap
interval, one CLI fit per estimator), so every pass of a run repeats the same
inputs and must produce byte-identical output.

The benchmark calls lineariv only through its public functions and
``lineariv.cli.main``.  Functions are looked up on their modules at call time,
so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from lineariv import adaptive, cli, dataset, estimators, inference, models, rng, simlab, suites
from lineariv.errors import EstimationError

import refclock
from tracing import BUNDLE_SPAN, REFERENCE_SPAN

COLUMNS = dataset.ColumnMap("y", "x", ["z"], ["v"])
CSV_COLUMN_FLAGS = ["--y-col", "y", "--x-col", "x", "--z-cols", "z", "--cov-cols", "v"]

# Criterion-8 double-robustness grid: the lambda_z = 0 rows plus (0, 0, +-1).
DR_GRID = [(lx, ly, 0) for lx in (-1, 0, 1) for ly in (-1, 0, 1)] + [(0, 0, 1), (0, 0, -1)]
DR_ESTIMATORS = ("loc_eff", "eem", "br_gamma", "br_beta")

# "full" is the benchmark; "smoke" only exercises the plumbing (perfbench/smoke.py).
SIZES = {
    "mc_table1": {"full": {"n": 500, "reps": 1000}, "smoke": {"n": 500, "reps": 3}},
    "mc_table1_n8000": {"full": {"n": 8000, "reps": 60}, "smoke": {"n": 500, "reps": 2}},
    "bootstrap_fit": {"full": {"n": 1000, "resamples": 1000}, "smoke": {"n": 200, "resamples": 100}},
    "fit_large_csv": {"full": {"n": 25_000}, "smoke": {"n": 2000}},
}
# Nominal seconds of one full-size pass on the 2-vCPU host the benchmark was
# built on.  A run makes a fixed number of passes, not as many as fit in
# ``--seconds``, so a seed always gives the same ops and the same failed ops,
# however loaded the host is.
PASS_S = {"mc_table1": 30.0, "mc_table1_n8000": 24.0, "bootstrap_fit": 3.75, "fit_large_csv": 3.0}


def passes_for(name: str, seconds: float) -> int:
    """Passes in a run of ``seconds``: about that long at nominal speed, at least one."""
    return max(1, round(seconds / PASS_S[name]))


# (ops between samples of the reference kernel, kernel): a window is about
# 0.1 s of work, or one op where an op takes longer.
REFERENCE = {"mc_table1": (20, "numeric"), "mc_table1_n8000": (4, "numeric"),
             "bootstrap_fit": (25, "numeric"), "fit_large_csv": (1, "parse")}


class Harness:
    """Op clock and failure accounting around the callables handed to lineariv.

    An op's latency runs from the end of the previous op (or ``start()``) to
    its own end, so in a closed loop it covers everything the op caused,
    e.g. a replicate's data generation as well as its estimator calls.  With
    ``window`` set, the reference ``kernel`` is timed at the start of every
    pass and after every ``window`` ops, outside any op's latency.
    """

    def __init__(self, tracer=None, window: int | None = None, kernel: str = "numeric"):
        self.tracer = tracer
        self.window = window
        self.kernel = kernel
        self.latencies: list[float] = []
        self.ref_samples: list[tuple[int, float]] = []   # (ops before, kernel seconds)
        self.failed_ops = 0
        self.failures: Counter = Counter()   # (estimator, exception class) -> calls
        self._last = 0.0
        self._op_failed = False

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def _sample_reference(self) -> None:
        if self.window is not None:
            if self.tracer is not None:   # a span of its own keeps it out of the callers' self time
                seconds = self.tracer.span(REFERENCE_SPAN, refclock.kernel_seconds, self.kernel)
            else:
                seconds = refclock.kernel_seconds(self.kernel)
            self.ref_samples.append((self.ops, seconds))
        self._last = time.perf_counter()

    def start(self) -> None:
        self._sample_reference()

    def end_op(self) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self._last)
        self._last = now
        self.failed_ops += self._op_failed
        self._op_failed = False
        if self.tracer is not None:
            self.tracer.end_op()
        if self.window is not None and self.ops % self.window == 0:
            self._sample_reference()

    def fail(self, estimator: str, kind: str) -> None:
        self.failures[(estimator, kind)] += 1
        self._op_failed = True

    def call(self, estimator: str, fn, data, span: str | None = None):
        """Calls ``fn(data)``, recording EstimationError and non-finite results."""
        try:
            if span is not None and self.tracer is not None:
                value = self.tracer.span(span, fn, data)
            else:
                value = fn(data)
        except EstimationError as err:
            self.fail(estimator, type(err).__name__)
            raise
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            self.fail(estimator, "NonFinite")
        return value


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

class MonteCarlo:
    """``table1_estimators()`` over lambda rows through ``run_monte_carlo``.

    An op is one replicate: generating its data and running the
    five-estimator bundle on it.  The scenario seed is the one the library
    pins for the gated target, not ``--seed``: the correctness checks are
    statistical gates calibrated at that seed, and at other seeds they fail
    by chance (the table1 gates failed at 4 of 20 seeds tried, 1000 reps).
    The gates are not evaluated at smoke size.
    """

    name: str
    rows: list
    scenario_seed: int

    def __init__(self, params: dict, seed: int, workdir: Path, full: bool):
        self.n, self.reps, self.workdir, self.full = params["n"], params["reps"], workdir, full

    @staticmethod
    def prepare(workdir: Path, params: dict, seed: int) -> None:
        """Inputs are (scenario seed, rows, n, reps): nothing to write."""

    def params(self) -> dict:
        return {"n": self.n, "reps_per_row": self.reps, "rows": [list(r) for r in self.rows],
                "scenario_seed": self.scenario_seed, "threads": 1}

    def _config(self, lam, reps: int):
        return simlab.ScenarioConfig("table1", n=self.n, seed=self.scenario_seed, reps=reps, lam=lam)

    def warmup(self) -> None:
        data = simlab.generate(self._config(self.rows[0], 2), 0).dataset
        for fn in suites.table1_estimators().values():
            with contextlib.suppress(EstimationError):
                fn(data)

    def _estimators(self, harness: Harness) -> dict:
        bundle = suites.table1_estimators()
        last = list(bundle)[-1]

        def wrap(name, fn):
            def call(data):
                try:
                    return harness.call(name, fn, data, span=BUNDLE_SPAN)
                finally:
                    if name == last:
                        harness.end_op()
            return call

        return {name: wrap(name, fn) for name, fn in bundle.items()}

    def run_pass(self, harness: Harness) -> dict:
        harness.start()
        reports = {lam: simlab.run_monte_carlo(self._config(lam, self.reps), self._estimators(harness))
                   for lam in self.rows}
        out = self.workdir / f"{self.name}_report"
        simlab.write_report_csv(list(reports.values()), out.with_suffix(".csv"))
        simlab.write_report_json(list(reports.values()), out.with_suffix(".json"))
        if self.full:
            passed, detail = self.verdict(reports)
        else:
            passed, detail = True, "statistical gates not evaluated at smoke size"
        return {"output": out.with_suffix(".json").read_bytes() + out.with_suffix(".csv").read_bytes(),
                "passed": passed, "detail": detail}

    def verdict(self, reports) -> tuple[bool, str]:
        raise NotImplementedError

    def final_check(self, passes: list[dict]) -> list[dict]:
        return []


class McTable1(MonteCarlo):
    """Table 1 replication on the four gated rows; checked by ``table1_gates``."""

    name = "mc_table1"
    rows = suites.TABLE1_GATED_ROWS
    scenario_seed = suites.TABLE1_SEED

    def verdict(self, reports):
        gates = suites.table1_gates(reports)
        failed = [f"{g.name} ({g.detail})" for g in gates if not g.passed]
        return not failed, "; ".join(failed) or f"all {len(gates)} table1 gates passed"


class McTable1N8000(MonteCarlo):
    """The bundle on the criterion-8 double-robustness grid at n=8000.

    Seeded like the acceptance suite's criterion-8 test (the package default seed).
    """

    name = "mc_table1_n8000"
    rows = DR_GRID
    scenario_seed = suites.DEFAULT_SEED

    def verdict(self, reports):
        failed, worst = [], 0.0
        for lam, rep in reports.items():
            for name in DR_ESTIMATORS:
                s = rep.summaries[name]
                gate = 3 * s.sd[0] / np.sqrt(s.used)
                worst = max(worst, abs(s.bias[0]) / gate)
                if not abs(s.bias[0]) <= gate:
                    failed.append(f"{lam} {name}: |bias| {abs(s.bias[0]):.4f} > 3*MC-SE {gate:.4f}")
        return not failed, "; ".join(failed) or (
            f"criterion 8 holds on {len(reports) * len(DR_ESTIMATORS)} cells "
            f"(worst |bias|/(3*MC-SE) {worst:.3f})")


# ---------------------------------------------------------------------------
# CLI helpers
# ---------------------------------------------------------------------------

def cli_fit(argv: list[str]) -> tuple[int, dict | None, str]:
    """Runs ``lineariv fit`` in-process; returns (exit code, parsed JSON, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fit", *argv])
    return code, (json.loads(out.getvalue()) if code == 0 else None), err.getvalue().strip()


# ---------------------------------------------------------------------------
# Bootstrap workload
# ---------------------------------------------------------------------------

BR_BASIS = ["1", "c0"]


class BootstrapFit:
    """Percentile bootstrap of br-gamma (bases ``1 c0``) on one table1 CSV.

    An op is one resample.  The callable handed to ``bootstrap_ci`` is the
    pipeline ``lineariv fit --estimator br-gamma`` builds for the same bases.
    """

    name = "bootstrap_fit"

    def __init__(self, params: dict, seed: int, workdir: Path, full: bool):
        self.n, self.resamples, self.seed = params["n"], params["resamples"], seed
        self.csv = workdir / "bootstrap.csv"
        self.data = None
        self.basis = dataset.BasisSpec(BR_BASIS)

    @staticmethod
    def prepare(workdir: Path, params: dict, seed: int) -> None:
        sim = simlab.gen_table1(0, 0, 0, params["n"], seed)
        dataset.write_csv(sim.dataset, workdir / "bootstrap.csv")

    def params(self) -> dict:
        return {"n": self.n, "resamples": self.resamples, "estimator": "br-gamma",
                "bases": BR_BASIS, "lambda": [0, 0, 0]}

    def _estimate(self, data):
        return adaptive.br_gamma_estimate(data, self.basis, self.basis, self.basis).psi_hat

    def warmup(self) -> None:
        self.data = dataset.load_csv(self.csv, COLUMNS)
        idx = rng.make_generator([self.seed, 0]).integers(0, self.data.n, size=self.data.n)
        with contextlib.suppress(EstimationError):
            self._estimate(self.data.take(idx))

    def run_pass(self, harness: Harness) -> dict:
        def call(data):
            try:
                return harness.call("br-gamma", self._estimate, data)
            finally:
                harness.end_op()

        harness.start()
        try:
            res = inference.bootstrap_ci(self.data, call, resamples=self.resamples, seed=self.seed)
        except EstimationError as err:
            return {"output": b"", "passed": False, "detail": f"bootstrap failed: {err!r}"}
        result = {"lower": res.ci_lower.tolist(), "upper": res.ci_upper.tolist(),
                  "se": res.se.tolist(), "failed_resamples": res.failed_resamples}
        return {"output": json.dumps(result).encode(), "passed": True, "result": result,
                "detail": f"interval [{result['lower'][0]:.6f}, {result['upper'][0]:.6f}]"}

    def final_check(self, passes: list[dict]) -> list[dict]:
        """The interval must equal what ``lineariv fit --inference bootstrap`` prints."""
        if "result" not in passes[0]:
            return []
        mine = passes[0]["result"]
        code, payload, err = cli_fit([
            "--data", str(self.csv), *CSV_COLUMN_FLAGS, "--estimator", "br-gamma",
            "--outcome-basis", *BR_BASIS, "--index-basis", *BR_BASIS, "--iv-basis", *BR_BASIS,
            "--inference", "bootstrap", "--resamples", str(self.resamples), "--seed", str(self.seed)])
        if code != 0:
            return [{"name": "bootstrap equals lineariv fit", "passed": False,
                     "detail": f"lineariv fit exited {code}: {err}"}]
        theirs = {"lower": payload["ci"]["lower"], "upper": payload["ci"]["upper"],
                  "failed_resamples": payload["diagnostics"].get("failed_resamples")}
        same = all(mine[key] == theirs[key] for key in theirs)
        return [{"name": "bootstrap equals lineariv fit", "passed": same,
                 "detail": f"benchmark {({k: mine[k] for k in theirs})} vs cli {theirs}"}]


# ---------------------------------------------------------------------------
# Large-CSV CLI workload
# ---------------------------------------------------------------------------

QUAD = ["1", "c0", "c0^2"]
LIN = ["1", "c0"]
EXPOSURE = ["z0", "1", "c0"]
PROBIT = ["--exposure-link", "probit", "--exposure-basis", *EXPOSURE]
SANDWICH = ["--inference", "sandwich"]

# Estimator -> flags.  sim1 has a binary exposure and instrument, so the
# exposure models can use the probit link and the bias-reduced estimators apply.
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


def library_fit(estimator: str, data) -> np.ndarray:
    """The library calls ``lineariv fit`` makes for ``CLI_FITS[estimator]``."""
    quad, lin = dataset.BasisSpec(QUAD), dataset.BasisSpec(LIN)
    effect = models.EffectModel.constant()
    probit = models.ExposureModel("probit", dataset.BasisSpec(EXPOSURE))
    instruments = dataset.BasisSpec(["z0"])
    if estimator == "tsls":
        return estimators.standard_tsls(data, effect, quad, instruments).psi_hat
    if estimator == "two-stage":
        return estimators.plug_in_two_stage(data, probit, effect, quad).psi_hat
    if estimator == "loc-eff-y":
        return estimators.locally_efficient_y(data, probit.fit(data), effect, quad).psi_hat
    if estimator == "g-est":
        iv = models.BinaryLogisticIv.fit(data, lin)
        psi0 = estimators.standard_tsls(data, effect, quad, instruments).psi_hat
        beta = estimators.outcome_coef_at(data, effect, quad, psi0)
        return estimators.g_estimate(data, models.RawInstruments(), models.OutcomeModel(quad, beta),
                                     iv, effect).psi_hat
    if estimator == "loc-eff-dr":
        exposure = probit.fit(data)
        iv = models.BinaryLogisticIv.fit(data, lin)
        index = estimators.efficient_index(data, exposure, iv, effect)
        return estimators.g_estimate(data, index, models.OutcomeModel(quad), iv, effect).psi_hat
    if estimator == "eem":
        return adaptive.eem_estimate(data, models.BinaryLogisticIv.fit(data, lin), lin, quad).psi_hat
    if estimator == "br-gamma":
        return adaptive.br_gamma_estimate(data, lin, quad, lin).psi_hat
    return adaptive.br_beta_estimate(data, lin, quad, lin).psi_hat


class FitLargeCsv:
    """In-process ``lineariv fit`` for each CLI estimator on one large sim1 CSV.

    An op is one CLI fit, CSV load included.  A non-zero exit is a failed op.
    """

    name = "fit_large_csv"

    def __init__(self, params: dict, seed: int, workdir: Path, full: bool):
        self.n = params["n"]
        self.csv = workdir / "sim1.csv"

    @staticmethod
    def prepare(workdir: Path, params: dict, seed: int) -> None:
        sim = simlab.gen_sim1(params["n"], seed)
        dataset.write_csv(sim.dataset, workdir / "sim1.csv")

    def params(self) -> dict:
        return {"n": self.n, "generator": "sim1", "estimators": CLI_FITS}

    def _argv(self, estimator: str) -> list[str]:
        return ["--data", str(self.csv), *CSV_COLUMN_FLAGS, "--estimator", estimator,
                *CLI_FITS[estimator]]

    def warmup(self) -> None:
        cli_fit(self._argv("tsls"))

    def run_pass(self, harness: Harness) -> dict:
        fits = {}
        harness.start()
        for estimator in CLI_FITS:
            code, payload, err = cli_fit(self._argv(estimator))
            if code != 0:
                harness.fail(estimator, f"exit{code}")
            harness.end_op()
            fits[estimator] = {"exit": code, "psi_hat": payload["psi_hat"] if payload else None,
                               "stderr": err}
        return {"output": json.dumps(fits, sort_keys=True).encode(), "passed": True,
                "fits": fits, "detail": f"{sum(f['exit'] != 0 for f in fits.values())} of "
                                        f"{len(fits)} fits exited non-zero"}

    def final_check(self, passes: list[dict]) -> list[dict]:
        """Each successful fit's psi_hat must equal the library call on the same Dataset.

        A fit that exited 3 must fail in the library too; its exception class
        is what the failure is counted under.
        """
        data = dataset.load_csv(self.csv, COLUMNS)
        checks = []
        self.failure_classes = {}
        for estimator, fit in passes[0]["fits"].items():
            try:
                lib, lib_err = library_fit(estimator, data).tolist(), None
            except EstimationError as err:
                lib, lib_err = None, err
            if fit["exit"] == 0:
                ok = lib_err is None and lib == fit["psi_hat"]
                detail = f"cli {fit['psi_hat']} library {lib if lib_err is None else repr(lib_err)}"
            else:
                ok = fit["exit"] == 3 and lib_err is not None
                if lib_err is not None:
                    self.failure_classes[estimator] = type(lib_err).__name__
                detail = f"cli exit {fit['exit']} ({fit['stderr']}); library raised {lib_err!r}"
            checks.append({"name": f"{estimator} psi_hat equals library", "passed": ok,
                           "detail": detail})
        return checks


WORKLOADS = {cls.name: cls for cls in (McTable1, McTable1N8000, BootstrapFit, FitLargeCsv)}


def make(name: str, size: str, seed: int, workdir: Path):
    return WORKLOADS[name](SIZES[name][size], seed, workdir, size == "full")
