"""Deterministic data generators and the Monte Carlo harness.

Five generator families (two binary-exposure designs, an effect-modification
design, and the factorial misspecification designs on the lambda grid), each
one stacked kernel over counter-based generators, so that replicate i of master
seed s is the bit-identical dataset on every platform and in any chunk.

The harness reports bias and standard deviation on the replicates that
survive a scale-free severity rule (|estimate - median| <= 50 * IQR,
per estimator); severe outliers and failed replicates are counted separately.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset, _linked_estimates
from .errors import SchemaError
from .glm import expit, normal_cdf
from .rng import _to_normal, make_generator

__all__ = [
    "SimulatedData",
    "ScenarioConfig",
    "EstimatorSummary",
    "MonteCarloReport",
    "gen_sim1",
    "gen_sim2",
    "gen_effectmod",
    "gen_table1",
    "gen_extreme",
    "simulate",
    "generate",
    "run_monte_carlo",
    "report_rows",
    "write_report_csv",
    "write_report_json",
]

OUTLIER_IQR_MULTIPLIER = 50.0


@dataclass(frozen=True)
class SimulatedData:
    dataset: Dataset
    psi_true: np.ndarray
    generator: str
    params: dict


# Stacked kernels (see their gen_*): five (B, n) blocks in draw order, lam -> y, x, z, v

def _sim1(u, v, rz, rx, e, *lam):
    z = (rz < 0.27).astype(float)
    x = (rx < normal_cdf(z + u + v)).astype(float)
    return 0.5 * x - u - 2.0 * v + v**2 + e, x, z, v


def _sim2(u, v, rz, rx, e, *lam):
    z = (rz < expit(-1.0 + v / 2.0)).astype(float)
    x = (rx < normal_cdf(z + u + v - z * v + v**2 / 2.0)).astype(float)
    return 0.5 * x - u - 2.0 * v + v**2 + e, x, z, v


def _effectmod(u, v, rz, d, e, *lam):
    z = (rz < 0.27).astype(float)
    x = 2.0 * z + v + u - z * v + 0.5 * v**2 + d
    return 0.5 * x + x * v - u - 2.0 * v + v**2 + e, x, z, v


def _table1(u, v, rz, d, e, lambda_x, lambda_y, lambda_z):
    z = (rz < expit(-1.0 + v / 2.0 + lambda_z * v**2 / 3.0)).astype(float)
    x = z + u + v - z * v + lambda_x * v**2 + d
    return x - u - v + lambda_y * v**2 + e, x, z, v


def _extreme(u, v, rz, d, e, lambda_x, lambda_y, lambda_z):
    pz = 1.0 - np.exp(-np.exp(-1.0 + v / 2.0 - v**2 / 2.0 + lambda_z * v**2 / 8.0))
    z = (rz < pz).astype(float)
    x = z + u + v - z * v + 2.0 * v**2 + 2.0 * z * v**2 + 2.0 * lambda_x * v**3 + d
    return x - u - v - 2.0 * v**2 + 2.0 * lambda_y * v**3 + e, x, z, v


# generator name -> (stacked kernel, its normal blocks, true effect coefficients)
_FAMILIES = {"sim1": (_sim1, (0, 1, 4), (0.5,)), "sim2": (_sim2, (0, 1, 4), (0.5,)),
             "effectmod": (_effectmod, (0, 1, 3, 4), (0.5, 1.0)),
             "table1": (_table1, (0, 1, 3, 4), (1.0,)), "extreme": (_extreme, (0, 1, 3, 4), (1.0,))}
GENERATORS = tuple(_FAMILIES)
LAMBDA_GENERATORS = ("table1", "extreme")      # the families that read lam = (lx, ly, lz)


def _simulate(generator: str, n: int, seeds, lam=None) -> list[Dataset]:
    """One dataset per seed key, a row of the family's stacked kernel.  A key's five
    ``random(n)`` blocks are one ``random(5 * n)``; normal ones are made as by ``draw_normal``.
    The stack is checked as the Dataset constructor checks a dataset and frozen, once."""
    if generator not in _FAMILIES:
        raise SchemaError(f"unknown generator {generator!r}; choose from {GENERATORS}")
    if n < 1:
        raise SchemaError("dataset must contain at least one observation")
    kernel, normal, _ = _FAMILIES[generator]
    u = np.empty((len(seeds), 5, n))
    for row, key in zip(u, seeds):
        make_generator(key).random(out=row.reshape(-1))
    blocks = u.transpose(1, 0, 2)
    for k in normal:
        _to_normal(blocks[k])
    y, x, z, v = kernel(*blocks, *(lam or ()))
    v = v.copy()            # the datasets keep the covariate, not all five blocks
    for name, column in zip(("y", "x", "z", "c_raw"), (y, x, z, v)):
        if not np.isfinite(column).all():
            raise SchemaError(f"{name} contains non-finite values")
        column.flags.writeable = False
    return [Dataset._trusted(*row) for row in zip(y, x, z[..., None], v[..., None])]


def gen_sim1(n: int, seed) -> SimulatedData:
    """Binary exposure, instrument independent of the covariate.

    Z ~ Bernoulli(0.27); X ~ Bernoulli(Phi(Z+U+V)); Y normal with mean
    0.5*X - U - 2V + V^2 and unit variance.  U is latent and not included.
    """
    return simulate("sim1", n, seed)


def gen_sim2(n: int, seed) -> SimulatedData:
    """Binary exposure with the instrument depending on the covariate.

    Z ~ Bernoulli(expit(-1+V/2)); X ~ Bernoulli(Phi(Z+U+V-ZV+V^2/2)); Y as in
    the first design.
    """
    return simulate("sim2", n, seed)


def gen_effectmod(n: int, seed) -> SimulatedData:
    """Continuous exposure with effect modification by the covariate.

    Z ~ Bernoulli(0.27); X normal with mean 2Z+V+U-ZV+0.5V^2; Y normal with
    mean 0.5X + XV - U - 2V + V^2; both unit variance.  The causal
    coefficients on (X, XV) are (0.5, 1).
    """
    return simulate("effectmod", n, seed)


def gen_table1(lambda_x: int, lambda_y: int, lambda_z: int, n: int, seed) -> SimulatedData:
    """Factorial misspecification design on the lambda grid (true effect 1).

    Z ~ Bernoulli(expit(-1+V/2+lz*V^2/3)); X normal with mean
    Z+U+V-ZV+lx*V^2; Y normal with mean X-U-V+ly*V^2; unit noise variances.
    """
    return simulate("table1", n, seed, (lambda_x, lambda_y, lambda_z))


def gen_extreme(lambda_x: int, lambda_y: int, lambda_z: int, n: int, seed) -> SimulatedData:
    """Extreme misspecification design (true effect 1).

    P(Z=1|V) = 1-exp{-exp(-1+V/2-V^2/2+lz*V^2/8)} (complementary log-log);
    X normal with mean Z+U+V-ZV+2V^2+2ZV^2+2*lx*V^3; Y normal with mean
    X-U-V-2V^2+2*ly*V^3; unit noise variances.
    """
    return simulate("extreme", n, seed, (lambda_x, lambda_y, lambda_z))


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario: generator, lambda grid point, size, seeding."""

    generator: str
    n: int
    seed: int
    reps: int
    lam: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise SchemaError(f"unknown generator {self.generator!r}; choose from {GENERATORS}")
        if self.generator in LAMBDA_GENERATORS:
            if self.lam is None or len(self.lam) != 3 or any(c not in (-1, 0, 1) for c in self.lam):
                raise SchemaError("table1/extreme scenarios need lam=(lx,ly,lz) with components in {-1,0,1}")
        if self.n < 50:
            raise SchemaError("scenario n must be at least 50")

    def label(self) -> str:
        if self.lam is not None:
            return f"{self.generator}{self.lam}"
        return self.generator


def simulate(generator: str, n: int, seed, lam: tuple[int, int, int] | None = None) -> SimulatedData:
    """One dataset of a generator family, its stacked kernel on the one seed key
    ``seed``; ``lam`` is read by table1/extreme only."""
    data, = _simulate(generator, n, [seed], lam)
    params = {"lambda": tuple(lam)} if generator in LAMBDA_GENERATORS else {}
    return SimulatedData(data, np.array(_FAMILIES[generator][2]), generator, params)


def generate(config: ScenarioConfig, rep: int) -> SimulatedData:
    """Dataset for replicate ``rep``: depends only on (master seed, rep)."""
    return simulate(config.generator, config.n, [config.seed, rep], config.lam)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass
class EstimatorSummary:
    """Bias/SD on retained replicates plus raw moments and exclusion counts."""

    name: str
    bias: np.ndarray
    sd: np.ndarray
    raw_bias: np.ndarray
    raw_sd: np.ndarray
    outliers_removed: int
    failed: int
    used: int
    scenario_failure: bool = False


@dataclass
class MonteCarloReport:
    config: ScenarioConfig
    psi_true: np.ndarray
    summaries: dict[str, EstimatorSummary]
    estimates: dict[str, np.ndarray]   # (reps, k), NaN rows = failed replicates


def _severe_outliers(values: np.ndarray) -> np.ndarray:
    """Componentwise severity rule: |v - median| > 50 * IQR (any component)."""
    med = np.median(values, axis=0)
    q1, q3 = np.percentile(values, [25, 75], axis=0)
    iqr = q3 - q1
    return np.any(np.abs(values - med) > OUTLIER_IQR_MULTIPLIER * iqr, axis=1)


def run_monte_carlo(config: ScenarioConfig,
                    estimators: dict[str, Callable[[Dataset], np.ndarray]]) -> MonteCarloReport:
    """Run every estimator on every replicate and summarise.

    Estimator callables receive a Dataset and return the effect-coefficient
    vector.  Estimation errors and non-finite results count as failed
    replicates (reported, excluded from the moments); the severity rule then
    removes extreme outliers from the retained ones.  Inserting or removing
    estimators never changes the data.

    Replicates run in the linked chunks of
    :func:`~lineariv.dataset._linked_estimates` (16 at n=500, 1 at n=8000),
    each drawn as one stack, bit for bit :func:`generate`'s datasets.
    Replicate ``i`` depends only on (seed, ``i``), and the report is
    byte-identical for every chunk size.
    """
    if config.reps < 2:
        raise SchemaError("at least 2 replications are required")
    psi_true = np.array(_FAMILIES[config.generator][2])
    k = psi_true.shape[0]
    raw: dict[str, np.ndarray] = {name: np.full((config.reps, k), np.nan) for name in estimators}
    make = lambda items: _simulate(config.generator, config.n,
                                   [[config.seed, i] for i in items], config.lam)
    for i, name, est in _linked_estimates(config.reps, config.n, make, estimators):
        if est is not None:
            raw[name][i] = est

    # the moments of the rows kept, NaN where there are too few
    bias = lambda rows: rows.mean(axis=0) - psi_true if len(rows) else np.full(k, np.nan)
    sd = lambda rows: rows.std(axis=0, ddof=1) if len(rows) >= 2 else np.full(k, np.nan)
    summaries = {}
    for name in estimators:
        values = raw[name]
        ok = ~np.any(np.isnan(values), axis=1)
        failed = int(config.reps - ok.sum())
        good = values[ok]
        severe = _severe_outliers(good) if good.shape[0] >= 2 else np.zeros(len(good), bool)
        kept = good[~severe]
        summaries[name] = EstimatorSummary(
            name=name, bias=bias(kept), sd=sd(kept), raw_bias=bias(good), raw_sd=sd(good),
            outliers_removed=int(severe.sum()), failed=failed, used=len(kept),
            scenario_failure=failed > 0.5 * config.reps)
    return MonteCarloReport(config=config, psi_true=psi_true, summaries=summaries, estimates=raw)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_REPORT_FIELDS = ["scenario", "generator", "lambda_x", "lambda_y", "lambda_z", "n",
                  "seed", "reps", "estimator", "component", "bias", "sd",
                  "raw_bias", "raw_sd", "outliers_removed", "failed", "used"]


def report_rows(reports: list[MonteCarloReport]) -> list[dict]:
    """One row per (scenario, estimator, effect component), keyed by _REPORT_FIELDS."""
    rows = []
    for rep in reports:
        cfg = rep.config
        for name, s in rep.summaries.items():
            for comp in range(rep.psi_true.shape[0]):
                moments = (s.bias[comp], s.sd[comp], s.raw_bias[comp], s.raw_sd[comp])
                rows.append(dict(zip(_REPORT_FIELDS, (
                    cfg.label(), cfg.generator, *(cfg.lam or ("", "", "")), cfg.n, cfg.seed,
                    cfg.reps, name, comp, *map(float, moments), s.outliers_removed, s.failed,
                    s.used))))
    return rows


def write_report_csv(reports: list[MonteCarloReport], path) -> None:
    rows = report_rows(reports)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: (repr(val) if isinstance(val, float) else val)
                             for key, val in row.items()})


def write_report_json(reports: list[MonteCarloReport], path) -> None:
    """Strict JSON report: a non-finite moment (e.g. an estimator that failed
    every replicate) is written as ``null``."""
    rows = [{key: (None if isinstance(val, float) and not math.isfinite(val) else val)
             for key, val in row.items()}
            for row in report_rows(reports)]
    payload = {"schema_version": 1, "rows": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
