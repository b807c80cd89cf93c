"""Pinned estimator bundles and replication targets for the benchmark designs.

Each generator family has a canonical set of working models (the bases every
estimator shares), reproduced here as one stack function per bundle behind
named estimator closures for the Monte Carlo harness.  The replication
targets pin scenario lists, default seeds and the tolerance gates used by the
``replicate`` command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import _br_beta_stack, _br_stages, _eem_stack, _stack_data, _stack_errors
from .dataset import BasisSpec, Dataset
from .estimators import (_exposure_bracket, _first_stage, _g_stack, _le_stack,
                         _plug_in_stack, _tsls_stack)
from .glm import _attempt, _check, _held, _ols
from .models import EffectModel, _exposure_fit, _logistic_iv
from .simlab import MonteCarloReport, ScenarioConfig, run_monte_carlo

__all__ = [
    "table1_estimators",
    "sim_binary_estimators",
    "effectmod_estimators",
    "REPLICATE_SEEDS",
    "GateResult",
]

C_LIN = BasisSpec(["1", "c0"])
C_QUAD = BasisSpec(["1", "c0", "c0^2"])
INSTRUMENTS_ZVZ = BasisSpec(["z0", "z0:c0"])
INSTRUMENT_Z = BasisSpec(["z0"])
EXPOSURE_SATURATED = BasisSpec(["z0", "z0:c0", "1", "c0"])
EXPOSURE_MAIN = BasisSpec(["z0", "1", "c0"])

EFFECT_CONST = EffectModel.constant()
TABLE1_NAMES = ("tsls", "loc_eff", "eem", "br_gamma", "br_beta")
SIM_BINARY_NAMES = ("tsls", "ts", "le_y_c", "le_y_m", "dr_cc", "dr_cm", "dr_mm")
EFFECTMOD_NAMES = ("tsls_c", "tsls_m", "ts_c", "ts_m")


def _bundle(stack: Callable[[list], dict], names) -> dict[str, Callable]:
    """One estimator closure per name over ``stack``, which maps a stack of
    datasets to its stages, the (B, d) estimates of ``names`` among them or
    the EstimationError each holds; on a stack of one it may raise one error
    for all.  Its stages run the kernels of the per-dataset estimators in
    their order and layout, so every estimate and error is theirs to the last
    bit.  The first closure of any bundle of ``stack`` called on a dataset of
    a linked chunk computes the whole chunk (:meth:`Dataset.memo`, keyed by
    ``stack``), so estimates share nuisance fits; a closure reads its row of
    ``(stages, row)`` and re-raises its own estimate's error, so one failing
    estimator fails no other.  Every call returns a fresh copy.
    """
    def estimate(data: Dataset, name: str):
        stages, k = data.memo(stack, stack)
        return _held(stages[name])[k].copy()

    return {name: (lambda ds, _n=name: estimate(ds, _n)) for name in names}


def _table1_stack(datasets: list[Dataset]) -> dict:
    """The stages of :func:`table1_estimators` on a stack of datasets (see
    :func:`_bundle`).  Every estimate of a dataset without one binary
    instrument column fails with one UnsupportedCombinationError; one without
    a covariate raises the basis evaluator's TermSpecError, as
    :func:`build_design` does.
    """
    _check(_stack_errors(datasets))
    y, x, zs, cs = _stack_data(datasets)
    lin, instruments = (basis._evaluate(zs, cs) for basis in (C_LIN, INSTRUMENTS_ZVZ))
    z, out = zs[..., 0], {}
    _attempt(out, "first", lambda: _first_stage(instruments, lin, x[..., None]))
    _attempt(out, "tsls", lambda first: _tsls_stack(*first, lin, y)[1].coef[:, 2:], "first")
    # eem and the bias-reduced pair start from the plain fit's index, br_beta from br_gamma
    _br_stages(out, z, x, y, lin, lin, lin)
    # g_estimate at efficient_index, outcome (1, c0) profiled; its exposure fit is the first stage
    _attempt(out, "loc_eff", lambda plain, first: _g_stack(_exposure_bracket(
        "identity", EXPOSURE_SATURATED, first[1].coef[..., 0], cs, first[0], plain.mean[..., None],
        True), x[..., None], y, lin).theta[:, :1], "plain", "first")
    _attempt(out, "eem", lambda plain, tsls, alpha: _eem_stack(
        z - plain.mean, x, y, lin, lin, tsls[:, 0], alpha).ee.theta, "plain", "tsls", "alpha")
    _attempt(out, "br_gamma", lambda gamma: gamma.psi[:, None], "gamma")
    # br_gamma's error is raised after br_beta's own checks, as br_beta_estimate raises it
    _attempt(out, "br_beta", lambda plain, alpha: _br_beta_stack(
        z, x, y, plain.mean, lin, lin, lin, alpha, lambda: _held(out["gamma"]).psi).psi[:, None],
        "plain", "alpha")
    return out


def table1_estimators() -> dict[str, Callable]:
    """The five benchmark estimators of the lambda-grid designs.

    Working models: logistic instrument law on (1, V), fitted by maximum
    likelihood; linear exposure model with main effects and the
    instrument-covariate interaction in the TSLS first stage's column order
    (Z, VZ, 1, V), so the stack factors that one problem once; linear outcome
    model on (1, V); index class (alpha'(1,V)) * Z.  The estimates are
    ``standard_tsls``, ``g_estimate`` at ``efficient_index``, ``eem_estimate``,
    ``br_gamma_estimate`` and ``br_beta_estimate`` (:func:`_table1_stack`).
    """
    return _bundle(_table1_stack, TABLE1_NAMES)


def _sim_binary_stack(datasets: list[Dataset]) -> dict:
    """The stages of :func:`sim_binary_estimators` on a stack of datasets
    (see :func:`_bundle`): probit and linear exposure fits, the instrument
    law and the efficient index under each exposure model, centered once."""
    y, x, zs, cs = _stack_data(datasets)
    out, ones = {}, np.ones_like(x)[..., None]
    # each basis once, a stage: a term that is not finite fails only the estimates using it
    for name, basis in dict(inst=INSTRUMENT_Z, lin=C_LIN, quad=C_QUAD, main=EXPOSURE_MAIN).items():
        _attempt(out, name, lambda basis=basis: basis._evaluate(zs, cs))
    # standard_tsls, then outcome_coef_at for the double-robust estimators
    _attempt(out, "first", lambda inst, lin: _first_stage(inst, lin, x[..., None]), "inst", "lin")
    _attempt(out, "tsls", lambda first, lin: _tsls_stack(*first, lin, y)[1].coef[:, 2:],
             "first", "lin")
    _attempt(out, "beta_c", lambda tsls, quad: _ols(quad, y - tsls * x).coef, "tsls", "quad")
    _attempt(out, "beta_m", lambda tsls, lin: _ols(lin, y - tsls * x).coef, "tsls", "lin")
    # plug_in_two_stage and locally_efficient_y at the probit exposure model
    _attempt(out, "probit", lambda main: _exposure_fit("probit", main, x), "main")
    _attempt(out, "ts", lambda probit, lin: _plug_in_stack(
        lin, probit.mean, ones, y).theta[:, 2:], "probit", "lin")
    for name, by, basis in (("le_y_c", "quad", C_QUAD), ("le_y_m", "lin", C_LIN)):
        _attempt(out, name, lambda probit, by, labels=["m_x*1", *basis.labels()]: _le_stack(
            probit.mean, by, ones, x, y, labels).theta[:, :1], "probit", by)
    # g_estimate at efficient_index under a logistic instrument law
    _attempt(out, "iv", lambda: _logistic_iv(zs, cs, C_LIN))
    _attempt(out, "linear", lambda first: first[1]._replace(coef=first[1].coef[..., 0]), "first")
    for name, link, fit in (("e_probit", "probit", "probit"), ("e_lin", "identity", "linear")):
        _attempt(out, name, lambda fit, iv, main, link=link: _exposure_bracket(
            link, EXPOSURE_MAIN, fit.coef, cs, main, iv.mean[..., None], True), fit, "iv", "main")
    for name, index, beta, by in (("dr_cc", "e_probit", "beta_c", "quad"),
                                  ("dr_cm", "e_probit", "beta_m", "lin"),
                                  ("dr_mm", "e_lin", "beta_m", "lin")):
        _attempt(out, name, lambda d, beta, by: _g_stack(
            d, x[..., None], y - np.matvec(by, beta)).theta, index, beta, by)
    return out


def sim_binary_estimators() -> dict[str, Callable]:
    """Estimators of the binary-exposure experiments (:func:`_sim_binary_stack`).

    tsls: implied linear first stage, outcome basis (1, V) (omits V^2);
    ts: plug-in probit two-stage with the same outcome basis;
    le_y_c / le_y_m: locally efficient under the outcome model, correct
    (1, V, V^2) and misspecified (1, V) outcome bases, probit exposure model;
    dr_cc / dr_cm / dr_mm: double-robust with the efficient index under a
    logistic instrument law, varying which working models are correct.  The
    linear exposure model (Z, 1, V) of dr_mm is tsls's first stage, fitted once.
    """
    return _bundle(_sim_binary_stack, SIM_BINARY_NAMES)


def _effectmod_stack(datasets: list[Dataset]) -> dict:
    """The stages of :func:`effectmod_estimators` on a stack of datasets
    (see :func:`_bundle`): standard_tsls and plug_in_two_stage, whose effect
    gradient is the (1, V) design."""
    y, x, zs, cs = _stack_data(datasets)
    out = {}
    for name, basis in dict(zvz=INSTRUMENTS_ZVZ, quad=C_QUAD, lin=C_LIN, main=EXPOSURE_MAIN).items():
        _attempt(out, name, lambda basis=basis: basis._evaluate(zs, cs))
    _attempt(out, "misspec", lambda main: _exposure_fit("identity", main, x), "main")
    for suffix, by, p in (("c", "quad", 3), ("m", "lin", 2)):
        _attempt(out, f"tsls_{suffix}", lambda zvz, by, lin, p=p: _tsls_stack(
            *_first_stage(zvz, by, x[..., None] * lin), by, y)[1].coef[:, p:], "zvz", by, "lin")
        _attempt(out, f"ts_{suffix}", lambda misspec, by, lin, main, p=p: _plug_in_stack(
            by, np.matvec(main, misspec.coef), lin, y).theta[:, p:], "misspec", by, "lin", "main")
    return out


def effectmod_estimators() -> dict[str, Callable]:
    """Estimators of the effect-modification experiment (2-d effect).

    tsls_c / tsls_m: Standard TSLS with instruments (Z, VZ) and outcome bases
    (1, V, V^2) / (1, V); ts_c / ts_m: plug-in two-stage with a misspecified
    linear exposure model (main effects of Z and V only).
    """
    return _bundle(_effectmod_stack, EFFECTMOD_NAMES)


# the estimator bundle of each generator family (simlab.GENERATORS)
BUNDLES: dict[str, Callable[[], dict[str, Callable]]] = {
    "sim1": sim_binary_estimators, "sim2": sim_binary_estimators,
    "effectmod": effectmod_estimators, "table1": table1_estimators,
    "extreme": table1_estimators,
}


# ---------------------------------------------------------------------------
# Replication targets and tolerance gates
# ---------------------------------------------------------------------------

@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str


TABLE1_ROWS: list[tuple[int, int, int]] = [
    (0, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (1, 0, 0), (-1, 0, 0),
    (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1),
    (1, 1, -1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1),
]

# Acceptance rows actually gated; replicate --full-grid runs all TABLE1_ROWS.
TABLE1_GATED_ROWS = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, -1)]

FIG3_LAMBDA = (1, -1, -1)
FIG3_SEED = 227
TABLE1_SEED = 555
FIG1_SEED = 777
FIG2_SEED = 20260809
DEFAULT_SEED = 20260809
AUDIT_MIN_REPS = 200

# Consistency clauses (|bias| <= 3*MC-SE) are checked on auxiliary runs at a
# larger sample size: at n=500 the just-identified IV ratio estimators carry a
# real finite-sample mean displacement comparable to 3*MC-SE at 1000
# replications, so a fixed-n gate would be a coin flip in seed space while the
# property being tested (consistency) is asymptotic.
CONSISTENCY_N = 4000
CONSISTENCY_REPS = 600


def _band(val: float, lo: float, hi: float) -> bool:
    return lo <= val <= hi


def table1_gates(reports: dict[tuple, MonteCarloReport]) -> list[GateResult]:
    """Tolerance gates for the lambda-grid benchmark (bias/SD bands)."""
    gates = []
    row = lambda lam, est: reports[lam].summaries[est]

    for est in ("tsls", "loc_eff", "eem", "br_gamma", "br_beta"):
        s = row((0, 0, 0), est)
        gates.append(GateResult(
            f"null-row {est}: |bias|<=0.015 and SD in [0.095,0.125]",
            abs(s.bias[0]) <= 0.015 and _band(s.sd[0], 0.095, 0.125),
            f"bias={s.bias[0]:+.4f} sd={s.sd[0]:.4f}"))
    s = row((0, 1, 0), "tsls")
    gates.append(GateResult("(0,1,0) tsls: bias in [-0.60,-0.50]",
                            _band(s.bias[0], -0.60, -0.50), f"bias={s.bias[0]:+.4f}"))
    s = row((0, 1, 0), "br_beta")
    gates.append(GateResult("(0,1,0) br_beta: |bias|<=0.02 and SD in [0.10,0.14]",
                            abs(s.bias[0]) <= 0.02 and _band(s.sd[0], 0.10, 0.14),
                            f"bias={s.bias[0]:+.4f} sd={s.sd[0]:.4f}"))
    s = row((1, 0, 0), "tsls")
    gates.append(GateResult("(1,0,0) tsls: |bias|<=0.02",
                            abs(s.bias[0]) <= 0.02, f"bias={s.bias[0]:+.4f}"))
    s = row((1, 0, 0), "eem")
    gates.append(GateResult("(1,0,0) eem: SD in [0.10,0.15]",
                            _band(s.sd[0], 0.10, 0.15), f"sd={s.sd[0]:.4f}"))
    s = row((1, 0, 0), "loc_eff")
    gates.append(GateResult("(1,0,0) loc_eff: SD>=0.3 after outlier removal",
                            s.sd[0] >= 0.3,
                            f"sd={s.sd[0]:.4f} removed={s.outliers_removed}"))
    s = row((1, 1, -1), "tsls")
    gates.append(GateResult("(1,1,-1) tsls: bias in [-1.15,-0.75]",
                            _band(s.bias[0], -1.15, -0.75), f"bias={s.bias[0]:+.4f}"))
    s = row((1, 1, -1), "br_beta")
    gates.append(GateResult("(1,1,-1) br_beta: |bias|<=0.06",
                            abs(s.bias[0]) <= 0.06, f"bias={s.bias[0]:+.4f}"))
    s = row((1, 1, -1), "br_gamma")
    gates.append(GateResult("(1,1,-1) br_gamma: |bias|<=0.04",
                            abs(s.bias[0]) <= 0.04, f"bias={s.bias[0]:+.4f}"))
    # severity-rule adequacy: loc_eff sheds at most a handful of replicates
    # per thousand, the bias-reduced variants none at all
    removed = {lam: {est: reports[lam].summaries[est].outliers_removed
                     for est in ("loc_eff", "br_gamma", "br_beta")}
               for lam in TABLE1_GATED_ROWS}
    reps = next(iter(reports.values())).config.reps
    loc_cap = max(1, round(10 * reps / 1000))
    loc_ok = all(v["loc_eff"] <= loc_cap for v in removed.values())
    br_ok = all(v["br_gamma"] == 0 and v["br_beta"] == 0 for v in removed.values())
    gates.append(GateResult(
        f"outlier counts: loc_eff <= {loc_cap} per scenario, BR variants 0",
        loc_ok and br_ok,
        "; ".join(f"{lam}: {v}" for lam, v in removed.items())))
    return gates


def fig1_gates(sim1: MonteCarloReport, sim2: MonteCarloReport,
               sim1_consistency: MonteCarloReport) -> list[GateResult]:
    gates = []
    c = sim1_consistency.summaries["tsls"]
    mc_se = c.sd[0] / np.sqrt(c.used)
    gates.append(GateResult(
        f"sim1 tsls consistency (n={sim1_consistency.config.n}): |bias| <= 3*MC-SE",
        abs(c.bias[0]) <= 3 * mc_se,
        f"bias={c.bias[0]:+.4f} 3*mc_se={3 * mc_se:.4f}"))
    s = sim1.summaries["tsls"]
    ts = sim1.summaries["ts"]
    gates.append(GateResult("sim1 ts: |bias| > 5*|bias tsls|",
                            abs(ts.bias[0]) > 5 * abs(s.bias[0]),
                            f"ts={ts.bias[0]:+.4f} tsls={s.bias[0]:+.4f}"))
    var = lambda rep, name: rep.summaries[name].sd[0] ** 2
    r1 = var(sim1, "le_y_c") / var(sim1, "tsls")
    gates.append(GateResult("sim1 Var(le_y_c)/Var(tsls) in [0.30,0.48]",
                            _band(r1, 0.30, 0.48), f"ratio={r1:.4f}"))
    r2 = var(sim1, "dr_cc") / var(sim1, "le_y_c")
    gates.append(GateResult("sim1 Var(dr_cc)/Var(le_y_c) in [1.00,1.30]",
                            _band(r2, 1.00, 1.30), f"ratio={r2:.4f}"))
    s2 = sim2.summaries["tsls"]
    gates.append(GateResult("sim2 tsls: bias in [0.48,0.62]",
                            _band(s2.bias[0], 0.48, 0.62), f"bias={s2.bias[0]:+.4f}"))
    return gates


def fig2_gates(rep: MonteCarloReport, consistency: MonteCarloReport) -> list[GateResult]:
    gates = []
    c = consistency.summaries["tsls_c"]
    mc_se = c.sd / np.sqrt(c.used)
    gates.append(GateResult(
        f"effectmod tsls_c consistency (n={consistency.config.n}): |bias| <= 3*MC-SE per component",
        bool(np.all(np.abs(c.bias) <= 3 * mc_se)),
        f"bias={np.round(c.bias, 4)} 3*mc_se={np.round(3 * mc_se, 4)}"))
    s = rep.summaries["tsls_c"]
    t = rep.summaries["ts_c"]
    gates.append(GateResult("effectmod ts_c: main-effect bias > 5*|tsls_c bias|",
                            abs(t.bias[0]) > 5 * abs(s.bias[0]),
                            f"ts_c={t.bias[0]:+.4f} tsls_c={s.bias[0]:+.4f}"))
    return gates


def fig3_gates(rep: MonteCarloReport) -> list[GateResult]:
    gates = []
    s = rep.summaries["eem"]
    gates.append(GateResult("extreme eem: bias in [-1.2,-0.2]",
                            _band(s.bias[0], -1.2, -0.2), f"bias={s.bias[0]:+.4f}"))
    le = rep.summaries["loc_eff"]
    gates.append(GateResult("extreme loc_eff: raw |bias|>=5 and raw SD>=50",
                            abs(le.raw_bias[0]) >= 5 and le.raw_sd[0] >= 50,
                            f"raw_bias={le.raw_bias[0]:+.2f} raw_sd={le.raw_sd[0]:.1f}"))
    for est in ("br_beta", "br_gamma"):
        b = rep.summaries[est]
        gates.append(GateResult(f"extreme {est}: |bias|<=0.15",
                                abs(b.bias[0]) <= 0.15, f"bias={b.bias[0]:+.4f}"))
    return gates


# replication target -> its pinned master seed
REPLICATE_SEEDS = {"table1": TABLE1_SEED, "fig1": FIG1_SEED, "fig2": FIG2_SEED, "fig3": FIG3_SEED}


def run_replicate(target: str, reps: int, seed: int, full_grid: bool = False):
    """Run a pinned replication target; returns (reports, gates or None).

    Gates are evaluated only when ``reps >= AUDIT_MIN_REPS``; below that the
    run is a smoke test and no verdict is produced.
    """
    audit = reps >= AUDIT_MIN_REPS
    run = lambda generator, **kw: run_monte_carlo(
        ScenarioConfig(generator, seed=seed, **kw), BUNDLES[generator]())
    if target == "table1":
        rows = TABLE1_ROWS if full_grid else TABLE1_GATED_ROWS
        reports = {lam: run("table1", n=500, reps=reps, lam=lam) for lam in rows}
        gates = table1_gates(reports) if audit and all(l in reports for l in TABLE1_GATED_ROWS) else None
        return list(reports.values()), gates
    if target == "fig1":
        rep1 = run("sim1", n=500, reps=reps)
        rep2 = run("sim2", n=500, reps=reps)
        if not audit:
            return [rep1, rep2], None
        aux = run("sim1", n=CONSISTENCY_N, reps=min(reps, CONSISTENCY_REPS))
        return [rep1, rep2, aux], fig1_gates(rep1, rep2, aux)
    if target == "fig2":
        rep = run("effectmod", n=500, reps=reps)
        if not audit:
            return [rep], None
        aux = run("effectmod", n=CONSISTENCY_N, reps=min(reps, CONSISTENCY_REPS))
        return [rep, aux], fig2_gates(rep, aux)
    if target == "fig3":
        rep = run("extreme", n=500, reps=reps, lam=FIG3_LAMBDA)
        return [rep], (fig3_gates(rep) if audit else None)
    raise ValueError(f"unknown replication target {target!r}")
