"""Pinned estimator bundles and replication targets for the benchmark designs.

Each generator family has a canonical set of working models (the bases every
estimator shares), reproduced here as named estimator closures for the Monte
Carlo harness.  The replication targets pin scenario lists, default seeds and
the tolerance gates used by the ``replicate`` command and the acceptance
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import br_beta_estimate, br_gamma_estimate, eem_estimate
from .dataset import BasisSpec, Dataset
from .estimators import (
    efficient_index,
    g_estimate,
    locally_efficient_y,
    outcome_coef_at,
    plug_in_two_stage,
    standard_tsls,
)
from .models import BinaryLogisticIv, EffectModel, ExposureModel, OutcomeModel
from .simlab import MonteCarloReport, ScenarioConfig, run_monte_carlo

__all__ = [
    "table1_estimators",
    "sim_binary_estimators",
    "effectmod_estimators",
    "ReplicateTarget",
    "REPLICATE_TARGETS",
    "GateResult",
]

C_LIN = BasisSpec(["1", "c0"])
C_QUAD = BasisSpec(["1", "c0", "c0^2"])
INSTRUMENTS_ZVZ = BasisSpec(["z0", "z0:c0"])
INSTRUMENT_Z = BasisSpec(["z0"])
EXPOSURE_SATURATED = BasisSpec(["1", "z0", "c0", "z0:c0"])
EXPOSURE_MAIN = BasisSpec(["z0", "1", "c0"])

EFFECT_CONST = EffectModel.constant()


def _bundle(compute: Callable[[Dataset], dict], names) -> dict[str, Callable]:
    """One estimator closure per name; ``compute`` (all estimates of the bundle)
    runs once per Dataset (:meth:`Dataset.memo`), so members share nuisance fits."""
    return {name: (lambda ds, _n=name: ds.memo(compute, compute)[_n]) for name in names}


def table1_estimators(iv_known_coef: np.ndarray | None = None) -> dict[str, Callable]:
    """The five benchmark estimators of the lambda-grid designs.

    Working models: logistic instrument law on (1, V); linear exposure model
    with main effects and the instrument-covariate interaction; linear
    outcome model on (1, V); index class (alpha'(1,V)) * Z.  With
    ``iv_known_coef`` the instrument law is treated as known instead of
    fitted (used by the efficiency-dominance checks).
    """

    def compute(data: Dataset) -> dict:
        out = {}
        tsls = standard_tsls(data, EFFECT_CONST, C_LIN, INSTRUMENTS_ZVZ)
        out["tsls"] = tsls.psi_hat
        if iv_known_coef is not None:
            iv = BinaryLogisticIv.known(C_LIN, iv_known_coef)
            iv_plain = None          # the bias-reduced pair needs the ML fit
        else:
            iv = iv_plain = BinaryLogisticIv.fit(data, C_LIN)
        exposure = ExposureModel("identity", EXPOSURE_SATURATED).fit(data)
        e_opt = efficient_index(data, exposure, iv, EFFECT_CONST)
        out["loc_eff"] = g_estimate(data, e_opt, OutcomeModel(C_LIN), iv, EFFECT_CONST).psi_hat
        out["eem"] = eem_estimate(data, iv, C_LIN, C_LIN,
                                  preliminary_psi=tsls.psi).psi_hat
        brg = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN, iv_plain=iv_plain)
        out["br_gamma"] = brg.psi_hat
        out["br_beta"] = br_beta_estimate(data, C_LIN, C_LIN, C_LIN,
                                          start_psi=brg.psi, iv_plain=iv_plain).psi_hat
        return out

    return _bundle(compute, ("tsls", "loc_eff", "eem", "br_gamma", "br_beta"))


def sim_binary_estimators() -> dict[str, Callable]:
    """Estimators of the binary-exposure experiments.

    tsls: implied linear first stage, outcome basis (1, V) (omits V^2);
    ts: plug-in probit two-stage with the same outcome basis;
    le_y_c / le_y_m: locally efficient under the outcome model, correct
    (1, V, V^2) and misspecified (1, V) outcome bases, probit exposure model;
    dr_cc / dr_cm / dr_mm: double-robust with the efficient index under a
    logistic instrument law, varying which working models are correct.
    """

    def compute(data: Dataset) -> dict:
        out = {}
        tsls = standard_tsls(data, EFFECT_CONST, C_LIN, INSTRUMENT_Z)
        out["tsls"] = tsls.psi_hat
        probit = ExposureModel("probit", EXPOSURE_MAIN).fit(data)
        out["ts"] = plug_in_two_stage(data, probit, EFFECT_CONST, C_LIN).psi_hat
        out["le_y_c"] = locally_efficient_y(data, probit, EFFECT_CONST, C_QUAD).psi_hat
        out["le_y_m"] = locally_efficient_y(data, probit, EFFECT_CONST, C_LIN).psi_hat
        iv = BinaryLogisticIv.fit(data, C_LIN)
        e_probit = efficient_index(data, probit, iv, EFFECT_CONST)
        beta_c = outcome_coef_at(data, EFFECT_CONST, C_QUAD, tsls.psi_hat)
        beta_m = outcome_coef_at(data, EFFECT_CONST, C_LIN, tsls.psi_hat)
        out["dr_cc"] = g_estimate(data, e_probit, OutcomeModel(C_QUAD, beta_c), iv, EFFECT_CONST).psi_hat
        out["dr_cm"] = g_estimate(data, e_probit, OutcomeModel(C_LIN, beta_m), iv, EFFECT_CONST).psi_hat
        linear = ExposureModel("identity", EXPOSURE_MAIN).fit(data)
        e_lin = efficient_index(data, linear, iv, EFFECT_CONST)
        out["dr_mm"] = g_estimate(data, e_lin, OutcomeModel(C_LIN, beta_m), iv, EFFECT_CONST).psi_hat
        return out

    return _bundle(compute, ("tsls", "ts", "le_y_c", "le_y_m", "dr_cc", "dr_cm", "dr_mm"))


def effectmod_estimators() -> dict[str, Callable]:
    """Estimators of the effect-modification experiment (2-d effect).

    tsls_c / tsls_m: Standard TSLS with instruments (Z, VZ) and outcome bases
    (1, V, V^2) / (1, V); ts_c / ts_m: plug-in two-stage with a misspecified
    linear exposure model (main effects of Z and V only).
    """
    effect = EffectModel.with_modifiers(C_LIN)

    def compute(data: Dataset) -> dict:
        out = {}
        out["tsls_c"] = standard_tsls(data, effect, C_QUAD, INSTRUMENTS_ZVZ).psi_hat
        out["tsls_m"] = standard_tsls(data, effect, C_LIN, INSTRUMENTS_ZVZ).psi_hat
        misspec = ExposureModel("identity", EXPOSURE_MAIN).fit(data)
        out["ts_c"] = plug_in_two_stage(data, misspec, effect, C_QUAD).psi_hat
        out["ts_m"] = plug_in_two_stage(data, misspec, effect, C_LIN).psi_hat
        return out

    return _bundle(compute, ("tsls_c", "tsls_m", "ts_c", "ts_m"))


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

# Acceptance rows actually gated; replicate --full runs all TABLE1_ROWS.
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


def _get(reports: dict, lam, name: str):
    return reports[lam].summaries[name]


def _band(val: float, lo: float, hi: float) -> bool:
    return lo <= val <= hi


def table1_gates(reports: dict[tuple, MonteCarloReport]) -> list[GateResult]:
    """Tolerance gates for the lambda-grid benchmark (bias/SD bands)."""
    gates = []
    row = lambda lam, est: _get(reports, lam, est)

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


@dataclass
class ReplicateTarget:
    name: str
    default_seed: int
    default_reps: int
    n: int


REPLICATE_TARGETS = {
    "table1": ReplicateTarget("table1", TABLE1_SEED, 1000, 500),
    "fig1": ReplicateTarget("fig1", FIG1_SEED, 1000, 500),
    "fig2": ReplicateTarget("fig2", FIG2_SEED, 1000, 500),
    "fig3": ReplicateTarget("fig3", FIG3_SEED, 1000, 500),
}


def run_replicate(target: str, reps: int, seed: int, threads: int = 1,
                  full_grid: bool = False):
    """Run a pinned replication target; returns (reports, gates or None).

    Gates are evaluated only when ``reps >= AUDIT_MIN_REPS``; below that the
    run is a smoke test and no verdict is produced.
    """
    audit = reps >= AUDIT_MIN_REPS
    if target == "table1":
        rows = TABLE1_ROWS if full_grid else TABLE1_GATED_ROWS
        reports = {}
        for lam in rows:
            cfg = ScenarioConfig("table1", n=500, seed=seed, reps=reps, lam=lam)
            reports[lam] = run_monte_carlo(cfg, table1_estimators(), threads=threads)
        gates = table1_gates(reports) if audit and all(l in reports for l in TABLE1_GATED_ROWS) else None
        return list(reports.values()), gates
    if target == "fig1":
        cfg1 = ScenarioConfig("sim1", n=500, seed=seed, reps=reps)
        cfg2 = ScenarioConfig("sim2", n=500, seed=seed, reps=reps)
        rep1 = run_monte_carlo(cfg1, sim_binary_estimators(), threads=threads)
        rep2 = run_monte_carlo(cfg2, sim_binary_estimators(), threads=threads)
        if not audit:
            return [rep1, rep2], None
        aux_cfg = ScenarioConfig("sim1", n=CONSISTENCY_N, seed=seed,
                                 reps=min(reps, CONSISTENCY_REPS))
        aux = run_monte_carlo(aux_cfg, sim_binary_estimators(), threads=threads)
        return [rep1, rep2, aux], fig1_gates(rep1, rep2, aux)
    if target == "fig2":
        cfg = ScenarioConfig("effectmod", n=500, seed=seed, reps=reps)
        rep = run_monte_carlo(cfg, effectmod_estimators(), threads=threads)
        if not audit:
            return [rep], None
        aux_cfg = ScenarioConfig("effectmod", n=CONSISTENCY_N, seed=seed,
                                 reps=min(reps, CONSISTENCY_REPS))
        aux = run_monte_carlo(aux_cfg, effectmod_estimators(), threads=threads)
        return [rep, aux], fig2_gates(rep, aux)
    if target == "fig3":
        cfg = ScenarioConfig("extreme", n=500, seed=seed, reps=reps, lam=FIG3_LAMBDA)
        rep = run_monte_carlo(cfg, table1_estimators(), threads=threads)
        return [rep], (fig3_gates(rep) if audit else None)
    raise ValueError(f"unknown replication target {target!r}")
