"""``lineariv fit`` prints what the library calls it stands for return.

For every estimator, effect form, instrument-law kind and inference method of
``fit``, the printed ``psi_hat``, ``beta_hat``, ``se``, ``ci`` and
``diagnostics`` equal those of the library calls written out here, on the
same Dataset that ``load_csv`` reads.
"""

import json

import numpy as np
import pytest

from lineariv import (
    BasisSpec,
    BinaryLogisticIv,
    ColumnMap,
    CustomIndex,
    EffectModel,
    EmpiricalIv,
    ExposureModel,
    LinearMeanIv,
    OutcomeModel,
    RawInstruments,
    bootstrap_ci,
    br_beta_estimate,
    br_gamma_estimate,
    eem_estimate,
    efficient_index,
    g_estimate,
    load_csv,
    locally_efficient_y,
    outcome_coef_at,
    plug_in_two_stage,
    simlab,
    standard_tsls,
    write_csv,
)
from lineariv.cli import _jsonable, main
from lineariv.glm import normal_quantile
from lineariv.inference import conservative_se_brgamma

COLUMNS = ColumnMap("y", "x", ["z"], ["v"])
COLUMN_FLAGS = ["--y-col", "y", "--x-col", "x", "--z-cols", "z", "--cov-cols", "v"]
QUAD, LIN, EXPOSURE = ["1", "c0", "c0^2"], ["1", "c0"], ["z0", "1", "c0"]
ESTIMATORS = ("tsls", "two-stage", "loc-eff-y", "g-est", "loc-eff-dr", "eem", "br-gamma",
              "br-beta")
LATTICE = ESTIMATORS[:5]
FIELDS = ("psi_hat", "beta_hat", "se", "ci", "diagnostics")


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_library")
    sims = {"sim1": simlab.gen_sim1(2000, 7), "table1": simlab.gen_table1(0, 0, 0, 500, 3),
            "effectmod": simlab.gen_effectmod(1000, 3)}
    for name, sim in sims.items():
        write_csv(sim.dataset, root / f"{name}.csv")
    return root


def library_fit(estimator, data, bases, link="identity", iv_kind="binary-logistic",
                effect=None):
    """The estimate ``fit --estimator estimator`` stands for, from the library."""
    effect = effect or EffectModel.constant()
    outcome = BasisSpec(bases["outcome"])
    iv_basis = BasisSpec(bases.get("iv", bases["outcome"]))
    instruments = BasisSpec(bases.get("instruments", [f"z{j}" for j in range(data.n_instruments)]))
    exposure = ExposureModel(link, BasisSpec(bases.get("exposure", [])))

    def iv():
        if iv_kind == "binary-logistic":
            return BinaryLogisticIv.fit(data, iv_basis)
        if iv_kind == "linear-mean":
            return LinearMeanIv.fit(data, iv_basis)
        return EmpiricalIv.fit(data)

    if estimator == "tsls":
        return standard_tsls(data, effect, outcome, instruments)
    if estimator == "two-stage":
        return plug_in_two_stage(data, exposure, effect, outcome)
    if estimator == "loc-eff-y":
        return locally_efficient_y(data, exposure.fit(data), effect, outcome)
    if estimator == "g-est":
        law = iv()
        index = CustomIndex.from_basis(BasisSpec(bases["index"])) if "index" in bases \
            else RawInstruments()
        psi0 = standard_tsls(data, effect, outcome, instruments).psi_hat
        beta = outcome_coef_at(data, effect, outcome, psi0)
        return g_estimate(data, index, OutcomeModel(outcome, beta), law, effect)
    if estimator == "loc-eff-dr":
        fitted = exposure.fit(data)
        law = iv()
        return g_estimate(data, efficient_index(data, fitted, law, effect), OutcomeModel(outcome),
                          law, effect)
    if estimator == "eem":
        return eem_estimate(data, iv(), BasisSpec(bases["index"]), outcome)
    fit = br_gamma_estimate if estimator == "br-gamma" else br_beta_estimate
    return fit(data, BasisSpec(bases["index"]), outcome, iv_basis)


def as_json(result, se=None, ci=None, extra=None):
    """The ``FIELDS`` of the payload ``fit`` prints for ``result``."""
    def floats(values):
        return [float(v) if np.isfinite(v) else None for v in values]

    se, ci = (result.se, result.ci) if se is None else (se, ci)
    return {"psi_hat": floats(result.psi_hat), "beta_hat": floats(result.beta_hat),
            "se": floats(se) if se is not None else None,
            "ci": {"lower": floats(ci[0]), "upper": floats(ci[1])} if ci is not None else None,
            "diagnostics": _jsonable({**result.diagnostics, **(extra or {})})}


BASIS_FLAGS = {"outcome": "--outcome-basis", "exposure": "--exposure-basis",
               "index": "--index-basis", "iv": "--iv-basis", "instruments": "--instrument-basis"}


def flags_of(bases, link=None, iv_kind=None):
    argv = [arg for key, terms in bases.items() for arg in (BASIS_FLAGS[key], *terms)]
    if link:
        argv += ["--exposure-link", link]
    if iv_kind:
        argv += ["--iv-kind", iv_kind]
    return argv


def run_fit(capsys, csv_path, estimator, *argv):
    code = main(["fit", "--data", str(csv_path), *COLUMN_FLAGS, "--estimator", estimator, *argv])
    out = capsys.readouterr()
    assert (code, out.err) == (0, ""), out.err
    payload = json.loads(out.out)
    return {key: payload[key] for key in FIELDS}, payload


def bases_for(estimator):
    bases = {"outcome": QUAD}
    if estimator in ("two-stage", "loc-eff-y", "loc-eff-dr"):
        bases["exposure"] = EXPOSURE
    if estimator in ("eem", "br-gamma", "br-beta"):
        bases["index"] = LIN
    if estimator not in ("tsls", "two-stage", "loc-eff-y"):
        bases["iv"] = LIN
    return bases


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("scenario, link", [("sim1", "probit"), ("table1", "identity")])
def test_fit_json_equals_the_library_calls(csvs, capsys, scenario, link, estimator):
    csv_path = csvs / f"{scenario}.csv"
    bases = bases_for(estimator)
    fields, payload = run_fit(capsys, csv_path, estimator, *flags_of(bases, link),
                              "--inference", "sandwich")
    direct = library_fit(estimator, load_csv(csv_path, COLUMNS), bases, link)
    assert fields == as_json(direct)
    assert (payload["estimator"], payload["inference"]) == (estimator, "sandwich")


@pytest.mark.parametrize("estimator", LATTICE)
def test_fit_with_a_linear_effect_equals_the_library_calls(csvs, capsys, estimator):
    # two effect parameters need two instrument columns, and g-est two index columns
    csv_path = csvs / "effectmod.csv"
    bases = {**bases_for(estimator), "instruments": ["z0", "z0:c0"]}
    if estimator == "g-est":
        bases["index"] = ["z0", "z0:c0"]
    fields, _ = run_fit(capsys, csv_path, estimator, *flags_of(bases),
                        "--effect", "linear", "--effect-basis", *LIN)
    effect = EffectModel.with_modifiers(BasisSpec(LIN))
    direct = library_fit(estimator, load_csv(csv_path, COLUMNS), bases, effect=effect)
    assert len(fields["psi_hat"]) == 2
    assert fields == as_json(direct)


@pytest.mark.parametrize("estimator", ["g-est", "loc-eff-dr", "eem"])
@pytest.mark.parametrize("iv_kind", ["linear-mean", "empirical"])
def test_fit_with_each_instrument_law_equals_the_library_calls(csvs, capsys, iv_kind,
                                                               estimator):
    csv_path = csvs / "table1.csv"
    bases = bases_for(estimator)
    fields, _ = run_fit(capsys, csv_path, estimator, *flags_of(bases, iv_kind=iv_kind))
    direct = library_fit(estimator, load_csv(csv_path, COLUMNS), bases, iv_kind=iv_kind)
    assert fields == as_json(direct)


@pytest.mark.parametrize("bases", [
    {"outcome": QUAD, "iv": LIN, "index": ["z0", "z0:c0"]},
    {"outcome": LIN, "instruments": ["z0", "z0:c0"]},
], ids=["index", "instruments"])
def test_fit_g_est_with_an_index_or_instrument_basis_equals_the_library_calls(csvs, capsys,
                                                                              bases):
    csv_path = csvs / "table1.csv"
    fields, _ = run_fit(capsys, csv_path, "g-est", *flags_of(bases))
    assert fields == as_json(library_fit("g-est", load_csv(csv_path, COLUMNS), bases))


@pytest.mark.parametrize("estimator", ["two-stage", "loc-eff-y", "loc-eff-dr", "br-beta"])
def test_fit_bootstrap_equals_the_library_bootstrap(csvs, capsys, estimator):
    csv_path = csvs / "table1.csv"
    bases = bases_for(estimator)
    fields, payload = run_fit(capsys, csv_path, estimator, *flags_of(bases), "--inference",
                              "bootstrap", "--resamples", "100", "--level", "0.9", "--seed", "4")
    data = load_csv(csv_path, COLUMNS)
    boot = bootstrap_ci(data, lambda ds: library_fit(estimator, ds, bases).psi_hat,
                        resamples=100, level=0.9, seed=4)
    expected = as_json(library_fit(estimator, data, bases), boot.se,
                       (boot.ci_lower, boot.ci_upper),
                       {"failed_resamples": boot.failed_resamples})
    assert fields == expected
    assert payload["inference"] == "bootstrap"


def test_fit_conservative_inference_equals_the_library_bound(csvs, capsys):
    csv_path = csvs / "table1.csv"
    bases = bases_for("br-gamma")
    fields, payload = run_fit(capsys, csv_path, "br-gamma", *flags_of(bases),
                              "--inference", "conservative", "--level", "0.9")
    data = load_csv(csv_path, COLUMNS)
    direct = library_fit("br-gamma", data, bases)
    se = np.array([conservative_se_brgamma(data, direct)])
    zq = float(normal_quantile(0.95))
    assert fields == as_json(direct, se, (direct.psi_hat - zq * se, direct.psi_hat + zq * se))
    assert payload["inference"] == "conservative"
