"""Estimates move with row order and units only as the maths says.

Each of the eight ``lineariv fit`` library calls (``perfbench/workloads.py``
CLI_FITS) on sim1 and Table 1 data must give the same psi after a row
permutation, psi scaled by s after y is scaled by s, and, where the exposure
is continuous, psi scaled by 1/s after x is scaled by s.  Rescaling the
covariate must not move psi, nor the sandwich standard error where there is
one, beyond rounding either: every estimating equation and sandwich Jacobian
is judged in its parameters' units.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineariv import Dataset, adaptive, estimators, models, simlab, suites
from lineariv.dataset import BasisSpec
from lineariv.rng import make_generator

QUAD, LIN = BasisSpec(["1", "c0", "c0^2"]), BasisSpec(["1", "c0"])
EXPOSURE, INSTRUMENTS = BasisSpec(["z0", "1", "c0"]), BasisSpec(["z0"])
EFFECT = models.EffectModel.constant()
ESTIMATORS = ("tsls", "two-stage", "loc-eff-y", "g-est", "loc-eff-dr", "eem", "br-gamma",
              "br-beta")
RTOL = 1e-8


def _fit(estimator: str, data: Dataset, link: str) -> float:
    """The library calls of ``lineariv fit`` for CLI_FITS[estimator], the
    exposure models with ``link``."""
    exposure = models.ExposureModel(link, EXPOSURE)
    if estimator == "tsls":
        return estimators.standard_tsls(data, EFFECT, QUAD, INSTRUMENTS).psi
    if estimator == "two-stage":
        return estimators.plug_in_two_stage(data, exposure, EFFECT, QUAD).psi
    if estimator == "loc-eff-y":
        return estimators.locally_efficient_y(data, exposure.fit(data), EFFECT, QUAD).psi
    iv = models.BinaryLogisticIv.fit(data, LIN)
    if estimator == "g-est":
        psi0 = estimators.standard_tsls(data, EFFECT, QUAD, INSTRUMENTS).psi_hat
        beta = estimators.outcome_coef_at(data, EFFECT, QUAD, psi0)
        return estimators.g_estimate(data, models.RawInstruments(), models.OutcomeModel(QUAD, beta),
                                     iv, EFFECT).psi
    if estimator == "loc-eff-dr":
        index = estimators.efficient_index(data, exposure.fit(data), iv, EFFECT)
        return estimators.g_estimate(data, index, models.OutcomeModel(QUAD), iv, EFFECT).psi
    if estimator == "eem":
        return adaptive.eem_estimate(data, iv, LIN, QUAD).psi
    if estimator == "br-gamma":
        return adaptive.br_gamma_estimate(data, LIN, QUAD, LIN).psi
    return adaptive.br_beta_estimate(data, LIN, QUAD, LIN).psi


def _moves(data: Dataset, continuous_x: bool, seed: int):
    """(label, transformed dataset, the factor psi must move by)."""
    rows = make_generator([seed, 99]).permutation(data.n)
    yield "permutation", Dataset(data.y[rows], data.x[rows], data.z[rows], data.c_raw[rows]), 1.0
    for s in (1e-3, 1e3):
        yield f"y*{s:g}", Dataset(data.y * s, data.x, data.z, data.c_raw), s
        if continuous_x:
            yield f"x*{s:g}", Dataset(data.y, data.x * s, data.z, data.c_raw), 1.0 / s


@pytest.mark.parametrize("family", ["sim1", "table1"])
def test_psi_moves_only_as_the_maths_says(family):
    moves = []
    for seed in range(10):
        if family == "sim1":
            data, link, continuous_x = simlab.gen_sim1(500, seed).dataset, "probit", False
        else:
            data, link, continuous_x = simlab.gen_table1(0, 0, 0, 500, seed).dataset, "identity", True
        psi = {name: _fit(name, data, link) for name in ESTIMATORS}
        for label, moved, factor in _moves(data, continuous_x, seed):
            for name in ESTIMATORS:
                want = psi[name] * factor
                moves.append((abs(_fit(name, moved, link) - want) / abs(want), seed, label, name))
    worst = max(moves)
    assert worst[0] <= RTOL, worst


FACTORS = (1e-5, 1e-3, 1e3, 1e5)
# psi on gen_table1(0, 0, 0, 500, s) data, the outcome basis (1, c0, c0^2)
SCALE_CALLS = {
    "br-gamma": lambda data: adaptive.br_gamma_estimate(data, LIN, QUAD, LIN).psi,
    "br-beta one-step": lambda data: adaptive.br_beta_estimate(data, LIN, QUAD, LIN).psi,
    "br-beta full-solve": lambda data: adaptive.br_beta_estimate(
        data, LIN, QUAD, LIN, update="full_solve").psi,
    "eem": lambda data: adaptive.eem_estimate(
        data, models.BinaryLogisticIv.fit(data, LIN), LIN, QUAD).psi,
    "tsls": lambda data: estimators.standard_tsls(
        data, EFFECT, QUAD, BasisSpec(["z0", "z0:c0"])).psi,
    "table1 loc_eff": lambda data: suites.table1_estimators()["loc_eff"](data)[0],
}
# the calls whose sandwich standard error of psi is checked as well
SE_CALLS = {
    "tsls": lambda data: estimators.standard_tsls(data, EFFECT, QUAD, BasisSpec(["z0", "z0:c0"])),
    "eem": lambda data: adaptive.eem_estimate(
        data, models.BinaryLogisticIv.fit(data, LIN), LIN, QUAD),
    "g-est profiled": lambda data: estimators.g_estimate(
        data, models.RawInstruments(), models.OutcomeModel(QUAD),
        models.BinaryLogisticIv.fit(data, LIN), EFFECT),
}


@pytest.mark.parametrize("name, factor", [(name, factor) for name in SCALE_CALLS
                                           for factor in FACTORS])
def test_psi_does_not_depend_on_the_covariate_scale(name, factor):
    # every basis spans the same functions of c0 at every scale, so only
    # rounding and the IRLS tolerance may move psi
    call = SCALE_CALLS[name]
    for seed in range(10):
        data = simlab.gen_table1(0, 0, 0, 500, seed).dataset
        psi = call(data)
        moved = call(Dataset(data.y, data.x, data.z, data.c_raw * factor))
        assert abs(moved - psi) <= RTOL * abs(psi), (seed, psi, moved)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.sampled_from(suites.TABLE1_ROWS), seed=st.integers(0, 2**31 - 1),
       exponent=st.floats(-6.0, 6.0))
def test_estimating_equations_do_not_depend_on_the_covariate_units(row, seed, exponent):
    # each regressor column, and the index column paired with it, is judged at
    # unit norm (estimators._ee_system), TSLS's second stage only by fit_ols's
    # unit-norm rank test, and a sandwich Jacobian with unit-norm rows and
    # columns (inference.sandwich_se): no decision depends on c0's units
    data = simlab.gen_table1(*row, 500, seed).dataset
    scaled = Dataset(data.y, data.x, data.z, data.c_raw * 10.0**exponent)
    for name in ("tsls", "eem", "br-beta full-solve", "table1 loc_eff"):
        psi, moved = SCALE_CALLS[name](data), SCALE_CALLS[name](scaled)
        assert abs(moved - psi) <= RTOL * abs(psi), (name, psi, moved)
    for name, call in SE_CALLS.items():
        se, moved = call(data).se, call(scaled).se
        assert se is not None and moved is not None, (name, se, moved)
        assert abs(moved[0] - se[0]) <= RTOL * se[0], (name, se, moved)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.sampled_from(suites.TABLE1_ROWS), seed=st.integers(0, 2**31 - 1),
       exponent=st.floats(-6.0, 6.0))
def test_br_gamma_does_not_depend_on_the_covariate_units(row, seed, exponent):
    # every column is judged at unit norm (glm._ranks), so adaptive._extend
    # keeps or drops the e(C) c0^2 column whatever c0's units
    data = simlab.gen_table1(*row, 500, seed).dataset
    psi = SCALE_CALLS["br-gamma"](data)
    moved = SCALE_CALLS["br-gamma"](Dataset(data.y, data.x, data.z, data.c_raw * 10.0**exponent))
    assert abs(moved - psi) <= RTOL * abs(psi), (psi, moved)
