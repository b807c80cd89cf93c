"""Least-squares and binary-regression fitters."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit as scipy_expit

from lineariv import (
    BasisSpec,
    BinaryLogisticIv,
    Dataset,
    DegenerateResponseError,
    DegenerateWeightsError,
    EstimationError,
    ExposureModel,
    SingularDesignError,
    expit,
    fit_binary,
    fit_ols,
    fit_wls,
    normal_cdf,
    normal_quantile,
)
from lineariv.dataset import build_design
from lineariv.glm import ROW_BLOCK, _Flagged, _mean_function, _ols, _rowsum
from lineariv.models import LinearMeanIv
from lineariv.simlab import gen_table1


def test_ols_exact_interpolation():
    res = fit_ols(np.eye(2), np.array([3.0, 5.0]))
    assert_allclose(res.coefficients, [3.0, 5.0])


def test_ols_projection_idempotence():
    rng = np.random.default_rng(0)
    design = rng.normal(size=(12, 3))
    response = design @ np.array([1.0, -2.0, 0.5])
    res = fit_ols(design, response)
    assert_allclose(res.residuals, np.zeros(12), atol=1e-12)


def test_ols_normal_equations_oracle():
    rng = np.random.default_rng(1)
    design = rng.normal(size=(20, 3))
    response = rng.normal(size=20)
    res = fit_ols(design, response)
    oracle = np.linalg.inv(design.T @ design) @ design.T @ response
    assert_allclose(res.coefficients, oracle, rtol=1e-10)
    assert_allclose(res.gram_inverse, np.linalg.inv(design.T @ design), rtol=1e-9)
    # normal equations hold
    assert np.max(np.abs(design.T @ res.residuals)) <= 1e-8 * np.max(np.abs(design.T @ response))


def test_ols_rank_deficiency_reports_condition():
    design = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(SingularDesignError) as err:
        fit_ols(design, np.arange(5.0))
    assert err.value.condition > 1e10


def test_ols_rank_test_does_not_depend_on_column_units():
    # the rank test sets each column to unit norm: columns in units 1e-6 and
    # 1e6 (raw condition above 1e10) are fitted, and collinear ones rejected
    rng = np.random.default_rng(6)
    design, response = rng.normal(size=(50, 3)), rng.normal(size=50)
    units = np.array([1e-6, 1.0, 1e6])
    fit = fit_ols(design * units, response)
    assert fit.condition > 1e10
    assert_allclose(fit.coefficients * units, fit_ols(design, response).coefficients, rtol=1e-8)
    collinear = np.column_stack([design[:, 0], 2.0 * design[:, 0], design[:, 2]])
    with pytest.raises(SingularDesignError):
        fit_ols(collinear * units, response)


@pytest.mark.parametrize("n", [500, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
def test_ols_of_several_responses_solves_each_as_alone(n):
    # one SVD of the design serves every response column, each column's
    # coefficients bit for bit those of its fit alone, in one row block or more
    rng = np.random.default_rng(n)
    design, responses = rng.normal(size=(3, n, 4)), rng.normal(size=(3, n, 3))
    fit = _ols(design, responses)
    assert fit.coef.shape == (3, 4, 3)
    for j in range(3):
        alone = _ols(design, responses[..., j])
        assert fit.coef[..., j].tobytes() == alone.coef.tobytes()
        assert (fit.s.tobytes(), fit.vt.tobytes(), fit.condition) == (
            alone.s.tobytes(), alone.vt.tobytes(), alone.condition)


def test_ols_of_several_responses_raises_once_on_a_deficient_design():
    rng = np.random.default_rng(4)
    design, responses = rng.normal(size=(2, 50, 3)), rng.normal(size=(2, 50, 2))
    design[0, :, 2] = 2.0 * design[0, :, 1]
    # the deficient member alone raises the error of one response's fit; with
    # another member it flags the stack
    with pytest.raises(SingularDesignError) as alone:
        _ols(design[:1], responses[:1, :, 0])
    with pytest.raises(SingularDesignError) as both:
        _ols(design[:1], responses[:1])
    assert (str(both.value), both.value.condition) == (str(alone.value), alone.value.condition)
    assert str(both.value).startswith("fit_ols: design is rank deficient (condition estimate ")
    with pytest.raises(_Flagged):
        _ols(design, responses)


def test_linear_mean_iv_fits_every_instrument_column_as_fit_ols():
    d = gen_table1(1, 1, -1, 400, 7).dataset
    rng = np.random.default_rng(7)
    data = Dataset(d.y, d.x, np.column_stack([d.z[:, 0], d.c_raw[:, 0] + rng.normal(size=d.n)]),
                   d.c_raw)
    basis = BasisSpec(["1", "c0", "c0^2"])
    design = build_design(data, basis)
    per_column = np.column_stack([fit_ols(design, data.z[:, j]).coefficients for j in range(2)])
    coef = LinearMeanIv.fit(data, basis).coef
    assert coef.shape == (3, 2) and coef.tobytes() == per_column.tobytes()


def test_wls_constant_weights_match_ols():
    rng = np.random.default_rng(2)
    design = rng.normal(size=(15, 2))
    response = rng.normal(size=15)
    assert_allclose(fit_wls(design, response, np.full(15, 2.0)).coefficients,
                    fit_ols(design, response).coefficients, rtol=1e-12)


def test_wls_zero_weight_excludes_row():
    rng = np.random.default_rng(3)
    design = rng.normal(size=(10, 2))
    response = rng.normal(size=10)
    weights = np.ones(10)
    weights[4] = 0.0
    keep = np.arange(10) != 4
    assert_allclose(fit_wls(design, response, weights).coefficients,
                    fit_ols(design[keep], response[keep]).coefficients, rtol=1e-10)


def test_wls_weighted_normal_equations_oracle():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(25, 3))
    response = rng.normal(size=25)
    weights = rng.uniform(0.1, 2.0, size=25)
    res = fit_wls(design, response, weights)
    w_mat = design.T * weights
    oracle = np.linalg.inv(w_mat @ design) @ w_mat @ response
    assert_allclose(res.coefficients, oracle, rtol=1e-10)
    # weighted normal equations hold at the solution
    scale = np.max(np.abs(w_mat @ response))
    assert np.max(np.abs(w_mat @ res.residuals)) <= 1e-8 * scale


def test_wls_needs_as_many_rows_as_columns():
    # as fit_ols, not a minimum-norm fit
    design = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 2.0]])
    with pytest.raises(SingularDesignError):
        fit_ols(design, np.array([1.0, 2.0]))
    with pytest.raises(SingularDesignError):
        fit_wls(design, np.array([1.0, 2.0]), np.ones(2))


def test_wls_all_zero_weights():
    with pytest.raises(DegenerateWeightsError):
        fit_wls(np.ones((4, 1)), np.ones(4), np.zeros(4))


def test_prediction_invariance_under_reparameterization():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(30, 3))
    response = rng.normal(size=30)
    transform = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    fit_a = fit_ols(design, response)
    fit_b = fit_ols(design @ transform, response)
    assert_allclose(fit_a.fitted, fit_b.fitted, atol=1e-8)


def test_binary_intercept_only_logit():
    design = np.ones((8, 1))
    response = np.array([1.0, 0, 0, 0, 1, 0, 0, 0])  # mean 0.25
    res = fit_binary(design, response, "logit")
    assert res.converged
    assert_allclose(res.coefficients[0], np.log(0.25 / 0.75), atol=1e-8)


def test_binary_intercept_only_probit_symmetric():
    design = np.ones((6, 1))
    response = np.array([1.0, 0, 1, 0, 1, 0])
    res = fit_binary(design, response, "probit")
    assert_allclose(res.coefficients[0], 0.0, atol=1e-10)


def test_binary_grid_local_optimality():
    rng = np.random.default_rng(6)
    design = np.column_stack([np.ones(50), rng.normal(size=50)])
    eta = design @ np.array([-0.3, 1.2])
    response = (rng.random(50) < expit(eta)).astype(float)
    res = fit_binary(design, response, "logit")
    assert res.converged

    def loglik(coef):
        mu = np.clip(expit(design @ coef), 1e-12, 1 - 1e-12)
        return np.sum(response * np.log(mu) + (1 - response) * np.log1p(-mu))

    best = loglik(res.coefficients)
    for d0 in (-0.01, 0.0, 0.01):
        for d1 in (-0.01, 0.0, 0.01):
            assert best >= loglik(res.coefficients + np.array([d0, d1])) - 1e-12


def test_binary_score_identity_and_mean_matching():
    rng = np.random.default_rng(7)
    design = np.column_stack([np.ones(200), rng.normal(size=200)])
    response = (rng.random(200) < expit(0.5 * design[:, 1])).astype(float)
    res = fit_binary(design, response, "logit")
    mu = res.predict(design)
    assert res.score_norm <= 1e-8
    # intercept score <=> fitted probabilities average to the response mean
    assert_allclose(mu.mean(), response.mean(), atol=1e-10)
    assert np.all((mu > 0) & (mu < 1))


def test_binary_irls_loglik_monotone():
    rng = np.random.default_rng(8)
    design = np.column_stack([np.ones(120), rng.normal(size=(120, 2))])
    response = (rng.random(120) < expit(design @ np.array([0.2, -1.0, 2.0]))).astype(float)
    for link in ("logit", "probit"):
        res = fit_binary(design, response, link)
        trace = np.asarray(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-10)
        assert res.converged


def test_binary_separation_flag():
    # perfectly separated data on a small-scale covariate: the MLE diverges
    design = np.column_stack([np.ones(10), np.r_[np.zeros(5), np.ones(5)] * 1e-4])
    response = np.r_[np.zeros(5), np.ones(5)]
    res = fit_binary(design, response, "logit")
    assert res.separation


def test_binary_rejects_degenerate_response():
    with pytest.raises(ValueError):
        fit_binary(np.ones((4, 1)), np.array([1.0, 1, 1, 1]), "logit")
    with pytest.raises(ValueError):
        fit_binary(np.ones((4, 1)), np.array([0.5, 1, 0, 1]), "logit")


def at_z_one(data):
    return Dataset(data.y, data.x, np.ones_like(data.z), data.c_raw)


@pytest.mark.parametrize("fit", [
    lambda data: BinaryLogisticIv.fit(data, BasisSpec(["1", "c0"])),
    lambda data: ExposureModel("logit", BasisSpec(["1", "z0"])).fit(at_z_one(data)),
    lambda data: ExposureModel("probit", BasisSpec(["1", "z0"])).fit(at_z_one(data)),
])
def test_one_class_response_is_an_estimation_error(fit):
    # a one-class instrument (and exposure): no logistic or probit fit exists
    c = np.linspace(-1.0, 1.0, 12)
    data = Dataset(c, np.ones(12), np.zeros(12), c)
    with pytest.raises(DegenerateResponseError, match="response must contain both classes") as err:
        fit(data)
    assert isinstance(err.value, EstimationError) and isinstance(err.value, ValueError)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert_allclose(normal_cdf(1.959963985), 0.975, atol=1e-9)
    assert_allclose(normal_cdf(-1.0), 1.0 - normal_cdf(1.0), atol=1e-14)
    assert_allclose(normal_quantile(normal_cdf(0.7)), 0.7, atol=1e-12)


def test_normal_cdf_quadrature_oracle():
    # trapezoid integration of the density on [-40, u] with 1e7 points
    for u in (-3.0, -1.0, 0.5, 2.0):
        grid = np.linspace(-40.0, u, 10_000_001)
        dens = np.exp(-0.5 * grid * grid) / np.sqrt(2 * np.pi)
        integral = np.trapezoid(dens, grid)
        assert_allclose(normal_cdf(u), integral, atol=1e-8)


def test_logit_mean_within_4_ulp_of_scipy_expit():
    # the IRLS mean is numpy's 1/(1+exp(-eta)); exp overflows below -709.78
    # and must do so silently, giving 0 as scipy's expit does
    eta = np.linspace(-800.0, 800.0, 320001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = _mean_function("logit")(eta)
    want = scipy_expit(eta)
    assert np.all(np.abs(mu - want) <= 4 * np.spacing(want))
    assert mu[0] == want[0] == 0.0 and mu[-1] == want[-1] == 1.0


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_fit_binary_on_separated_data_emits_no_warning(link):
    # |eta| reaches thousands, where exp(-eta) overflows
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(200), 0.01 * rng.standard_normal(200)])
    y = (design[:, 1] > 0).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_binary(design, y, link=link)
    assert fit.separation and fit.converged
    assert np.abs(design @ fit.coefficients).max() > 710.0


@pytest.mark.parametrize("n", [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
def test_rowsum_adds_blocks_of_row_block_rows_left_to_right(n):
    rng = np.random.default_rng(n)
    a, b, v = rng.normal(size=(2, n, 3)), rng.normal(size=(2, n, 1)), rng.normal(size=(2, n))
    blocks = [slice(lo, lo + ROW_BLOCK) for lo in range(0, n, ROW_BLOCK)]
    for got, whole, block in [
            (_rowsum(v, b), np.vecmat(v, b), lambda r: np.vecmat(v[:, r], b[:, r])),
            (_rowsum(a, b), a.mT @ b, lambda r: a[:, r].mT @ b[:, r])]:
        expected = block(blocks[0])
        for rows in blocks[1:]:
            expected = expected + block(rows)
        assert got.tobytes() == expected.tobytes()
        if n <= ROW_BLOCK:      # one block: the single call, bit for bit
            assert got.tobytes() == whole.tobytes()
        assert_allclose(got, whole, rtol=1e-12, atol=1e-13 * n)
