"""Sandwich variance, conservative SE and the percentile bootstrap."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lineariv import (
    BasisSpec,
    BinaryLogisticIv,
    Dataset,
    DegenerateResponseError,
    EffectModel,
    SingularDesignError,
    UnreliableBootstrapError,
    WeakIdentificationError,
    bootstrap_ci,
    br_beta_estimate,
    br_gamma_estimate,
    conservative_se_brgamma,
    eem_estimate,
    gen_table1,
    sandwich_se,
    standard_tsls,
)
from lineariv import dataset as dataset_module
from lineariv.rng import draw_normal, make_generator

C_LIN = BasisSpec(["1", "c0"])
CONST = EffectModel.constant()
INSTRUMENTS = BasisSpec(["z0", "z0:c0"])


def test_sandwich_matches_hc0_oracle():
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
    response = rng.normal(size=60)
    coef = np.linalg.solve(design.T @ design, design.T @ response)
    resid = response - design @ coef
    moments = design * resid[:, None]
    jac = -(design.T @ design) / 60
    se = sandwich_se(moments, jac)
    bread = np.linalg.inv(design.T @ design)
    meat = design.T @ (design * resid[:, None] ** 2)
    oracle = np.sqrt(np.diag(bread @ meat @ bread))
    assert_allclose(se, oracle, rtol=1e-10)


def test_sandwich_mean_case_collapses_to_naive_se():
    rng = np.random.default_rng(1)
    y = rng.normal(size=40)
    moments = (y - y.mean())[:, None]
    se = sandwich_se(moments, np.array([[-1.0]]))
    expected = y.std(ddof=1) * np.sqrt(39 / 40) / np.sqrt(40)
    assert_allclose(se, [expected], rtol=1e-12)


def test_sandwich_zero_variance():
    moments = np.zeros((10, 1))
    assert_allclose(sandwich_se(moments, np.array([[2.0]])), [0.0])


def test_sandwich_singular_jacobian():
    with pytest.raises(SingularDesignError):
        sandwich_se(np.ones((5, 2)), np.zeros((2, 2)))


def test_sandwich_one_dimensional_estimating_functions_are_one_column():
    u = np.random.default_rng(2).normal(size=30)
    jac = np.array([[-1.5]])
    assert_array_equal(sandwich_se(u, jac), sandwich_se(u[:, None], jac))


def test_conservative_se_arithmetic_oracle_and_equivariance():
    data = gen_table1(0, 0, 0, 400, 50).dataset
    res = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN)
    se = conservative_se_brgamma(data, res)
    infl = np.asarray(res.diagnostics["influence"])
    assert_allclose(se, np.std(infl, ddof=1) / np.sqrt(data.n), rtol=1e-12)
    scaled = Dataset(2.0 * data.y, data.x, data.z, data.c_raw)
    res2 = br_gamma_estimate(scaled, C_LIN, C_LIN, C_LIN)
    assert_allclose(conservative_se_brgamma(scaled, res2), 2.0 * se, rtol=1e-8)


def test_conservative_se_needs_influence_values():
    data = gen_table1(0, 0, 0, 200, 51).dataset
    res = standard_tsls(data, CONST, C_LIN, INSTRUMENTS)
    with pytest.raises(ValueError, match="no influence values"):
        conservative_se_brgamma(data, res)


def test_conservative_se_covers_monte_carlo_sd():
    reps = 600
    ests = np.empty(reps)
    ses = np.empty(reps)
    for i in range(reps):
        data = gen_table1(0, 0, 0, 500, [606, i]).dataset
        res = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN)
        ests[i] = res.psi_hat[0]
        ses[i] = conservative_se_brgamma(data, res)
    mc_sd = ests.std(ddof=1)
    slack = 2 * mc_sd / np.sqrt(2 * reps)
    assert ses.mean() >= mc_sd - slack


def normal_mean_data(n=120, seed=7):
    gen = make_generator(seed)
    y = 3.0 + draw_normal(gen, n)
    return Dataset(y, np.zeros(n), np.zeros((n, 1)) + 1.0, np.zeros(n))


def test_bootstrap_mean_against_normal_theory():
    data = normal_mean_data()
    res = bootstrap_ci(data, lambda ds: np.array([ds.y.mean()]),
                       resamples=2000, level=0.95, seed=3)
    sample_mean = data.y.mean()
    assert res.ci_lower[0] < sample_mean < res.ci_upper[0]
    textbook = 2 * 1.96 * data.y.std(ddof=1) / np.sqrt(data.n)
    width = res.ci_upper[0] - res.ci_lower[0]
    assert abs(width - textbook) <= 0.15 * textbook


def test_bootstrap_se_is_zero_for_constant_estimates():
    data = normal_mean_data(seed=15)
    # every resample of 120 copies of one row has the same mean, which numpy's
    # standard deviation (from a rounded mean of the estimates) misses
    same = data.take(np.zeros(data.n, dtype=int))
    res = bootstrap_ci(same, lambda ds: np.array([ds.y.mean()]), resamples=200, seed=1)
    assert res.ci_lower[0] == res.ci_upper[0]
    assert res.se[0] == 0.0
    # a varying component keeps numpy's value, bit for bit
    seen = []
    res = bootstrap_ci(data, lambda ds: seen.append([ds.y.mean(), 1.5]) or np.array(seen[-1]),
                       resamples=200, seed=1)
    assert res.se[1] == 0.0
    assert res.se[0] == np.std(np.array(seen), axis=0, ddof=1)[0] > 0.0


def test_bootstrap_deterministic_given_seed():
    data = normal_mean_data(seed=9)
    fn = lambda ds: np.array([ds.y.mean()])
    a = bootstrap_ci(data, fn, resamples=300, seed=11)
    b = bootstrap_ci(data, fn, resamples=300, seed=11)
    assert_array_equal(a.ci_lower, b.ci_lower)
    assert_array_equal(a.ci_upper, b.ci_upper)
    c = bootstrap_ci(data, fn, resamples=300, seed=12)
    assert not np.array_equal(a.ci_lower, c.ci_lower)


def test_bootstrap_nested_levels():
    data = normal_mean_data(seed=13)
    fn = lambda ds: np.array([ds.y.mean()])
    wide = bootstrap_ci(data, fn, resamples=500, level=0.95, seed=2)
    narrow = bootstrap_ci(data, fn, resamples=500, level=0.90, seed=2)
    assert wide.ci_lower[0] <= narrow.ci_lower[0]
    assert wide.ci_upper[0] >= narrow.ci_upper[0]


def test_bootstrap_of_identical_rows_is_degenerate():
    # every resample of a dataset whose rows are all one row is that dataset,
    # and the mean of its outcome 3.0 is exact
    data = normal_mean_data(seed=15)
    data = Dataset(np.full(data.n, 3.0), data.x, data.z, data.c_raw)
    res = bootstrap_ci(data, lambda ds: np.array([ds.y.mean()]), resamples=200, seed=1)
    assert res.ci_lower[0] == res.ci_upper[0]
    assert res.se[0] == 0.0


def test_bootstrap_failure_accounting():
    data = normal_mean_data(seed=17)

    def flaky(ds):
        if ds.y[0] > 3.0:  # roughly half of the resamples
            raise WeakIdentificationError("synthetic failure")
        return np.array([ds.y.mean()])

    with pytest.raises(UnreliableBootstrapError):
        bootstrap_ci(data, flaky, resamples=200, seed=5)

    def rare(ds):
        if ds.y[0] > 3.0 + 2.0:  # rare failure, under the 20% threshold
            raise WeakIdentificationError("synthetic failure")
        return np.array([ds.y.mean()])

    res = bootstrap_ci(data, rare, resamples=200, seed=5)
    assert 0 <= res.failed_resamples <= 40


@pytest.mark.parametrize("settings, message", [
    ({"resamples": 99}, "resamples must be at least 100"),
    ({"level": 1.0}, "level must be in"),
    ({"level": 0.0}, "level must be in"),
])
def test_bootstrap_rejects_bad_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        bootstrap_ci(normal_mean_data(), lambda ds: np.array([ds.y.mean()]), **settings)


def test_bootstrap_agrees_with_sandwich_for_tsls():
    data = gen_table1(0, 0, 0, 500, 61).dataset
    fit = standard_tsls(data, CONST, C_LIN, INSTRUMENTS)
    boot = bootstrap_ci(
        data, lambda ds: standard_tsls(ds, CONST, C_LIN, INSTRUMENTS).psi_hat,
        resamples=1000, seed=8)
    assert abs(boot.se[0] - fit.se[0]) <= 0.15 * fit.se[0]


def test_ses_equivariant_under_outcome_scaling():
    data = gen_table1(0, 0, 0, 400, 62).dataset
    scaled = Dataset(2.0 * data.y, data.x, data.z, data.c_raw)
    a = standard_tsls(data, CONST, C_LIN, INSTRUMENTS)
    b = standard_tsls(scaled, CONST, C_LIN, INSTRUMENTS)
    assert_allclose(b.se, 2.0 * a.se, rtol=1e-9)
    fa = bootstrap_ci(data, lambda ds: standard_tsls(ds, CONST, C_LIN, INSTRUMENTS).psi_hat,
                      resamples=300, seed=4)
    fb = bootstrap_ci(scaled, lambda ds: standard_tsls(ds, CONST, C_LIN, INSTRUMENTS).psi_hat,
                      resamples=300, seed=4)
    assert_allclose(fb.se, 2.0 * fa.se, rtol=1e-9)
    assert_allclose(fb.ci_lower, 2.0 * fa.ci_lower, rtol=1e-9)


def _twenty_rows_two_treated():
    base = gen_table1(0, 0, 0, 20, 3).dataset
    z = np.zeros(20)
    z[[4, 11]] = 1.0
    return Dataset(base.y, base.x, z, base.c_raw)


def test_bootstrap_counts_one_class_resamples_as_failed():
    # about one resample in nine draws no instrument-treated row
    data = _twenty_rows_two_treated()
    res = bootstrap_ci(data, lambda ds: br_gamma_estimate(ds, C_LIN, C_LIN, C_LIN).psi_hat,
                       resamples=200, seed=5)
    draws = [make_generator([5, b]).integers(0, data.n, size=data.n) for b in range(200)]
    one_class = [idx for idx in draws if not data.z[idx].any()]
    assert res.failed_resamples == len(one_class) > 0
    with pytest.raises(DegenerateResponseError):
        br_gamma_estimate(data.take(one_class[0]), C_LIN, C_LIN, C_LIN)


def _br_gamma_psi(ds):
    return br_gamma_estimate(ds, C_LIN, C_LIN, C_LIN).psi_hat


def _br_beta_psi(ds):
    # the plain fit and the start value come from the chunk's bias-reduced pair
    return br_beta_estimate(ds, C_LIN, C_LIN, C_LIN).psi_hat


def _opaque_eem_psi(ds):
    # an instrument fit of its own per resample, outside the dataset memo
    return eem_estimate(ds, BinaryLogisticIv.fit(ds, C_LIN), C_LIN, C_LIN).psi_hat


@pytest.mark.parametrize("estimator", [_br_gamma_psi, _br_beta_psi, _opaque_eem_psi])
@pytest.mark.parametrize("data", [gen_table1(1, 1, -1, 200, 3).dataset,
                                  _twenty_rows_two_treated()])
def test_bootstrap_byte_identical_across_chunk_sizes(monkeypatch, estimator, data):
    def run():
        res = bootstrap_ci(data, estimator, resamples=150, seed=11)
        return ([v.hex() for v in (res.ci_lower[0], res.ci_upper[0], res.se[0])],
                res.failed_resamples)

    default = run()
    for size in (1, 7):
        monkeypatch.setattr(dataset_module, "_chunk_size", lambda n: size)
        assert run() == default


def test_bootstrap_links_each_chunk_and_calls_in_order(monkeypatch):
    data = gen_table1(0, 0, 0, 500, 4).dataset
    monkeypatch.setattr(dataset_module, "_chunk_size", lambda n: 3)
    seen = []
    bootstrap_ci(data, lambda ds: seen.append(ds) or np.array([ds.y.mean()]),
                 resamples=100, seed=2)
    for b, ds in enumerate(seen):
        idx = make_generator([2, b]).integers(0, data.n, size=data.n)
        assert_array_equal(ds.y, data.y[idx])
        assert [ref() for ref in ds._chunk] == seen[b - b % 3:b - b % 3 + 3]
