"""Core estimator lattice: oracles, hand examples and properties."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lineariv import (
    BasisSpec,
    BinaryLogisticIv,
    CustomIndex,
    Dataset,
    EffectModel,
    EmpiricalIv,
    ExposureModel,
    LinearMeanIv,
    NonConvergenceError,
    OutcomeModel,
    RawInstruments,
    ScaledInstrument,
    UnsupportedCombinationError,
    WeakIdentificationError,
    centered_index,
    efficient_index,
    g_estimate,
    gen_sim1,
    gen_table1,
    locally_efficient_y,
    normal_cdf,
    outcome_coef_at,
    plug_in_two_stage,
    standard_tsls,
)
from lineariv.rng import draw_normal, make_generator

C1 = BasisSpec(["1"])
C_LIN = BasisSpec(["1", "c0"])
CONST = EffectModel.constant()


def seeded_dataset(n=8, seed=123, q=1, r=1):
    gen = make_generator(seed)
    z = gen.random((n, q))
    c = draw_normal(gen, n * r).reshape(n, r)
    x = z[:, 0] + 0.5 * c[:, 0] + draw_normal(gen, n)
    y = 2.0 * x - c[:, 0] + draw_normal(gen, n)
    return Dataset(y, x, z, c)


# ---------------------------------------------------------------------------
# Standard TSLS
# ---------------------------------------------------------------------------

def test_tsls_noise_free_exposure_is_own_projection():
    gen = make_generator(1)
    z = (gen.random(20) < 0.5).astype(float)
    data = Dataset(2.0 * z, z, z, np.zeros(20))
    res = standard_tsls(data, CONST, C1, BasisSpec(["z0"]))
    assert_allclose(res.psi_hat, [2.0], atol=1e-10)


def test_tsls_projection_formula_oracle():
    data = seeded_dataset(n=8, seed=55)
    res = standard_tsls(data, CONST, C_LIN, BasisSpec(["z0"]))
    # oracle: (D' P D)^-1 D' P y with P projecting onto [Z, outcome basis]
    by = np.column_stack([np.ones(8), data.c_raw[:, 0]])
    inst = np.column_stack([data.z, by])
    proj = inst @ np.linalg.inv(inst.T @ inst) @ inst.T
    design = np.column_stack([by, data.x])
    oracle = np.linalg.solve(design.T @ proj @ design, design.T @ proj @ data.y)
    assert_allclose(res.psi_hat, oracle[-1:], rtol=1e-10)
    assert_allclose(res.beta_hat, oracle[:2], rtol=1e-10)


def test_tsls_order_condition():
    data = seeded_dataset()
    effect = EffectModel.with_modifiers(C_LIN)
    with pytest.raises(UnsupportedCombinationError, match="order condition"):
        standard_tsls(data, effect, C_LIN, BasisSpec(["z0"]))


def test_tsls_rank_condition_degenerate_instrument():
    # instrument constant -> first-stage fitted values collinear with intercept
    data = Dataset([1.0, 2, 3, 4], [1.0, 2, 3, 4], np.ones(4), [0.1, 0.2, 0.3, 0.4])
    with pytest.raises((WeakIdentificationError, Exception)):
        standard_tsls(data, CONST, C_LIN, BasisSpec(["z0"]))


# ---------------------------------------------------------------------------
# Plug-in two-stage
# ---------------------------------------------------------------------------

def test_plug_in_linear_equals_tsls():
    data = seeded_dataset(n=40, seed=9)
    exposure = ExposureModel("identity", BasisSpec(["z0", "1", "c0"]))
    plug = plug_in_two_stage(data, exposure, CONST, C_LIN)
    tsls = standard_tsls(data, CONST, C_LIN, BasisSpec(["z0"]))
    assert_allclose(plug.psi_hat, tsls.psi_hat, rtol=1e-10)
    assert_allclose(plug.beta_hat, tsls.beta_hat, rtol=1e-10)


def test_plug_in_noise_free_known_probit():
    gen = make_generator(17)
    n = 30
    z = (gen.random(n) < 0.5).astype(float)
    v = draw_normal(gen, n)
    data0 = Dataset(np.zeros(n), gen.random(n), z, v)
    exposure = ExposureModel("probit", BasisSpec(["z0", "1", "c0"]),
                             coef=np.array([1.0, -0.2, 0.7]))
    m_x = exposure.predict(data0)
    data = Dataset(3.0 * m_x + 1.0, data0.x, z, v)
    res = plug_in_two_stage(data, exposure, CONST, C1)
    assert_allclose(res.psi_hat, [3.0], atol=1e-8)
    assert_allclose(res.beta_hat, [1.0], atol=1e-8)


def test_plug_in_requires_a_converged_exposure_fit(monkeypatch):
    # one Fisher-scoring step leaves the probit score far from zero
    monkeypatch.setattr("lineariv.glm.MAX_ITER", 1)
    data = gen_sim1(500, 3).dataset
    exposure = ExposureModel("probit", BasisSpec(["z0", "1", "c0"]))
    with pytest.raises(NonConvergenceError, match="did not converge") as info:
        plug_in_two_stage(data, exposure, CONST, C_LIN)
    assert info.value.diagnostics["iterations"] == 1
    assert info.value.diagnostics["score_norm"] > 1e-8


# ---------------------------------------------------------------------------
# Locally efficient estimation under the outcome model
# ---------------------------------------------------------------------------

def test_locally_efficient_tsls_coincidence():
    data = seeded_dataset(n=60, seed=3)
    exposure = ExposureModel("identity", BasisSpec(["z0", "1", "c0"])).fit(data)
    le = locally_efficient_y(data, exposure, CONST, C_LIN)
    tsls = standard_tsls(data, CONST, C_LIN, BasisSpec(["z0"]))
    assert_allclose(le.psi_hat, tsls.psi_hat, rtol=1e-10)
    assert_allclose(le.beta_hat, tsls.beta_hat, rtol=1e-10)


def test_locally_efficient_exact_recovery():
    gen = make_generator(31)
    n = 25
    z = (gen.random(n) < 0.4).astype(float)
    v = draw_normal(gen, n)
    x = (gen.random(n) < normal_cdf(z + 0.3 * v)).astype(float)
    y = 1.5 - 0.5 * v + 0.75 * x  # exact linear structure
    data = Dataset(y, x, z, v)
    exposure = ExposureModel("probit", BasisSpec(["z0", "1", "c0"])).fit(data)
    res = locally_efficient_y(data, exposure, CONST, C_LIN)
    assert_allclose(res.psi_hat, [0.75], atol=1e-8)
    assert_allclose(res.beta_hat, [1.5, -0.5], atol=1e-8)


# ---------------------------------------------------------------------------
# Centered index
# ---------------------------------------------------------------------------

def test_centered_index_empirical_mean_centering():
    data = Dataset([0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0])
    d = centered_index(data, RawInstruments(), EmpiricalIv.fit(data))
    assert_allclose(d[:, 0], [-0.5, 0.5])


def test_centered_index_logistic_score_orthogonality():
    gen = make_generator(77)
    n = 300
    v = draw_normal(gen, n)
    z = (gen.random(n) < 1 / (1 + np.exp(1 - v))).astype(float)
    data = Dataset(np.zeros(n), np.zeros(n), z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    d = centered_index(data, RawInstruments(), iv)
    design = np.column_stack([np.ones(n), v])
    assert np.max(np.abs(design.T @ d[:, 0])) <= 1e-8


def test_centered_index_scaled_pointwise_oracle():
    gen = make_generator(13)
    n = 50
    v = draw_normal(gen, n)
    z = (gen.random(n) < 0.5).astype(float)
    data = Dataset(np.zeros(n), np.zeros(n), z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    index = ScaledInstrument(C_LIN, np.array([1.0, 1.0]))
    d = centered_index(data, index, iv)
    p = iv.prob(data)
    assert_allclose(d[:, 0], (1.0 + v) * (z - p), rtol=1e-12)


def test_centered_index_custom_binary_two_point():
    data = seeded_dataset(n=40, seed=21)
    z = (data.z[:, 0] > 0.5).astype(float)
    data = Dataset(data.y, data.x, z, data.c_raw)
    iv = BinaryLogisticIv.fit(data, C1)
    index = CustomIndex.from_basis(BasisSpec(["z0", "z0:c0"]))
    d = centered_index(data, index, iv)
    p = iv.prob(data)
    assert_allclose(d[:, 0], z - p, atol=1e-12)
    assert_allclose(d[:, 1], data.c_raw[:, 0] * (z - p), atol=1e-12)


def test_centered_index_linear_mean_substitution():
    gen = make_generator(99)
    n = 60
    v = draw_normal(gen, n)
    z = 0.4 + 0.2 * v + 0.1 * draw_normal(gen, n)  # continuous instrument
    data = Dataset(np.zeros(n), np.zeros(n), z, v)
    iv = LinearMeanIv.fit(data, C_LIN)
    d = centered_index(data, RawInstruments(), iv)
    mean = iv.conditional_mean(data)[:, 0]
    assert_allclose(d[:, 0], z - mean, rtol=1e-12)


def test_known_linear_mean_law_takes_one_dimensional_coefficients():
    # one instrument column: (p,) coefficients are the (p, 1) column
    data = seeded_dataset(n=10, seed=4)
    iv = LinearMeanIv.known(C_LIN, [0.4, 0.2])
    assert iv.coef.shape == (2, 1)
    assert_allclose(iv.conditional_mean(data)[:, 0], 0.4 + 0.2 * data.c_raw[:, 0], rtol=1e-15)


# ---------------------------------------------------------------------------
# G-estimation
# ---------------------------------------------------------------------------

def wald_dataset():
    return Dataset([1.0, 2.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0],
                   [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])


def test_g_estimate_wald_ratio_hand_example():
    data = wald_dataset()
    for beta in ([0.0], [7.3]):
        outcome = OutcomeModel(C1, np.array(beta))
        res = g_estimate(data, RawInstruments(), outcome, EmpiricalIv.fit(data), CONST)
        assert_allclose(res.psi_hat, [2.0], rtol=1e-12)


def test_g_estimate_exact_zero():
    gen = make_generator(8)
    n = 30
    z = (gen.random(n) < 0.5).astype(float)
    v = draw_normal(gen, n)
    x = z + v + draw_normal(gen, n)
    beta = np.array([0.7, -1.2])
    y = beta[0] + beta[1] * v + 0.9 * x
    data = Dataset(y, x, z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    for index in (RawInstruments(), ScaledInstrument(C_LIN, np.array([1.0, 0.5]))):
        res = g_estimate(data, index, OutcomeModel(C_LIN, beta), iv, CONST)
        assert_allclose(res.psi_hat, [0.9], atol=1e-10)


def test_g_estimate_bisection_oracle():
    data = seeded_dataset(n=10, seed=2)
    z_bin = (data.z[:, 0] > 0.5).astype(float)
    data = Dataset(data.y, data.x, z_bin, data.c_raw)
    iv = EmpiricalIv.fit(data)
    beta = outcome_coef_at(data, CONST, C_LIN, 0.0)
    outcome = OutcomeModel(C_LIN, beta)
    res = g_estimate(data, RawInstruments(), outcome, iv, CONST)

    d = centered_index(data, RawInstruments(), iv)[:, 0]
    resid = data.y - outcome.predict(data)

    def estfun(psi):
        return float(np.sum(d * (resid - psi * data.x)))

    lo, hi = -100.0, 100.0
    assert estfun(lo) * estfun(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if estfun(lo) * estfun(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(res.psi_hat[0] - 0.5 * (lo + hi)) <= 1e-6


def test_g_estimate_profiled_outcome_matches_stacked_solve():
    data = seeded_dataset(n=50, seed=44)
    z_bin = (data.z[:, 0] > 0.5).astype(float)
    data = Dataset(data.y, data.x, z_bin, data.c_raw)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    res = g_estimate(data, RawInstruments(), OutcomeModel(C_LIN), iv, CONST)
    # oracle: solve the stacked system [d, C]'(y - [x, C] theta) = 0 directly
    d = centered_index(data, RawInstruments(), iv)
    by = np.column_stack([np.ones(data.n), data.c_raw[:, 0]])
    u = np.column_stack([d, by])
    r = np.column_stack([data.x, by])
    theta = np.linalg.solve(u.T @ r, u.T @ data.y)
    assert_allclose(res.psi_hat, theta[:1], rtol=1e-10)
    assert_allclose(res.beta_hat, theta[1:], rtol=1e-10)
    # at the solution beta equals the OLS fit of y - psi*x on the basis
    assert_allclose(res.beta_hat,
                    outcome_coef_at(data, CONST, C_LIN, res.psi_hat), rtol=1e-8)
    assert res.diagnostics["ee_residual_norm"] <= 1e-8


def test_g_estimate_index_truncation():
    data = wald_dataset()
    index = CustomIndex.from_basis(BasisSpec(["z0", "z0:c0"]))
    res = g_estimate(data, index, OutcomeModel(C1, np.zeros(1)), EmpiricalIv.fit(data), CONST)
    assert_allclose(res.psi_hat, [2.0], rtol=1e-12)
    assert res.diagnostics["ee_residual_norm"] <= 1e-8


# ---------------------------------------------------------------------------
# Efficient index
# ---------------------------------------------------------------------------

def test_efficient_index_linear_exposure_closed_form():
    gen = make_generator(16)
    n = 80
    v = draw_normal(gen, n)
    z = (gen.random(n) < 0.4).astype(float)
    x = z * (1 + 0.5 * v) + v + draw_normal(gen, n)
    data = Dataset(np.zeros(n), x, z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    exposure = ExposureModel("identity", BasisSpec(["1", "c0", "z0", "z0:c0"])).fit(data)
    alpha = exposure.coef
    e = efficient_index(data, exposure, iv, CONST)
    vals = e.evaluate(data)
    expected = (alpha[2] + alpha[3] * v) * (z - iv.prob(data))
    assert_allclose(vals[:, 0], expected, atol=1e-10)


def test_efficient_index_probit_two_point_mixture():
    gen = make_generator(18)
    n = 60
    v = draw_normal(gen, n)
    z = (gen.random(n) < 0.5).astype(float)
    x = (gen.random(n) < normal_cdf(z + 0.5 * v)).astype(float)
    data = Dataset(np.zeros(n), x, z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    exposure = ExposureModel("probit", BasisSpec(["z0", "1", "c0"])).fit(data)
    vals = efficient_index(data, exposure, iv, CONST).evaluate(data)
    a = exposure.coef
    p = iv.prob(data)
    m1 = normal_cdf(a[0] * 1 + a[1] + a[2] * v)
    m0 = normal_cdf(a[1] + a[2] * v)
    mhat = normal_cdf(a[0] * z + a[1] + a[2] * v)
    assert_allclose(vals[:, 0], mhat - (p * m1 + (1 - p) * m0), atol=1e-12)


def test_efficient_index_degenerate_exposure_raises():
    gen = make_generator(19)
    n = 50
    v = draw_normal(gen, n)
    z = (gen.random(n) < 0.5).astype(float)
    data = Dataset(draw_normal(gen, n), draw_normal(gen, n), z, v)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    # instrument-irrelevant exposure model: index is identically zero
    exposure = ExposureModel("identity", BasisSpec(["1", "c0", "z0"]),
                             coef=np.array([0.3, -0.2, 0.0]))
    index = efficient_index(data, exposure, iv, CONST)
    assert_allclose(index.evaluate(data), np.zeros((n, 1)), atol=1e-12)
    with pytest.raises(WeakIdentificationError):
        g_estimate(data, index, OutcomeModel(C_LIN, np.zeros(2)), iv, CONST)


def test_efficient_index_continuous_nonlinear_unsupported():
    gen = make_generator(20)
    n = 40
    v = draw_normal(gen, n)
    z = gen.random(n) + 0.1  # continuous instrument
    data = Dataset(np.zeros(n), np.zeros(n), z, v)
    iv = LinearMeanIv.fit(data, C_LIN)
    exposure = ExposureModel("probit", BasisSpec(["z0", "1", "c0"]),
                             coef=np.array([1.0, 0.0, 0.5]))
    with pytest.raises(UnsupportedCombinationError):
        efficient_index(data, exposure, iv, CONST)


# ---------------------------------------------------------------------------
# Centering branches at counterfactual instrument values: exact pins
# ---------------------------------------------------------------------------

def continuous_dataset(n=60, seed=5):
    gen = make_generator(seed)
    v = draw_normal(gen, n)
    z = 0.3 + 0.5 * v + draw_normal(gen, n)
    x = z + v + draw_normal(gen, n)
    y = x + v + draw_normal(gen, n)
    return Dataset(y, x, z, v)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_basis_index_linear_in_z_substitutes_the_instrument_mean():
    data = continuous_dataset()
    iv = LinearMeanIv.fit(data, C_LIN)
    index = CustomIndex.from_basis(BasisSpec(["z0", "z0:c0"]))
    d = centered_index(data, index, iv)
    assert hexes(d[[0, -1]]) == ["0x1.1f7978c9d315ep-2", "0x1.3374a3ae84184p-2",
                                 "0x1.d342500f66d27p-2", "-0x1.14e6ecfdf531dp+0"]
    res = g_estimate(data, index, OutcomeModel(C_LIN), iv, CONST)
    assert hexes(res.psi_hat) == ["0x1.bd7c806e5b14ep-1"]


def test_nonlinear_basis_index_is_averaged_under_the_empirical_law():
    data = continuous_dataset()
    iv = EmpiricalIv.fit(data)
    index = CustomIndex.from_basis(BasisSpec(["z0", "z0*z0"]))
    d = centered_index(data, index, iv)
    assert hexes(d[[0, -1]]) == ["0x1.d1884185a3806p-1", "-0x1.dfcf0f2dc4d80p-4",
                                 "-0x1.906001ca31c21p-1", "-0x1.6b15adbfc17b3p+0"]
    res = g_estimate(data, index, OutcomeModel(C_LIN), iv, CONST)
    assert hexes(res.psi_hat) == ["0x1.bd7c806e5b154p-1"]
    big = continuous_dataset(n=4001)
    with pytest.raises(UnsupportedCombinationError, match="quadratic in n; n=4001 exceeds"):
        centered_index(big, index, EmpiricalIv.fit(big))


def test_nonlinear_index_with_a_continuous_instrument_has_no_exact_mean():
    data = continuous_dataset()
    with pytest.raises(UnsupportedCombinationError, match="no exact conditional mean for a "
                       "nonlinear index with a continuous instrument"):
        centered_index(data, CustomIndex.from_basis(BasisSpec(["z0", "z0*z0"])),
                       LinearMeanIv.fit(data, C_LIN))


def test_uncentered_callable_index_must_be_given_as_a_basis():
    data = seeded_dataset(n=40, seed=21)
    data = Dataset(data.y, data.x, (data.z[:, 0] > 0.5).astype(float), data.c_raw)
    index = CustomIndex(evaluator=lambda ds: ds.z[:, 0] * ds.c_raw[:, 0])
    with pytest.raises(UnsupportedCombinationError, match="give the index as a basis"):
        centered_index(data, index, BinaryLogisticIv.fit(data, C1))


def test_efficient_index_substitutes_the_instrument_mean_for_a_linear_exposure():
    data = continuous_dataset()
    iv = LinearMeanIv.fit(data, C_LIN)
    exposure = ExposureModel("identity", BasisSpec(["1", "z0", "c0", "z0:c0"])).fit(data)
    index = efficient_index(data, exposure, iv, CONST)
    assert hexes(index.evaluate(data)[[0, -1]]) == ["0x1.f34dea3da3e20p-3", "0x1.572404c6e3810p-1"]
    res = g_estimate(data, index, OutcomeModel(C_LIN), iv, CONST)
    assert hexes(res.psi_hat) == ["0x1.cc7e747176f11p-1"]
    assert hexes(res.beta_hat) == ["-0x1.37ca31cf1e91bp-4", "0x1.465bb4ff9372bp+0"]
    assert res.psi == pytest.approx(0.89940227, abs=5e-9)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_equivariance_under_outcome_transformation():
    """Replacing y by a*y + b'basis(C) maps psi -> a*psi for every estimator."""
    from lineariv.adaptive import br_beta_estimate, br_gamma_estimate, eem_estimate

    sim = gen_table1(0, 1, 0, 400, 62)
    data = sim.dataset
    a, b = -1.7, np.array([0.8, -2.2])
    by = np.column_stack([np.ones(data.n), data.c_raw[:, 0]])
    data2 = Dataset(a * data.y + by @ b, data.x, data.z, data.c_raw)

    iv1 = BinaryLogisticIv.fit(data, C_LIN)
    exposure1 = ExposureModel("identity", BasisSpec(["1", "z0", "c0", "z0:c0"])).fit(data)

    def all_estimates(ds):
        iv = BinaryLogisticIv.fit(ds, C_LIN)
        exposure = ExposureModel("identity", BasisSpec(["1", "z0", "c0", "z0:c0"])).fit(ds)
        tsls = standard_tsls(ds, CONST, C_LIN, BasisSpec(["z0", "z0:c0"]))
        beta = outcome_coef_at(ds, CONST, C_LIN, tsls.psi_hat)
        out = {
            "tsls": tsls.psi_hat[0],
            "plug_in": plug_in_two_stage(ds, exposure, CONST, C_LIN).psi_hat[0],
            "loc_eff_y": locally_efficient_y(ds, exposure, CONST, C_LIN).psi_hat[0],
            "g_fixed": g_estimate(ds, RawInstruments(), OutcomeModel(C_LIN, beta), iv, CONST).psi_hat[0],
            "g_profiled": g_estimate(ds, efficient_index(ds, exposure, iv, CONST),
                                     OutcomeModel(C_LIN), iv, CONST).psi_hat[0],
            "eem": eem_estimate(ds, iv, C_LIN, C_LIN, preliminary_psi=tsls.psi).psi_hat[0],
            "br_gamma": br_gamma_estimate(ds, C_LIN, C_LIN, C_LIN).psi_hat[0],
            "br_beta": br_beta_estimate(ds, C_LIN, C_LIN, C_LIN).psi_hat[0],
        }
        return out

    base = all_estimates(data)
    transformed = all_estimates(data2)
    for name, value in base.items():
        assert transformed[name] == pytest.approx(a * value, abs=1e-9), name


def test_prop3_tsls_robust_to_nonlinear_exposure():
    """Correct linear outcome model, nonlinear true exposure: TSLS stays unbiased."""

    def gen(n, seed):
        g = make_generator(seed)
        u = draw_normal(g, n)
        v = draw_normal(g, n)
        z = (g.random(n) < 0.5).astype(float)
        x = (g.random(n) < normal_cdf(2.0 * z - 1.0 + 0.5 * u + 0.5 * v)).astype(float)
        y = 0.5 * x - u - v + draw_normal(g, n)
        return Dataset(y, x, z, v)

    reps, n = 800, 500
    estimates = np.empty(reps)
    for i in range(reps):
        data = gen(n, [4141, i])
        estimates[i] = standard_tsls(data, CONST, C_LIN, BasisSpec(["z0"])).psi_hat[0]
    bias = estimates.mean() - 0.5
    mc_se = estimates.std(ddof=1) / np.sqrt(reps)
    assert abs(bias) <= 3 * mc_se, f"bias {bias:.4f} vs 3*mc_se {3 * mc_se:.4f}"


def test_prop6_tsls_robust_iff_instrument_linear_in_covariates():
    """Misspecified outcome model: TSLS unbiased when E(Z|C) is linear, biased
    when the instrument depends nonlinearly on the covariate."""

    def gen_linear(n, seed):
        g = make_generator(seed)
        u = draw_normal(g, n)
        v = draw_normal(g, n)
        z = (g.random(n) < 0.5).astype(float)   # Z independent of C
        x = z + u + v + draw_normal(g, n)
        y = 0.5 * x - u - 2 * v + v**2 + draw_normal(g, n)
        return Dataset(y, x, z, v)

    reps, n = 800, 500
    estimates = np.empty(reps)
    for i in range(reps):
        estimates[i] = standard_tsls(gen_linear(n, [4242, i]), CONST, C_LIN,
                                     BasisSpec(["z0"])).psi_hat[0]
    bias = estimates.mean() - 0.5
    mc_se = estimates.std(ddof=1) / np.sqrt(reps)
    assert abs(bias) <= 3 * mc_se, f"bias {bias:.4f} vs 3*mc_se {3 * mc_se:.4f}"

    # nonlinear instrument law: detectably biased (same design as the second
    # binary-exposure experiment)
    from lineariv.simlab import gen_sim2
    estimates = np.empty(400)
    for i in range(400):
        estimates[i] = standard_tsls(gen_sim2(n, [4343, i]).dataset, CONST, C_LIN,
                                     BasisSpec(["z0"])).psi_hat[0]
    bias = estimates.mean() - 0.5
    mc_se = estimates.std(ddof=1) / np.sqrt(400)
    assert abs(bias) > 5 * mc_se
