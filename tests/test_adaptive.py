"""Empirical efficiency maximisation and bias-reduced estimation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lineariv import (
    BasisSpec,
    BinaryLogisticIv,
    Dataset,
    EffectModel,
    EmpiricalIv,
    OutcomeModel,
    RawInstruments,
    ScaledInstrument,
    UnsupportedCombinationError,
    WeakIdentificationError,
    br_beta_estimate,
    br_gamma_estimate,
    eem_estimate,
    eem_fit_alpha,
    eem_fit_beta,
    eem_objective,
    g_estimate,
    gen_sim1,
    gen_table1,
    standard_tsls,
)
from lineariv.dataset import build_design
from lineariv.rng import draw_normal, make_generator
from lineariv.simlab import ScenarioConfig, generate

C1 = BasisSpec(["1"])
C_LIN = BasisSpec(["1", "c0"])
CONST = EffectModel.constant()
INSTRUMENTS = BasisSpec(["z0", "z0:c0"])


def binary_z_dataset(n=200, seed=5, half_split=False):
    gen = make_generator(seed)
    v = draw_normal(gen, n)
    if half_split:
        z = np.r_[np.zeros(n // 2), np.ones(n - n // 2)]
    else:
        z = (gen.random(n) < 0.5).astype(float)
    x = z * (1 - 0.5 * v) + v + draw_normal(gen, n)
    y = x - v + draw_normal(gen, n)
    return Dataset(y, x, z, v)


# ---------------------------------------------------------------------------
# eem_fit_alpha
# ---------------------------------------------------------------------------

def test_eem_alpha_exact_regression_recovery():
    gen = make_generator(1)
    n = 40
    z = (gen.random(n) < 0.5).astype(float)
    iv = EmpiricalIv(np.array([z.mean()]))
    zc = z - z.mean()
    x = 2.0 * zc
    data = Dataset(np.zeros(n), x, z, np.zeros(n))
    assert_allclose(eem_fit_alpha(data, iv, C1), [2.0], rtol=1e-12)


def test_eem_alpha_null_association_flags_weak_identification():
    gen = make_generator(2)
    n = 100
    z = (gen.random(n) < 0.5).astype(float)
    iv = EmpiricalIv(np.array([z.mean()]))
    zc = z - z.mean()
    x_raw = draw_normal(gen, n)
    x = x_raw - zc * (zc @ x_raw) / (zc @ zc)  # exactly orthogonal to the centered design
    data = Dataset(draw_normal(gen, n), x, z, np.zeros(n))
    alpha = eem_fit_alpha(data, iv, C1)
    assert_allclose(alpha, [0.0], atol=1e-12)
    with pytest.raises(WeakIdentificationError):
        g_estimate(data, ScaledInstrument(C1, alpha), None, iv, CONST)


def test_eem_requires_a_single_instrument_column():
    data = Dataset(np.zeros(4), np.zeros(4), np.eye(4)[:, :2], np.zeros(4))
    with pytest.raises(UnsupportedCombinationError, match="single instrument column"):
        eem_fit_alpha(data, EmpiricalIv.fit(data), C1)


def test_eem_alpha_objective_beats_perturbations():
    """Objective at the fitted coefficients vs 200 perturbed index vectors,
    each paired with its own weighted-regression outcome coefficients."""
    sim = gen_table1(0, 0, 0, 500, 11)
    data = sim.dataset
    iv = BinaryLogisticIv.fit(data, C_LIN)
    psi0 = standard_tsls(data, CONST, C_LIN, INSTRUMENTS).psi
    a_t = eem_fit_alpha(data, iv, C_LIN)
    b_t = eem_fit_beta(data, iv, a_t, C_LIN, C_LIN, psi0)
    obj0 = eem_objective(data, iv, a_t, b_t, psi0, C_LIN, C_LIN)
    rng = np.random.default_rng(314)
    scale = 0.5 * max(1.0, float(np.linalg.norm(a_t)))
    for _ in range(200):
        a_p = a_t + rng.normal(0, scale, a_t.shape)
        b_p = eem_fit_beta(data, iv, a_p, C_LIN, C_LIN, psi0)
        obj_p = eem_objective(data, iv, a_p, b_p, psi0, C_LIN, C_LIN)
        # near-optimality: the exact empirical minimiser differs from the
        # closed-form recipe at order n^{-1/2}, hence the relative slack
        assert obj0 <= obj_p + 0.05 * obj0


# ---------------------------------------------------------------------------
# eem_fit_beta
# ---------------------------------------------------------------------------

def test_eem_beta_exact_fit_invariance():
    data = binary_z_dataset(seed=7)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    beta0 = np.array([1.3, -0.4])
    by = build_design(data, C_LIN)
    exact = Dataset(by @ beta0 + 2.0 * data.x, data.x, data.z, data.c_raw)
    beta = eem_fit_beta(exact, iv, np.array([1.0, -0.3]), C_LIN, C_LIN, preliminary_psi=2.0)
    assert_allclose(beta, beta0, atol=1e-10)


def test_eem_beta_constant_weights_reduce_to_ols():
    # half/half instrument split makes (z - mean)^2 constant; intercept-only
    # index scale is constant too, so the weighted fit equals plain OLS
    data = binary_z_dataset(n=200, seed=8, half_split=True)
    iv = EmpiricalIv(np.array([0.5]))
    psi0 = 1.0
    beta_w = eem_fit_beta(data, iv, np.array([3.0]), C1, C_LIN, psi0)
    from lineariv.glm import fit_ols
    beta_ols = fit_ols(build_design(data, C_LIN), data.y - psi0 * data.x).coefficients
    assert_allclose(beta_w, beta_ols, rtol=1e-12)


def test_eem_beta_numerator_beats_perturbations():
    sim = gen_table1(0, 0, 0, 500, 12)
    data = sim.dataset
    iv = BinaryLogisticIv.fit(data, C_LIN)
    psi0 = standard_tsls(data, CONST, C_LIN, INSTRUMENTS).psi
    a_t = eem_fit_alpha(data, iv, C_LIN)
    b_t = eem_fit_beta(data, iv, a_t, C_LIN, C_LIN, psi0)
    zc = data.z[:, 0] - iv.prob(data)
    d = (build_design(data, C_LIN) @ a_t) * zc
    by = build_design(data, C_LIN)

    def numerator(b):
        eps = data.y - by @ b - psi0 * data.x
        return float(np.var(d * eps, ddof=1))

    base = numerator(b_t)
    rng = np.random.default_rng(315)
    scale = 0.5 * max(1.0, float(np.linalg.norm(b_t)))
    for _ in range(200):
        assert base <= numerator(b_t + rng.normal(0, scale, b_t.shape)) + 0.05 * base


# ---------------------------------------------------------------------------
# eem_objective
# ---------------------------------------------------------------------------

def test_eem_objective_zero_numerator():
    data = binary_z_dataset(seed=9)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    beta0 = np.array([0.5, 1.0])
    by = build_design(data, C_LIN)
    exact = Dataset(by @ beta0 + 3.0 * data.x, data.x, data.z, data.c_raw)
    assert eem_objective(exact, iv, [1.0, 0.2], beta0, 3.0, C_LIN, C_LIN) == pytest.approx(0.0, abs=1e-20)


def test_eem_objective_scale_invariant_in_alpha():
    data = binary_z_dataset(seed=10)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    args = (1.0, C_LIN, C_LIN)
    a = np.array([0.7, -0.1])
    b = np.array([0.2, 0.4])
    assert_allclose(eem_objective(data, iv, a, b, *args),
                    eem_objective(data, iv, 2.0 * a, b, *args), rtol=1e-12)


def test_eem_objective_arithmetic_oracle():
    data = binary_z_dataset(n=20, seed=11)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    a = np.array([0.9, 0.3])
    b = np.array([-0.2, 0.8])
    psi = 1.1
    value = eem_objective(data, iv, a, b, psi, C_LIN, C_LIN)
    # from-scratch recomputation in plain python
    p = iv.prob(data)
    rows_d = [(a[0] + a[1] * c) * (z - pi)
              for z, c, pi in zip(data.z[:, 0], data.c_raw[:, 0], p)]
    rows_eps = [y - (b[0] + b[1] * c) - psi * x
                for y, c, x in zip(data.y, data.c_raw[:, 0], data.x)]
    prods = [d * e for d, e in zip(rows_d, rows_eps)]
    mean_prod = sum(prods) / len(prods)
    var = sum((t - mean_prod) ** 2 for t in prods) / (len(prods) - 1)
    term = [d * x for d, x in zip(rows_d, data.x)]
    denom = len(prods) * (sum(term) / len(term)) ** 2
    assert_allclose(value, var / denom, rtol=1e-12)


# ---------------------------------------------------------------------------
# eem_estimate
# ---------------------------------------------------------------------------

def test_eem_estimate_intercept_only_collapses_to_wald():
    data = binary_z_dataset(n=300, seed=12)
    data = Dataset(data.y, data.x, data.z, np.zeros(data.n))  # no usable covariate
    iv = BinaryLogisticIv.fit(data, C1)
    eem = eem_estimate(data, iv, C1, C1)
    wald = g_estimate(data, RawInstruments(), None, iv, CONST)
    assert_allclose(eem.psi_hat, wald.psi_hat, rtol=1e-10)


def test_eem_estimate_index_scale_invariance():
    data = binary_z_dataset(n=300, seed=13)
    iv = BinaryLogisticIv.fit(data, C_LIN)
    beta = np.array([0.1, 0.2])
    base = g_estimate(data, ScaledInstrument(C_LIN, [0.5, 1.5]),
                      OutcomeModel(C_LIN, beta), iv, CONST)
    scaled = g_estimate(data, ScaledInstrument(C_LIN, [0.5 * 37.0, 1.5 * 37.0]),
                        OutcomeModel(C_LIN, beta), iv, CONST)
    assert_allclose(base.psi_hat, scaled.psi_hat, rtol=1e-10)


def test_eem_estimate_never_worse_than_naive_configuration():
    for dseed in (21, 22, 23):
        data = gen_table1(0, 0, 0, 500, dseed).dataset
        iv = BinaryLogisticIv.fit(data, C_LIN)
        res = eem_estimate(data, iv, C_LIN, C_LIN)
        fit = res.nuisance["eem"]
        naive = eem_objective(data, iv, np.array([1.0, 0.0]), np.zeros(2),
                              fit.preliminary_psi, C_LIN, C_LIN)
        assert fit.objective_value <= naive + 1e-8


def test_eem_estimate_evaluates_each_basis_once(monkeypatch):
    # E(z|C) (the instrument basis), the index basis and the outcome basis:
    # the preliminary estimate is solved from the arrays eem already holds
    data = gen_table1(1, 0, 0, 400, 24).dataset
    quad = BasisSpec(["1", "c0", "c0^2"])
    iv = BinaryLogisticIv.fit(data, C_LIN)
    evaluate, calls = BasisSpec._evaluate, []

    def spy(basis, z, c):
        calls.append(basis.labels())
        return evaluate(basis, z, c)

    monkeypatch.setattr(BasisSpec, "_evaluate", spy)
    res = eem_estimate(data, iv, C_LIN, quad)
    assert calls == [["1", "c0"], ["1", "c0"], ["1", "c0", "c0^2"]]
    monkeypatch.undo()
    # the default preliminary estimate is g_estimate's e=Z estimate, bit for bit
    prelim = g_estimate(data, RawInstruments(), OutcomeModel(quad), iv, CONST).psi
    assert res.nuisance["eem"].preliminary_psi == prelim


# ---------------------------------------------------------------------------
# BR-gamma
# ---------------------------------------------------------------------------

def test_br_gamma_score_identity_on_converged_fits():
    for dseed in (31, 32, 33, 34):
        data = gen_table1(1, 1, -1, 500, dseed).dataset
        res = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN)
        br = res.diagnostics["br_fit"]
        if br.converged:
            assert br.score_identity_norm <= 1e-6


def test_br_gamma_outcome_model_cancels_exactly():
    data = gen_table1(1, 0, 0, 500, 35).dataset
    res = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN)
    d = res.diagnostics["influence"]  # influence = d * (y - psi x) / mean(d x)
    # rebuild the raw centered index from the influence normalisation
    # and check the estimate is invariant to any injected outcome coefficients
    by = build_design(data, C_LIN)
    alpha = res.nuisance["index_coef"]
    fit = res.nuisance["extended_fit"]
    # reconstruct centred index: e(C) * (z - p_ext)
    from lineariv.glm import expit
    kept = res.diagnostics["extension_columns_kept"]
    e_scale = build_design(data, C_LIN) @ alpha
    ext = (e_scale[:, None] * by)[:, kept]
    design = np.column_stack([build_design(data, C_LIN), ext])
    p_ext = expit(design @ fit.coefficients)
    dvec = e_scale * (data.z[:, 0] - p_ext)
    denom = float(dvec @ data.x)
    for beta in (np.array([0.0, 0.0]), np.array([3.0, -1.5]), np.array([-10.0, 4.0])):
        psi_b = float(dvec @ (data.y - by @ beta)) / denom
        assert psi_b == pytest.approx(res.psi_hat[0], abs=1e-10)


def test_br_gamma_collinear_extension_reduces_to_plain_g():
    data = gen_table1(0, 0, 0, 400, 36).dataset
    res = br_gamma_estimate(data, C1, C_LIN, C_LIN)
    # intercept-only index: extension = const * (1, v), collinear with the
    # instrument-model design, so everything is dropped and the estimator is
    # the plain maximum-likelihood G-estimator without an outcome model
    assert res.diagnostics["extension_columns_kept"] == []
    iv = BinaryLogisticIv.fit(data, C_LIN)
    plain = g_estimate(data, RawInstruments(), None, iv, CONST)
    assert_allclose(res.psi_hat, plain.psi_hat, rtol=1e-10)


# ---------------------------------------------------------------------------
# BR-beta
# ---------------------------------------------------------------------------

def test_br_beta_full_solve_gradient_identity():
    for dseed in (41, 42, 43, 44):
        data = gen_table1(1, 1, -1, 500, dseed).dataset
        res = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="full_solve")
        assert res.diagnostics["br_fit"].score_identity_norm <= 1e-6


def test_br_beta_one_step_close_to_full_solve_when_stable():
    data = gen_table1(0, 0, 0, 500, 45).dataset
    one = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="one_step")
    full = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="full_solve")
    assert abs(one.psi_hat[0] - full.psi_hat[0]) < 0.05
    assert np.isfinite(one.diagnostics["br_fit"].score_identity_norm)


def test_br_beta_keeps_only_extension_columns_fit_ols_accepts():
    # sim1 replicate 4: the second extension column raises no rank with every
    # column at unit norm (smallest/largest singular value 2.4e-11), so it is
    # not kept; fit_ols, which runs the same test, would reject the design
    # with it, and br-beta returns an estimate
    data = generate(ScenarioConfig("sim1", n=500, seed=777, reps=2), 4).dataset
    res = br_beta_estimate(data, C_LIN, BasisSpec(["1", "c0", "c0^2"]), C_LIN)
    assert res.nuisance["extension_columns"] == [0]
    assert np.isfinite(res.psi)


@pytest.mark.parametrize("n, seed", [(2000, 1), (25000, 12)])
def test_br_beta_fits_every_extension_column_it_keeps(n, seed):
    # sim1's instrument does not depend on C, so the extension lies almost in
    # the span of the outcome basis.  Both columns are kept: the design's raw
    # condition is 1.4e10 and 2.2e10, above fit_ols's 1e10, but with unit-norm
    # columns 7.1e8 and 1.2e9, and fit_ols judges those as _extend does
    data = gen_sim1(n, seed).dataset
    res = br_beta_estimate(data, C_LIN, BasisSpec(["1", "c0", "c0^2"]), C_LIN)
    assert res.nuisance["extension_columns"] == [0, 1]
    assert np.isfinite(res.psi)


def test_br_beta_start_value_agnostic_at_fixed_point():
    data = gen_table1(0, 1, 0, 500, 46).dataset
    full = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="full_solve")
    redo = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="one_step",
                            start_psi=full.psi_hat[0])
    assert_allclose(redo.psi_hat, full.psi_hat, rtol=1e-8)


def test_br_monotone_improvement_under_full_misspecification():
    """On every extreme-design sign combination the bias-reduced outcome fit
    beats plain variance-minimised estimation on absolute bias."""
    from itertools import product
    from lineariv.simlab import ScenarioConfig, run_monte_carlo
    from lineariv.suites import table1_estimators

    for lam in product((1, -1), repeat=3):
        cfg = ScenarioConfig("extreme", n=500, seed=4711, reps=300, lam=lam)
        rep = run_monte_carlo(cfg, table1_estimators())
        eem_bias = abs(rep.summaries["eem"].bias[0])
        brb_bias = abs(rep.summaries["br_beta"].bias[0])
        assert brb_bias < eem_bias, f"lam={lam}: {brb_bias:.3f} vs {eem_bias:.3f}"


# ---------------------------------------------------------------------------
# Shared nuisance fits
# ---------------------------------------------------------------------------

def _count_member_fits(monkeypatch) -> list:
    """Counts binary fits as members of the stacked IRLS kernel: a stack of
    B designs counts B fits, and fit_binary (a stack of one) counts one."""
    import lineariv.glm

    calls = []
    kernel = lineariv.glm._irls

    def counting(design, *args, **kwargs):
        calls.extend([1] * design.shape[0])
        return kernel(design, *args, **kwargs)

    monkeypatch.setattr(lineariv.glm, "_irls", counting)
    return calls


def test_table1_bundle_replicate_makes_three_binary_fits(monkeypatch):
    from lineariv.simlab import ScenarioConfig, generate
    from lineariv.suites import table1_estimators

    calls = _count_member_fits(monkeypatch)
    data = generate(ScenarioConfig("table1", n=500, seed=555, reps=2, lam=(1, 1, -1)), 0).dataset
    for estimator in table1_estimators().values():
        estimator(data)
    # the plain instrument fit, then br_gamma's two extended fits
    assert len(calls) == 3


def test_bundle_shares_fits_per_dataset_not_per_thread(monkeypatch):
    from lineariv.simlab import ScenarioConfig, generate
    from lineariv.suites import table1_estimators

    calls = _count_member_fits(monkeypatch)
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=2, lam=(1, 1, -1))
    a, b = generate(cfg, 0).dataset, generate(cfg, 1).dataset
    bundle = table1_estimators()
    first = {name: estimator(a) for name, estimator in bundle.items()}
    for data in (b, a):
        for estimator in bundle.values():
            estimator(data)
    # three fits each for A and B; returning to A reuses A's fits, and each
    # call hands out a fresh copy of the estimate
    assert len(calls) == 6
    for name in bundle:
        again = bundle[name](a)
        assert again is not first[name] and again.tobytes() == first[name].tobytes()


def test_bundle_estimate_written_into_leaves_the_next_call_alone():
    from lineariv.suites import table1_estimators

    data = gen_table1(0, 0, 0, 500, 1).dataset
    bundle = table1_estimators()
    for name, estimator in bundle.items():
        first = estimator(data)
        original = first.copy()
        first[0] = 99.0
        again = estimator(data)
        assert again.tobytes() == original.tobytes(), name
        assert not np.shares_memory(again, first)


@pytest.mark.parametrize("factor", [1e-5, 1e-3, 1e3, 1e5])
def test_br_gamma_does_not_depend_on_the_covariate_scale(factor):
    # the bases (1, c0) span the same functions of c0 at every scale, so only
    # rounding and the IRLS tolerance may move psi
    for seed in range(10):
        data = gen_table1(0, 0, 0, 500, seed).dataset
        scaled = Dataset(data.y, data.x, data.z, data.c_raw * factor)
        psi = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN).psi
        assert br_gamma_estimate(scaled, C_LIN, C_LIN, C_LIN).psi == pytest.approx(psi, rel=1e-8)


@pytest.mark.parametrize("factor", [1e-5, 1e-3, 1e3, 1e5])
def test_table1_bundle_does_not_depend_on_the_covariate_scale(factor):
    # every basis of the bundle is (1, c0) or its products with z0, which span
    # the same functions at every scale
    from lineariv.suites import table1_estimators

    for seed in range(10):
        data = gen_table1(0, 0, 0, 500, seed).dataset
        scaled = Dataset(data.y, data.x, data.z, data.c_raw * factor)
        bundle = table1_estimators()
        for name in ("tsls", "loc_eff", "eem", "br_gamma", "br_beta"):
            psi = bundle[name](data)[0]
            assert bundle[name](scaled)[0] == pytest.approx(psi, rel=1e-8), (seed, name)


def _spy_irls_widths(monkeypatch) -> list:
    """Records the design width of each call of the IRLS kernel, which every
    binary fit, the bias-reduced ones included, runs."""
    import lineariv.glm

    widths = []
    kernel = lineariv.glm._irls

    def spy(design, *args, **kwargs):
        widths.append(design.shape[-1])
        return kernel(design, *args, **kwargs)

    monkeypatch.setattr(lineariv.glm, "_irls", spy)
    return widths


def test_br_beta_default_start_fits_plain_iv_once(monkeypatch):
    expected = br_beta_estimate(gen_table1(0, 1, 0, 400, 47).dataset, C_LIN, C_LIN, C_LIN,
                                start_psi=br_gamma_estimate(gen_table1(0, 1, 0, 400, 47).dataset,
                                                            C_LIN, C_LIN, C_LIN).psi)
    widths = _spy_irls_widths(monkeypatch)
    data = gen_table1(0, 1, 0, 400, 47).dataset
    res = br_beta_estimate(data, C_LIN, C_LIN, C_LIN)
    # one plain logistic fit on (1, c0); the default start adds only the
    # extended fits of the bias-reduced instrument model
    assert widths.count(2) == 1
    assert res.psi_hat[0] == expected.psi_hat[0]
    br_beta_estimate(data, C_LIN, C_LIN, C_LIN, update="full_solve")
    assert widths.count(2) == 1


def test_br_estimates_unchanged_by_shared_plain_fit():
    def fresh():
        return gen_table1(1, 1, -1, 500, 48).dataset

    iv = BinaryLogisticIv.fit(fresh(), C_LIN)
    gamma_first = fresh()
    own = br_gamma_estimate(gamma_first, C_LIN, C_LIN, C_LIN)
    own_b = br_beta_estimate(fresh(), C_LIN, C_LIN, C_LIN, start_psi=own.psi)
    shared_b = br_beta_estimate(gamma_first, C_LIN, C_LIN, C_LIN, start_psi=own.psi)
    assert shared_b.psi_hat[0] == own_b.psi_hat[0]
    beta_first = fresh()
    br_beta_estimate(beta_first, C_LIN, C_LIN, C_LIN)
    shared = br_gamma_estimate(beta_first, C_LIN, C_LIN, C_LIN)
    assert shared.psi_hat[0] == own.psi_hat[0]
    for res in (own, shared, own_b, shared_b):
        assert res.nuisance["iv_plain"].coef.tobytes() == iv.coef.tobytes()


def test_br_pair_shares_one_plain_fit_per_dataset(monkeypatch):
    data = gen_table1(1, 1, -1, 500, 48).dataset
    widths = _spy_irls_widths(monkeypatch)
    brg = br_gamma_estimate(data, C_LIN, C_LIN, C_LIN)
    brb = br_beta_estimate(data, C_LIN, C_LIN, C_LIN)
    # the plain logistic fit on (1, c0) and br_gamma's two extended fits (e(C)
    # is in the span of (1, c0), e(C) * c0 is not); br_beta reads the plain
    # fit and its start value from the same record
    assert widths == [2, 3, 3]
    assert brg.nuisance["iv_plain"].coef.tobytes() == brb.nuisance["iv_plain"].coef.tobytes()
    assert brg.nuisance["iv_plain"].coef is not brb.nuisance["iv_plain"].coef
    own_start = br_beta_estimate(data, C_LIN, C_LIN, C_LIN, start_psi=float(brg.psi_hat[0]))
    assert own_start.psi_hat[0] == brb.psi_hat[0]
    assert widths == [2, 3, 3]


# ---------------------------------------------------------------------------
# One degeneracy rule for every estimating equation
# ---------------------------------------------------------------------------

def _nearly_orthogonal_exposure(ratio):
    """table1 (1,1,-1), n=500, with the exposure made orthogonal to the index
    columns (z - P)(1, c0) of the plain instrument fit, plus a multiple of one
    of their combinations whose norm is ``ratio`` times the remainder's."""
    d = gen_table1(1, 1, -1, 500, [555, 2]).dataset
    prob = BinaryLogisticIv.fit(d, C_LIN).prob(d)
    cols = (d.z[:, 0] - prob)[:, None] * np.column_stack([np.ones(d.n), d.c_raw[:, 0]])
    x_o = d.x - cols @ np.linalg.lstsq(cols, d.x, rcond=None)[0]
    u = cols @ np.array([1.0, 0.5])
    return Dataset(d.y, x_o + ratio * np.linalg.norm(x_o) / np.linalg.norm(u) * u, d.z, d.c_raw)


@pytest.mark.parametrize("ratio, identified", [
    (1e-12, False), (1e-9, False), (1e-8, False), (1e-7, False), (1e-5, True),
])
def test_one_step_br_beta_full_solve_and_eem_take_one_degeneracy_decision(ratio, identified):
    # the same scalar equation sum d(y - psi x) = 0: one-step br-beta once
    # returned psi ~ 1e6 here, where full_solve and eem raised
    data = _nearly_orthogonal_exposure(ratio)
    calls = {
        "one_step": lambda: br_beta_estimate(data, C_LIN, C_LIN, C_LIN, start_psi=0.5),
        "eem": lambda: eem_estimate(data, BinaryLogisticIv.fit(data, C_LIN), C_LIN, C_LIN,
                                    preliminary_psi=0.5),
    }
    if identified:
        for call in calls.values():
            assert np.isfinite(call().psi)
        return
    calls["full_solve"] = lambda: br_beta_estimate(data, C_LIN, C_LIN, C_LIN,
                                                   update="full_solve", start_psi=0.5)
    for call in calls.values():
        with pytest.raises(WeakIdentificationError, match="degenerate"):
            call()


@pytest.mark.parametrize("factor", [1e3, 1e-3])
def test_bias_reduced_pair_does_not_depend_on_covariate_units(factor):
    # the outcome basis carries the c0^2 column; the shared rule judges every
    # equation in its parameters' units, so no scale of c0 fails it
    quad = BasisSpec(["1", "c0", "c0^2"])
    for seed in range(10):
        d = gen_table1(0, 0, 0, 500, seed).dataset
        data = Dataset(d.y, d.x, d.z, factor * d.c_raw)
        assert np.isfinite(br_gamma_estimate(data, C_LIN, quad, C_LIN).psi)
        assert np.isfinite(br_beta_estimate(data, C_LIN, quad, C_LIN).psi)
