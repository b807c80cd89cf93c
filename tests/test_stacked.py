"""Stacked Monte Carlo replicates: the chunk kernels against the per-dataset path."""

import numpy as np
import pytest

import lineariv.suites
from lineariv import Dataset, EstimationError, simlab
from lineariv.adaptive import COLLINEARITY_TOL, _drop_collinear
from lineariv.errors import SingularDesignError, WeakIdentificationError
from lineariv.estimators import _solve_ee
from lineariv.glm import _irls, _lstsq, fit_binary, fit_ols
from lineariv.simlab import ScenarioConfig, generate, run_monte_carlo
from lineariv.stacked import table1_point_estimates
from lineariv.suites import TABLE1_ROWS, table1_estimators

KNOWN_COEF = np.array([-1.0, 0.5])


def _outcomes(bundle, data):
    """Each estimate as float.hex strings, or (class, message) of its error."""
    out = {}
    for name, estimator in bundle.items():
        try:
            out[name] = [float(v).hex() for v in estimator(data)]
        except EstimationError as err:
            out[name] = (type(err).__name__, str(err))
    return out


def _per_dataset(monkeypatch, datasets, iv_known_coef=None):
    """The bundle's outcomes through the per-dataset estimators alone."""
    with monkeypatch.context() as m:
        m.setattr(lineariv.suites, "table1_point_estimates", lambda ds, coef=None: [None] * len(ds))
        bundle = table1_estimators(iv_known_coef)
        return [_outcomes(bundle, data) for data in datasets]


def _replicates(generator, lam, n, seed, reps):
    cfg = ScenarioConfig(generator, n=n, seed=seed, reps=max(reps, 2), lam=lam)
    return [generate(cfg, i).dataset for i in range(reps)]


CASES = ([("table1", lam, 500, 555, 3, None) for lam in TABLE1_ROWS]
         + [("extreme", (1, -1, -1), 500, 227, 6, None),
            ("table1", (1, 1, -1), 500, 555, 6, KNOWN_COEF),
            ("extreme", (1, -1, -1), 500, 227, 4, KNOWN_COEF),
            ("table1", (1, 1, 0), 8000, 20260809, 2, None)])


@pytest.mark.parametrize("generator, lam, n, seed, reps, known", CASES)
def test_stacked_bundle_bit_identical_to_per_dataset(monkeypatch, generator, lam, n, seed, reps,
                                                     known):
    datasets = _replicates(generator, lam, n, seed, reps)
    expected = _per_dataset(monkeypatch, datasets, known)
    got = table1_point_estimates(datasets, known)
    assert all(member is not None for member in got)
    assert [{name: [float(v).hex() for v in value] for name, value in member.items()}
            for member in got] == expected


def _report_bytes(tmp_path, tag):
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=16, lam=(1, 1, -1))
    report = run_monte_carlo(cfg, table1_estimators())
    simlab.write_report_csv([report], tmp_path / f"{tag}.csv")
    simlab.write_report_json([report], tmp_path / f"{tag}.json")
    return (tmp_path / f"{tag}.csv").read_bytes() + (tmp_path / f"{tag}.json").read_bytes()


def test_reports_byte_identical_across_chunk_sizes(tmp_path, monkeypatch):
    reports = []
    for size in (1, 7, 16):
        monkeypatch.setattr(simlab, "CHUNK_BYTES", size * simlab.ROW_BYTES * 500)
        assert simlab._chunk_size(500) == size
        reports.append(_report_bytes(tmp_path, f"chunk{size}"))
    assert reports[0] == reports[1] == reports[2]


def test_chunk_size_follows_the_byte_cap():
    assert simlab._chunk_size(500) == 8
    assert simlab._chunk_size(8000) == 1


def test_degenerate_member_falls_back_without_failing_its_chunk(monkeypatch):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 5)
    bad = datasets[2]
    # a constant covariate: every (1, c0) design is rank deficient
    datasets[2] = Dataset(bad.y, bad.x, bad.z, np.ones_like(bad.c_raw))
    expected = _per_dataset(monkeypatch, datasets)
    assert all(isinstance(value, tuple) for value in expected[2].values())

    # only the degenerate member reaches the per-dataset estimators
    calls = []
    tsls = lineariv.suites.standard_tsls
    monkeypatch.setattr(lineariv.suites, "standard_tsls",
                        lambda data, *args: calls.append(data) or tsls(data, *args))
    linked = [Dataset(ds.y, ds.x, ds.z, ds.c_raw) for ds in datasets]
    Dataset.link(linked)
    bundle = table1_estimators()
    assert [_outcomes(bundle, data) for data in linked] == expected
    assert calls == [linked[2]]


def test_one_failing_estimator_fails_only_itself_and_its_dependants(monkeypatch):
    def failing(*args, **kwargs):
        raise WeakIdentificationError("forced failure")

    computed = []
    tsls = lineariv.suites.standard_tsls
    monkeypatch.setattr(lineariv.suites, "standard_tsls",
                        lambda *args: computed.append(1) or tsls(*args))
    monkeypatch.setattr(lineariv.suites, "br_beta_estimate", failing)
    # the per-dataset estimators, where br_beta_estimate is called
    monkeypatch.setattr(lineariv.suites, "table1_point_estimates",
                        lambda ds, coef=None: [None] * len(ds), raising=False)
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=3, lam=(1, 1, -1))
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 0, "loc_eff": 0, "eem": 0, "br_gamma": 0, "br_beta": 3}
    assert len(computed) == 3           # the bundle ran once per replicate

    # an estimate fails with a fit it uses: eem needs tsls, br_beta needs br_gamma
    monkeypatch.setattr(lineariv.suites, "standard_tsls", failing)
    monkeypatch.setattr(lineariv.suites, "br_gamma_estimate", failing)
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 3, "loc_eff": 0, "eem": 3, "br_gamma": 3, "br_beta": 3}


def test_other_bundles_fail_per_estimator(monkeypatch):
    def failing(*args, **kwargs):
        raise WeakIdentificationError("forced failure")

    monkeypatch.setattr(lineariv.suites, "locally_efficient_y", failing)
    cfg = ScenarioConfig("sim1", n=500, seed=777, reps=2)
    report = run_monte_carlo(cfg, lineariv.suites.sim_binary_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 0, "ts": 0, "le_y_c": 2, "le_y_m": 2, "dr_cc": 0, "dr_cm": 0,
                      "dr_mm": 0}

    monkeypatch.setattr(lineariv.suites, "plug_in_two_stage", failing)
    cfg = ScenarioConfig("effectmod", n=500, seed=20260809, reps=2)
    report = run_monte_carlo(cfg, lineariv.suites.effectmod_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls_c": 0, "tsls_m": 0, "ts_c": 2, "ts_m": 2}


# ---------------------------------------------------------------------------
# Stacked kernels: a degenerate member is reported, the others are unaffected
# ---------------------------------------------------------------------------

def _designs(seed, b=4, n=300, p=3):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((b, n, p))
    design[:, :, 0] = 1.0
    return rng, design


def test_lstsq_reports_a_deficient_member():
    rng, design = _designs(1)
    design[1, :, 2] = design[1, :, 1]
    response = rng.standard_normal(design.shape[:2])
    fit = _lstsq(design, response)
    assert fit.deficient == [False, True, False, False]
    assert np.isnan(fit.coef[1]).all()
    with pytest.raises(SingularDesignError):
        fit_ols(design[1], response[1])
    for k in (0, 2, 3):
        assert np.array_equal(fit.coef[k], fit_ols(design[k], response[k]).coefficients)


def test_irls_reports_a_singular_member():
    rng, design = _designs(2)
    design[3, :, 2] = design[3, :, 1]
    y = (rng.random(design.shape[:2]) < 0.4).astype(float)
    fit = _irls(design, y, "logit")
    with pytest.raises(SingularDesignError) as err:
        fit_binary(design[3], y[3])
    assert fit.singular[:3] == [None, None, None] and fit.singular[3] == err.value.condition
    for k in range(3):
        own = fit_binary(design[k], y[k])
        assert np.array_equal(fit.coef[k], own.coefficients)
        assert (fit.iterations[k], fit.loglik[k], fit.traces[k]) == (
            own.iterations, own.log_likelihood, own.loglik_trace)


def test_irls_member_whose_halvings_run_out_follows_its_own_fit(monkeypatch):
    # a mean function that disagrees with the logit score for |eta| >= 0.7, so
    # some members' steps fail all 40 halvings and take the untried length
    from scipy.special import expit

    import lineariv.glm

    monkeypatch.setitem(lineariv.glm._LINK_MEANS, "logit",
                        lambda eta: np.where(np.abs(eta) < 0.7, expit(eta), expit(-eta)))
    rng = np.random.default_rng(0)
    design = rng.standard_normal((6, 60, 2)) * rng.uniform(0.5, 6, size=(6, 1, 2))
    design[:, :, 0] = 1.0
    y = (rng.random((6, 60)) < 0.5).astype(float)
    fit = _irls(design, y, "logit", max_iter=20)
    assert any(fit.exhausted) and not all(fit.exhausted)
    for k in range(6):
        own = fit_binary(design[k], y[k], max_iter=20)
        assert np.array_equal(fit.coef[k], own.coefficients)
        assert (fit.iterations[k], fit.score_norm[k], fit.traces[k]) == (
            own.iterations, own.score_norm, own.loglik_trace)


def test_solve_ee_gives_a_degenerate_member_a_nan_row():
    rng, index = _designs(3, p=2)
    regressors = index + 0.1 * rng.standard_normal(index.shape)
    response = rng.standard_normal(index.shape[:2])
    index[0, :, 1] = 0.0
    theta, cond = _solve_ee(index, regressors, response, "test")
    assert np.isnan(theta[0]).all()
    with pytest.raises(WeakIdentificationError):
        _solve_ee(index[0], regressors[0], response[0], "test")
    for k in (1, 2, 3):
        own, own_cond = _solve_ee(index[k], regressors[k], response[k], "test")
        assert np.array_equal(theta[k], own) and cond[k] == own_cond


def _lstsq_keeps(base, extension):
    """The column-by-column ``np.linalg.lstsq`` rule ``_drop_collinear`` implements."""
    kept, current = [], base
    for j in range(extension.shape[1]):
        col = extension[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        coef, *_ = np.linalg.lstsq(current, col, rcond=None)
        if np.linalg.norm(col - current @ coef) > COLLINEARITY_TOL * norm:
            kept.append(j)
            current = np.column_stack([current, col])
    return kept


def test_drop_collinear_of_one_dataset_is_the_lstsq_rule():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n, p, q = 40, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        base = rng.standard_normal((n, p))
        if trial % 4 == 0 and p > 1:
            base[:, -1] = base[:, 0]                      # a rank-deficient base
        # columns in the span of the base, or off it by 1e-4 or 1e-12, or zero
        extension = base @ rng.standard_normal((p, q))
        extension += rng.choice([0.0, 1e-4, 1e-12], size=q) * rng.standard_normal((n, q))
        extension[:, rng.random(q) < 0.1] = 0.0
        kept, cols, agree = _drop_collinear(base[None], extension[None])
        assert cols == _lstsq_keeps(base, extension) and agree == [True]
        assert np.array_equal(kept[0], extension[:, cols])


def test_drop_collinear_flags_members_that_disagree_with_the_stack():
    rng, base = _designs(3, p=2)
    extension = base * rng.standard_normal((4, 300, 1))
    extension[2] = 2.0 * base[2]                          # in the span of its base
    kept, cols, agree = _drop_collinear(base, extension)
    assert cols == [0, 1] and agree == [True, True, False, True]
    assert _drop_collinear(base[2:3], extension[2:3])[1] == []
    for k in (0, 1, 3):
        own = _drop_collinear(base[k:k + 1], extension[k:k + 1])
        assert own[1] == [0, 1] and np.array_equal(own[0][0], kept[k])


def test_drop_collinear_projects_on_the_numerical_range_of_a_deficient_base():
    rng, base = _designs(5, b=1)
    base[0, :, 2] = base[0, :, 1]
    u = np.linalg.svd(base[0], full_matrices=False)[0]
    # off the span only along the singular vector of the zero singular value
    col = base[0] @ rng.standard_normal(3) + 1e-4 * u[:, 2]
    extension = col[None, :, None]
    assert _lstsq_keeps(base[0], extension[0]) == [0]
    assert _drop_collinear(base, extension)[1] == [0]
