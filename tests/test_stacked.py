"""Stacked Monte Carlo replicates: the chunk kernels against the per-dataset path."""

import numpy as np
import pytest

import lineariv.adaptive
import lineariv.stacked
import lineariv.suites
from lineariv import BasisSpec, BinaryLogisticIv, Dataset, EstimationError, dataset, simlab
from lineariv.adaptive import br_gamma_estimate
from lineariv.inference import conservative_se_brgamma
from lineariv.rng import make_generator
from lineariv.adaptive import _drop_collinear, _extend
from lineariv.errors import SingularDesignError, WeakIdentificationError
from lineariv.estimators import _solve_ee
from lineariv.glm import RANK_RTOL, _irls, _lstsq, expit, fit_binary, fit_ols
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
        monkeypatch.setattr(dataset, "CHUNK_BYTES", size * dataset.ROW_BYTES * 500)
        assert dataset._chunk_size(500) == size
        reports.append(_report_bytes(tmp_path, f"chunk{size}"))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("generator, lam, seed, bundle", [
    ("sim1", None, 777, lineariv.suites.sim_binary_estimators),
    ("sim2", None, 777, lineariv.suites.sim_binary_estimators),
    ("effectmod", None, 20260809, lineariv.suites.effectmod_estimators),
    ("extreme", (1, -1, -1), 227, table1_estimators)])
def test_every_family_reports_byte_identical_across_chunk_sizes(tmp_path, monkeypatch, generator,
                                                                 lam, seed, bundle):
    cfg = ScenarioConfig(generator, n=500, seed=seed, reps=16, lam=lam)
    reports = []
    for size in (1, 7, None):                   # None: the default cap, 8 at n=500
        with monkeypatch.context() as m:
            if size is not None:
                m.setattr(dataset, "CHUNK_BYTES", size * dataset.ROW_BYTES * 500)
            assert dataset._chunk_size(500) == (size or 8)
            report = run_monte_carlo(cfg, bundle())
        simlab.write_report_csv([report], tmp_path / f"{size}.csv")
        simlab.write_report_json([report], tmp_path / f"{size}.json")
        reports.append((tmp_path / f"{size}.csv").read_bytes()
                       + (tmp_path / f"{size}.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_chunk_size_follows_the_byte_cap():
    assert dataset._chunk_size(500) == 8
    assert dataset._chunk_size(1000) == 4
    assert dataset._chunk_size(8000) == 1


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


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_irls_members_bit_identical_to_stacks_of_one(link):
    # a weak member that leaves the stack early, two stronger ones and a
    # separated one whose coefficients run past SEPARATION_NORM
    rng = np.random.default_rng(5)
    design = np.empty((4, 200, 3))
    design[:, :, 0] = 1.0
    design[:, :, 1:] = rng.standard_normal((4, 200, 2))
    design[2, :, 1] *= 0.01
    y = np.empty((4, 200))
    for k, coef in enumerate(([0.1, 0.05, 0.0], [-0.5, 1.5, -2.0], None, [0.3, 3.0, 1.0])):
        y[k] = design[k, :, 1] > 0 if coef is None else rng.random(200) < expit(design[k] @ coef)
    fit = _irls(design, y, link)
    assert fit.iterations[0] < min(fit.iterations[1:])
    assert fit_binary(design[2], y[2], link=link).separation
    for k in range(4):
        own = _irls(design[k:k + 1], y[k:k + 1], link)
        assert np.array_equal(fit.coef[k], own.coef[0])
        assert (fit.iterations[k], fit.score_norm[k], fit.loglik[k], fit.traces[k],
                fit.exhausted[k]) == (own.iterations[0], own.score_norm[0], own.loglik[0],
                                      own.traces[0], own.exhausted[0])


def test_solve_ee_gives_a_degenerate_member_a_nan_row():
    rng, index = _designs(3, p=2)
    regressors = index + 0.1 * rng.standard_normal(index.shape)
    response = rng.standard_normal(index.shape[:2])
    index[0, :, 1] = 0.0
    theta, cond, errors = _solve_ee(index, regressors, response, "test")
    assert np.isnan(theta[0]).all()
    assert isinstance(errors[0], WeakIdentificationError) and errors[1:] == [None] * 3
    own_error = _solve_ee(index[:1], regressors[:1], response[:1], "test")[2][0]
    assert str(own_error) == str(errors[0]) and own_error.condition == errors[0].condition
    for k in (1, 2, 3):
        own, own_cond, _ = _solve_ee(index[k:k + 1], regressors[k:k + 1], response[k:k + 1], "test")
        assert np.array_equal(theta[k], own[0]) and cond[k] == own_cond[0]


def _rank_keeps(base, extension):
    """The rank rule ``_drop_collinear`` implements: keep a column when it
    raises ``np.linalg.matrix_rank`` at fit_ols's tolerance RANK_RTOL * s_max."""
    def rank(design):
        return np.linalg.matrix_rank(design, tol=RANK_RTOL * np.linalg.norm(design, 2))

    kept, current = [], base
    for j in range(extension.shape[1]):
        trial = np.column_stack([current, extension[:, j]])
        if rank(trial) > rank(current):
            kept.append(j)
            current = trial
    return kept


def test_drop_collinear_of_one_dataset_is_the_rank_rule():
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
        assert cols == _rank_keeps(base, extension) and agree == [True]
        assert np.array_equal(kept[0], extension[:, cols])
        if np.linalg.matrix_rank(base, tol=RANK_RTOL * np.linalg.norm(base, 2)) == p:
            # on a full-rank base the extended design passes fit_ols's rank test
            design, extended = _extend(base[None], extension[None])
            assert extended == cols
            fit_ols(design[0], rng.standard_normal(n))


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
    assert _rank_keeps(base[0], extension[0]) == [0]
    assert _drop_collinear(base, extension)[1] == [0]


def test_drop_collinear_judges_an_extension_the_test_cannot_see_at_the_base_scale():
    rng, base = _designs(6, b=1)
    # a column in the span of the base and one off it
    extension = np.stack([base[0] @ rng.standard_normal(3), rng.standard_normal(300)], axis=-1)
    assert _drop_collinear(base, extension[None])[1] == [1]
    for scale in (1e-13, 1e13):
        # numerically zero against the base, or the base against it
        assert _rank_keeps(base[0], scale * extension) == []
        assert _drop_collinear(base, scale * extension[None])[1] == [1]


# ---------------------------------------------------------------------------
# br_gamma: bootstrap resamples of one dataset in a linked chunk
# ---------------------------------------------------------------------------

LIN = BasisSpec(["1", "c0"])
QUAD = BasisSpec(["1", "c0", "c0^2"])
BR_BASES = [(LIN, LIN, LIN), (LIN, QUAD, LIN), (QUAD, LIN, QUAD), (LIN, BasisSpec(["1"]), LIN)]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _br_fields(data, bases, refit, **kwargs):
    """Every field of br_gamma_estimate's result as float.hex, or its error."""
    try:
        res = br_gamma_estimate(data, *bases, refit_index=refit, **kwargs)
    except EstimationError as err:
        return type(err).__name__, str(err)
    fit, plain = res.nuisance["extended_fit"], res.nuisance["iv_plain"]
    return {"psi": _hex(res.psi_hat), "index_coef": _hex(res.nuisance["index_coef"]),
            "coefficients": _hex(fit.coefficients), "iterations": fit.iterations,
            "loglik_trace": _hex(fit.loglik_trace), "converged": fit.converged,
            "separation": fit.separation, "score_norm": _hex(fit.score_norm),
            "log_likelihood": _hex(fit.log_likelihood),
            "gamma_hat": _hex(res.diagnostics["br_fit"].gamma_hat),
            "kept": res.diagnostics["extension_columns_kept"],
            "score_identity_norm": _hex(res.diagnostics["br_fit"].score_identity_norm),
            "influence": _hex(res.diagnostics["influence"]),
            "plain": _hex(plain.coef), "plain_converged": plain.fit_converged,
            "conservative_se": _hex(conservative_se_brgamma(data, res)),
            "warning": res.diagnostics.get("warning")}


def _resamples(data, count, seed):
    return [data.take(make_generator([seed, b]).integers(0, data.n, size=data.n))
            for b in range(count)]


def _copies(datasets):
    return [Dataset(ds.y, ds.x, ds.z, ds.c_raw) for ds in datasets]


@pytest.mark.parametrize("lam, n", [((0, 0, 0), 300), ((1, 1, -1), 300), ((1, -1, -1), 120)])
@pytest.mark.parametrize("bases", BR_BASES)
@pytest.mark.parametrize("refit", [True, False])
def test_br_gamma_chunk_bit_identical_to_per_dataset(lam, n, bases, refit):
    datasets = _resamples(simlab.gen_table1(*lam, n, 40).dataset, 9, sum(lam) + n)
    # the per-dataset reference: a stack of one from a plain fit of its own
    expected = []
    for ds in _copies(datasets):
        try:
            plain = BinaryLogisticIv.fit(ds, bases[2])
        except EstimationError as err:
            expected.append((type(err).__name__, str(err)))
            continue
        expected.append(_br_fields(ds, bases, refit, iv_plain=plain))
    assert [_br_fields(ds, bases, refit) for ds in _copies(datasets)] == expected
    Dataset.link(datasets)
    assert [_br_fields(ds, bases, refit) for ds in datasets] == expected


def test_br_gamma_degenerate_member_gets_its_own_error(monkeypatch):
    base = simlab.gen_table1(1, 1, -1, 300, 41).dataset
    datasets = _resamples(base, 6, 3)
    one_class, flat = datasets[2], datasets[4]
    datasets[2] = Dataset(one_class.y, one_class.x, np.zeros(base.n), one_class.c_raw)
    datasets[4] = Dataset(flat.y, flat.x, flat.z, np.ones_like(flat.c_raw))
    expected = [_br_fields(ds, (LIN, LIN, LIN), True) for ds in _copies(datasets)]
    assert expected[2] == ("DegenerateResponseError", "response must contain both classes")
    assert expected[4][0] == "WeakIdentificationError"

    sizes = []
    kernel = lineariv.adaptive._br_gamma_stack
    monkeypatch.setattr(lineariv.adaptive, "_br_gamma_stack",
                        lambda z, *args, **kw: sizes.append(len(z)) or kernel(z, *args, **kw))
    Dataset.link(datasets)
    assert [_br_fields(ds, (LIN, LIN, LIN), True) for ds in datasets] == expected
    # the class check flags one, the index fit the other, the other four are
    # fitted together and each degenerate member alone on its own call
    assert sizes == [6, 5, 4, 1, 1]


def test_br_gamma_calls_share_no_mutable_state():
    data = simlab.gen_table1(0, 0, 0, 200, 42).dataset
    first = br_gamma_estimate(data, LIN, LIN, LIN)
    before = _br_fields(data, (LIN, LIN, LIN), True)
    second = br_gamma_estimate(data, LIN, LIN, LIN)
    assert first.nuisance is not second.nuisance and first.diagnostics is not second.diagnostics
    assert first.diagnostics["br_fit"] is not second.diagnostics["br_fit"]
    arrays = [lambda r: r.nuisance["index_coef"], lambda r: r.diagnostics["influence"],
              lambda r: r.nuisance["extended_fit"].coefficients,
              lambda r: r.nuisance["iv_plain"].coef,
              lambda r: r.psi_hat]
    for get in arrays:
        assert not np.shares_memory(get(first), get(second))
        get(first)[...] = 0.0
    first.nuisance["extended_fit"].loglik_trace.append(0.0)
    first.diagnostics["extension_columns_kept"].append(7)
    assert _br_fields(data, (LIN, LIN, LIN), True) == before


# ---------------------------------------------------------------------------
# eem and br_beta: one degenerate member of a linked Table 1 chunk
# ---------------------------------------------------------------------------

def _orthogonal_exposure(data, prob):
    """``data`` with its exposure made orthogonal to the index columns
    (z - prob) * (1, c0), so that the index fitted on them is zero up to
    rounding and so is every estimating equation built on it."""
    lin = np.column_stack([np.ones(data.n), data.c_raw[:, 0]])
    cols = (data.z[:, 0] - prob)[:, None] * lin
    x = data.x - cols @ np.linalg.lstsq(cols, data.x, rcond=None)[0]
    return Dataset(data.y, x, data.z, data.c_raw)


def _kernel_sizes(monkeypatch, name):
    """Records the stack size of every call of the kernel ``name``, from the
    Table 1 stack and from the per-dataset estimators alike."""
    sizes = []
    kernel = getattr(lineariv.adaptive, name)

    def spy(z, *args, **kwargs):
        sizes.append(len(z))
        return kernel(z, *args, **kwargs)

    for module in (lineariv.adaptive, lineariv.stacked):
        monkeypatch.setattr(module, name, spy)
    return sizes


@pytest.mark.parametrize("estimator, kernel, message", [
    ("eem", "_eem_stack", "g_estimate: estimating-equation denominator is degenerate"),
    ("br_beta", "_br_beta_stack", "br_beta denominator"),
], ids=["eem", "br_beta"])
def test_eem_and_br_beta_degenerate_member_gets_its_own_error(monkeypatch, estimator, kernel,
                                                              message):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 6)
    data = datasets[2]
    lin = np.column_stack([np.ones(data.n), data.c_raw[:, 0]])
    # eem centers the instrument under the known law, br_beta under the plain fit
    prob = (expit(lin @ KNOWN_COEF) if estimator == "eem"
            else BinaryLogisticIv.fit(data, LIN).prob(data))
    datasets[2] = _orthogonal_exposure(data, prob)
    expected = _per_dataset(monkeypatch, datasets, KNOWN_COEF)
    # only the estimator under test fails, with its own error
    assert [name for name, value in expected[2].items() if isinstance(value, tuple)] == [estimator]
    assert expected[2][estimator][0] == "WeakIdentificationError"
    assert expected[2][estimator][1].startswith(message)

    sizes = _kernel_sizes(monkeypatch, kernel)
    linked = _copies(datasets)
    Dataset.link(linked)
    bundle = table1_estimators(KNOWN_COEF)
    assert [_outcomes(bundle, data) for data in linked] == expected
    # the chunk flags the member, the other five are computed together and the
    # member alone by the per-dataset estimator
    assert sizes == [6, 5, 1]
