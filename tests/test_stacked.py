"""Stacked Monte Carlo replicates: the chunk kernels against the per-dataset path."""

import numpy as np
import pytest

import lineariv.adaptive
import lineariv.estimators
import lineariv.suites
from lineariv import BasisSpec, BinaryLogisticIv, Dataset, EstimationError, dataset, simlab
from lineariv.adaptive import br_beta_estimate, br_gamma_estimate, eem_estimate, eem_fit_alpha
from lineariv.inference import conservative_se_brgamma
from lineariv.models import ExposureModel, OutcomeModel
from lineariv.rng import make_generator
from lineariv.adaptive import _br_gamma_stack, _drop_collinear, _extend
from lineariv.errors import (
    DegenerateResponseError,
    SingularDesignError,
    TermSpecError,
    WeakIdentificationError,
)
from lineariv.estimators import _solve_ee, efficient_index, g_estimate, standard_tsls
from lineariv.glm import (
    RANK_RTOL,
    _binary_fit,
    _check,
    _irls,
    _lstsq,
    expit,
    fit_binary,
    fit_ols,
)
from lineariv.simlab import ScenarioConfig, generate, run_monte_carlo
from lineariv.suites import (
    C_LIN,
    EFFECT_CONST,
    EXPOSURE_SATURATED,
    INSTRUMENTS_ZVZ,
    TABLE1_NAMES,
    TABLE1_ROWS,
    _attempt,
    _table1_stack,
    table1_estimators,
)

KNOWN_COEF = np.array([-1.0, 0.5])


def _reference(data, iv_known_coef=None) -> dict:
    """The Table 1 bundle through the public per-dataset estimators: each
    estimate, or the EstimationError it or a fit it uses raised."""
    out = {}
    _attempt(out, "tsls", lambda: standard_tsls(data, EFFECT_CONST, C_LIN, INSTRUMENTS_ZVZ).psi_hat)
    if iv_known_coef is not None:
        out["iv"] = BinaryLogisticIv.known(C_LIN, iv_known_coef)
    else:
        _attempt(out, "iv", lambda: BinaryLogisticIv.fit(data, C_LIN))
    _attempt(out, "exposure", lambda: ExposureModel("identity", EXPOSURE_SATURATED).fit(data))
    _attempt(out, "loc_eff", lambda iv, exposure: g_estimate(
        data, efficient_index(data, exposure, iv, EFFECT_CONST), OutcomeModel(C_LIN), iv,
        EFFECT_CONST).psi_hat, "iv", "exposure")
    _attempt(out, "eem", lambda iv, tsls: eem_estimate(
        data, iv, C_LIN, C_LIN, preliminary_psi=float(tsls[0])).psi_hat, "iv", "tsls")
    # the bias-reduced pair fits its own instrument law, even where loc_eff and eem know it
    _attempt(out, "br_gamma", lambda: br_gamma_estimate(data, C_LIN, C_LIN, C_LIN).psi_hat)
    _attempt(out, "br_beta", lambda brg: br_beta_estimate(
        data, C_LIN, C_LIN, C_LIN, start_psi=float(brg[0])).psi_hat, "br_gamma")
    return out


def _outcome(value):
    """An estimate as float.hex strings, or (class, message) of its error."""
    if isinstance(value, EstimationError):
        return type(value).__name__, str(value)
    return [float(v).hex() for v in value]


def _outcomes(bundle, data):
    out = {}
    for name, estimator in bundle.items():
        try:
            out[name] = _outcome(estimator(data))
        except EstimationError as err:
            out[name] = _outcome(err)
    return out


def _per_dataset(datasets, iv_known_coef=None):
    """The reference outcomes of unlinked copies of ``datasets``."""
    return [{name: _outcome(value) for name, value in _reference(data, iv_known_coef).items()
             if name in TABLE1_NAMES} for data in _copies(datasets)]


def _bundle_outcomes(datasets, iv_known_coef=None, linked=True):
    """The bundle's outcomes on copies of ``datasets``, linked as one chunk or not."""
    copies = _copies(datasets)
    if linked:
        Dataset.link(copies)
    bundle = table1_estimators(iv_known_coef)
    return [_outcomes(bundle, data) for data in copies]


def _replicates(generator, lam, n, seed, reps):
    cfg = ScenarioConfig(generator, n=n, seed=seed, reps=max(reps, 2), lam=lam)
    return [generate(cfg, i).dataset for i in range(reps)]


CASES = ([("table1", lam, 500, 555, 3, None) for lam in TABLE1_ROWS]
         + [("extreme", (1, -1, -1), 500, 227, 6, None),
            ("table1", (1, 1, -1), 500, 555, 6, KNOWN_COEF),
            ("extreme", (1, -1, -1), 500, 227, 4, KNOWN_COEF),
            ("table1", (1, 1, 0), 8000, 20260809, 2, None)])


@pytest.mark.parametrize("generator, lam, n, seed, reps, known", CASES)
def test_stacked_bundle_bit_identical_to_per_dataset(generator, lam, n, seed, reps, known):
    datasets = _replicates(generator, lam, n, seed, reps)
    expected = _per_dataset(datasets, known)
    # the whole stack at once, no member flagged, as in a chunk of the harness
    with np.errstate(all="ignore"):
        stack = _table1_stack(datasets, known)
    assert [{name: _outcome(value) for name, value in member.items()} for member in stack] == expected
    # each member as a stack of one, and the bundle, linked and unlinked
    assert [{name: _outcome(value) for name, value in _table1_stack([data], known)[0].items()}
            for data in datasets] == expected
    assert _bundle_outcomes(datasets, known) == expected
    assert _bundle_outcomes(datasets, known, linked=False) == expected


def _failing(first, *args, **kwargs):
    """A kernel whose check rejects every member of its stack."""
    _check([WeakIdentificationError("forced failure")] * len(first))


def _kernel_sizes(monkeypatch, name, *modules):
    """Records the stack size of every call of the kernel ``name`` of
    ``modules[0]``, called through any of ``modules``."""
    sizes = []
    kernel = getattr(modules[0], name)

    def spy(first, *args, **kwargs):
        sizes.append(len(first))
        return kernel(first, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return sizes


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
    expected = _per_dataset(datasets)
    assert all(isinstance(value, tuple) for value in expected[2].values())

    # only the degenerate member leaves the stack: tsls's check flags it, the
    # other four are computed together and it alone as a stack of one
    sizes = _kernel_sizes(monkeypatch, "_tsls_stack", lineariv.estimators, lineariv.suites)
    assert _bundle_outcomes(datasets) == expected
    assert sizes == [5, 4, 1]


def test_one_failing_estimator_fails_only_itself_and_its_dependants(monkeypatch):
    sizes = _kernel_sizes(monkeypatch, "_tsls_stack", lineariv.estimators, lineariv.suites)
    monkeypatch.setattr(lineariv.suites, "_br_beta_stack", _failing)
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=3, lam=(1, 1, -1))
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 0, "loc_eff": 0, "eem": 0, "br_gamma": 0, "br_beta": 3}
    # the chunk of three flags all three, and the bundle runs once more for
    # each of them alone, not once per estimator
    assert sizes == [3, 1, 1, 1]

    # an estimate fails with a fit it uses: eem needs tsls, br_beta needs br_gamma
    monkeypatch.setattr(lineariv.suites, "_tsls_stack", _failing)
    monkeypatch.setattr(lineariv.suites, "_br_gamma_stack", _failing)
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 3, "loc_eff": 0, "eem": 3, "br_gamma": 3, "br_beta": 3}


def _small(datasets, rows):
    return [Dataset(ds.y[:rows], ds.x[:rows], ds.z[:rows], ds.c_raw[:rows]) for ds in datasets]


def _degenerate(kind, datasets):
    data = datasets[2]
    if kind == "constant covariate":
        datasets[2] = Dataset(data.y, data.x, data.z, np.ones_like(data.c_raw))
    elif kind == "one-class instrument":
        datasets[2] = Dataset(data.y, data.x, np.zeros_like(data.z), data.c_raw)
    elif kind == "orthogonal exposure":
        datasets[2] = _orthogonal_exposure(data, BinaryLogisticIv.fit(data, LIN).prob(data))
    elif kind == "another size":
        datasets[2:3] = _small(datasets[2:3], 300)
    else:
        return _small(datasets, int(kind.split()[0]))
    return datasets


@pytest.mark.parametrize("known", [None, KNOWN_COEF], ids=["fitted", "known"])
@pytest.mark.parametrize("kind", ["constant covariate", "one-class instrument",
                                  "orthogonal exposure", "another size", "3 rows", "5 rows"])
def test_degenerate_members_and_odd_sizes_match_the_reference(kind, known):
    datasets = _degenerate(kind, _replicates("table1", (1, 1, -1), 500, 555, 6))
    with np.errstate(all="ignore"):
        expected = _per_dataset(datasets, known)
        assert _bundle_outcomes(datasets, known) == expected
        assert _bundle_outcomes(datasets, known, linked=False) == expected


@pytest.mark.parametrize("kind", ["two instruments", "continuous instrument", "no covariate"])
def test_inputs_outside_the_bundles_working_models_fail_every_estimate(kind):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 3)
    data = datasets[1]
    z = {"two instruments": np.column_stack([data.z, data.z]),
         "continuous instrument": data.z + 0.5 * data.c_raw}.get(kind, data.z)
    c_raw = np.empty((data.n, 0)) if kind == "no covariate" else data.c_raw
    datasets[1] = Dataset(data.y, data.x, z, c_raw)
    if kind == "no covariate":
        # as build_design raises it on every dataset without the covariate c0
        with pytest.raises(TermSpecError, match="covariate index 0 out of range"):
            _bundle_outcomes(datasets)
        return
    got = _bundle_outcomes(datasets)
    assert {value[0] for value in got[1].values()} == {"UnsupportedCombinationError"}
    assert got[0] == _per_dataset(datasets[:1])[0] and got[2] == _per_dataset(datasets[2:])[0]


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


def _br_fields(data, bases):
    """Every field of br_gamma_estimate's result as float.hex, or its error."""
    try:
        res = br_gamma_estimate(data, *bases)
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


ORACLE_FIELDS = ("psi", "index_coef", "coefficients", "iterations", "loglik_trace", "converged",
                 "separation", "score_norm", "log_likelihood", "kept", "plain", "plain_converged")


def _br_oracle(data, bases):
    """The fields ORACLE_FIELDS of :func:`_br_fields`, or the error, from a
    plain fit of its own, ``eem_fit_alpha`` under it and ``_br_gamma_stack``
    on a stack of one: br_gamma outside the dataset memo."""
    index_basis, outcome_basis, iv_basis = bases
    try:
        plain = BinaryLogisticIv.fit(data, iv_basis)
        alpha = eem_fit_alpha(data, plain, index_basis)
        fit = _br_gamma_stack(data.z[:, 0][None], data.x[None], data.y[None],
                              *(dataset.build_design(data, basis)[None]
                                for basis in (iv_basis, outcome_basis, index_basis)),
                              alpha[None])
    except EstimationError as err:
        return type(err).__name__, str(err)
    ext = _binary_fit(fit.extended, 0, "logit")
    return {"psi": _hex(fit.psi), "index_coef": _hex(fit.index_coef[0]),
            "coefficients": _hex(ext.coefficients), "iterations": ext.iterations,
            "loglik_trace": _hex(ext.loglik_trace), "converged": ext.converged,
            "separation": ext.separation, "score_norm": _hex(ext.score_norm),
            "log_likelihood": _hex(ext.log_likelihood), "kept": fit.kept,
            "plain": _hex(plain.coef), "plain_converged": plain.fit_converged}


@pytest.mark.parametrize("lam, n", [((0, 0, 0), 300), ((1, 1, -1), 300), ((1, -1, -1), 120)])
@pytest.mark.parametrize("bases", BR_BASES)
@pytest.mark.parametrize("linked", [True, False])
def test_br_gamma_chunk_bit_identical_to_per_dataset(lam, n, bases, linked):
    datasets = _resamples(simlab.gen_table1(*lam, n, 40).dataset, 9, sum(lam) + n)
    # unlinked, each dataset is a stack of one through the memo
    fields = [_br_fields(ds, bases) for ds in _copies(datasets)]
    if linked:
        # the linked chunk, fitted as one stack, equals them in every field
        Dataset.link(datasets)
        linked_fields = [_br_fields(ds, bases) for ds in datasets]
        assert linked_fields == fields
        fields = linked_fields
    assert [value if isinstance(value, tuple) else {key: value[key] for key in ORACLE_FIELDS}
            for value in fields] == [_br_oracle(ds, bases) for ds in _copies(datasets)]


def test_br_gamma_degenerate_member_gets_its_own_error(monkeypatch):
    base = simlab.gen_table1(1, 1, -1, 300, 41).dataset
    datasets = _resamples(base, 6, 3)
    one_class, flat = datasets[2], datasets[4]
    datasets[2] = Dataset(one_class.y, one_class.x, np.zeros(base.n), one_class.c_raw)
    datasets[4] = Dataset(flat.y, flat.x, flat.z, np.ones_like(flat.c_raw))
    expected = [_br_fields(ds, (LIN, LIN, LIN)) for ds in _copies(datasets)]
    assert expected[2] == ("DegenerateResponseError", "response must contain both classes")
    assert expected[4][0] == "WeakIdentificationError"

    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    Dataset.link(datasets)
    assert [_br_fields(ds, (LIN, LIN, LIN)) for ds in datasets] == expected
    # the class check flags one, the index fit the other, the other four are
    # fitted together and each degenerate member alone
    assert sizes == [6, 5, 4, 1, 1]


def test_br_gamma_memoises_a_degenerate_members_error(monkeypatch):
    datasets = _resamples(simlab.gen_table1(1, 1, -1, 300, 41).dataset, 4, 3)
    one_class = datasets[1]
    datasets[1] = Dataset(one_class.y, one_class.x, np.zeros(one_class.n), one_class.c_raw)
    Dataset.link(datasets)
    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    with pytest.raises(DegenerateResponseError) as first:
        br_gamma_estimate(datasets[1], LIN, LIN, LIN)
    assert sizes == [4, 3, 1]
    # the error is the member's memoised value: no second fit
    with pytest.raises(DegenerateResponseError) as second:
        br_gamma_estimate(datasets[1], LIN, LIN, LIN)
    assert second.value is first.value and sizes == [4, 3, 1]


def test_br_gamma_calls_share_no_mutable_state():
    data = simlab.gen_table1(0, 0, 0, 200, 42).dataset
    first = br_gamma_estimate(data, LIN, LIN, LIN)
    before = _br_fields(data, (LIN, LIN, LIN))
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
    assert _br_fields(data, (LIN, LIN, LIN)) == before


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
    expected = _per_dataset(datasets, KNOWN_COEF)
    # only the estimator under test fails, with its own error
    assert [name for name, value in expected[2].items() if isinstance(value, tuple)] == [estimator]
    assert expected[2][estimator][0] == "WeakIdentificationError"
    assert expected[2][estimator][1].startswith(message)

    sizes = _kernel_sizes(monkeypatch, kernel, lineariv.adaptive, lineariv.suites)
    assert _bundle_outcomes(datasets, KNOWN_COEF) == expected
    # the chunk flags the member, the other five are computed together and the
    # member alone as a stack of one
    assert sizes == [6, 5, 1]
