"""Command-line front end.

Four commands: ``fit`` runs one estimator on a CSV dataset and emits JSON;
``simulate`` writes a generated scenario dataset as CSV; ``benchmark`` runs
Monte Carlo grids; ``replicate`` runs the pinned benchmark configurations and
checks their tolerance gates.

``fit`` checks every value of its run config, flags merged in, before it reads
the data; each choice is one table, which also gives its flag's ``choices``.

Exit codes: 0 ok, 2 usage/config error, 3 estimation failure, 4 tolerance
failure.  All outputs are byte-deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .adaptive import br_beta_estimate, br_gamma_estimate, eem_estimate
from .dataset import BasisSpec, ColumnMap, load_csv, write_csv
from .errors import EstimationError, InputError, SchemaError
from .estimators import (
    efficient_index,
    g_estimate,
    locally_efficient_y,
    outcome_coef_at,
    plug_in_two_stage,
    standard_tsls,
)
from .glm import _special, normal_quantile
from .inference import MIN_RESAMPLES, bootstrap_ci, conservative_se_brgamma
from .models import (
    EXPOSURE_LINKS,
    BinaryLogisticIv,
    CustomIndex,
    EffectModel,
    EmpiricalIv,
    ExposureModel,
    LinearMeanIv,
    OutcomeModel,
    RawInstruments,
)
from .simlab import (
    GENERATORS,
    LAMBDA_GENERATORS,
    ScenarioConfig,
    run_monte_carlo,
    simulate,
    write_report_csv,
    write_report_json,
)
from .suites import AUDIT_MIN_REPS, BUNDLES, REPLICATE_SEEDS, TABLE1_ROWS, run_replicate

# Each estimator -> the bases it requires besides the outcome basis.
ESTIMATORS = {"tsls": (), "two-stage": ("exposure",), "loc-eff-y": ("exposure",), "g-est": (),
              "loc-eff-dr": ("exposure",), "eem": ("index",), "br-gamma": ("index",),
              "br-beta": ("index",)}
# Each instrument-law kind -> its fitter (data, basis).
IV_KINDS = {"binary-logistic": lambda data, basis: BinaryLogisticIv.fit(data, basis),
            "linear-mean": lambda data, basis: LinearMeanIv.fit(data, basis),
            "empirical": lambda data, basis: EmpiricalIv.fit(data)}
EFFECT_FORMS = ("constant", "linear")
INFERENCE_METHODS = ("none", "sandwich", "bootstrap", "conservative")
# The run config's basis keys: --<key>-basis sets each, and --instrument-basis
# sets "instruments".
BASES = ("outcome", "exposure", "index", "iv", "instruments")
# Each fit flag -> the run-config entry it replaces, and its argparse options.
FIT_FLAGS = {
    "--data": (("data", "path"), {"help": "CSV file path"}),
    "--y-col": (("data", "columns", "y"), {}),
    "--x-col": (("data", "columns", "x"), {}),
    "--z-cols": (("data", "columns", "z"), {"nargs": "+"}),
    "--cov-cols": (("data", "columns", "covariates"), {"nargs": "*"}),
    "--estimator": (("estimator",), {"choices": ESTIMATORS}),
    "--effect": (("effect", "form"), {"choices": EFFECT_FORMS}),
    "--effect-basis": (("effect", "basis"), {"nargs": "+"}),
    **{f"--{key.removesuffix('s')}-basis": (("bases", key), {"nargs": "+"}) for key in BASES},
    "--exposure-link": (("exposure_link",), {"choices": EXPOSURE_LINKS}),
    "--iv-kind": (("iv_kind",), {"choices": IV_KINDS}),
    "--inference": (("inference", "method"), {"choices": INFERENCE_METHODS}),
    "--resamples": (("inference", "resamples"), {"type": int}),
    "--level": (("inference", "level"), {"type": float}),
    "--seed": (("seed",), {"type": int}),
}
# The run config's sections: each must be a JSON object where it is given.
SECTIONS = (("data",), ("data", "columns"), ("bases",), ("effect",), ("inference",))
SCHEMA_VERSION = 1


_OMIT = object()   # no JSON form: dropped from dicts, null inside lists


def _jsonable(value):
    """JSON-ready copy of a diagnostics value.

    Non-finite floats become ``None`` (``null``); values with no JSON form
    (objects, arrays of more than 64 elements) become ``_OMIT``.  A dict
    drops entries that are ``None`` or ``_OMIT`` but keeps non-finite ones.
    """
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        if value.size > 64:
            return _OMIT
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [None if conv is _OMIT else conv for conv in map(_jsonable, value)]
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            conv = _jsonable(val)
            if val is not None and conv is not _OMIT:
                out[str(key)] = conv
        return out
    return _OMIT


def _floats(values) -> list:
    return [float(v) if np.isfinite(v) else None for v in values]


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _object(value, where: str):
    if not isinstance(value, dict):
        raise SchemaError(f"config {where} must be a JSON object, got {type(value).__name__}")
    return value


def _strings(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(term, str) for term in value):
        raise SchemaError(f"config {where!r} must be a list of strings")
    return value


def _choice(value, valid, what: str):
    if not isinstance(value, str) or value not in valid:
        raise SchemaError(f"unknown {what} {value!r}; valid: {', '.join(valid)}")
    return value


def _load_run_config(args) -> dict:
    config: dict = {}
    if args.config:
        try:
            config = _object(json.loads(Path(args.config).read_text(encoding="utf-8-sig")), "document")
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise SchemaError(f"cannot read config {args.config}: {err}") from None
    for path in SECTIONS:
        _object(functools.reduce(lambda section, key: section.get(key, {}), path, config),
                repr(".".join(path)))
    for flag, (path, _) in FIT_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))   # argparse's attribute name
        if value is not None:
            functools.reduce(lambda section, key: section.setdefault(key, {}), path[:-1],
                             config)[path[-1]] = value
    return config


def _inference_settings(config: dict) -> tuple[str, int, float, int]:
    """(method, resamples, level, seed) of the run config, validated."""
    inference = config.get("inference", {})
    method = _choice(inference.get("method", "none"), INFERENCE_METHODS, "inference method")
    resamples, level = inference.get("resamples", 1000), inference.get("level", 0.95)
    if not isinstance(resamples, int) or resamples < MIN_RESAMPLES:
        raise SchemaError(f"resamples must be an integer >= {MIN_RESAMPLES}, got {resamples!r}")
    if not isinstance(level, (int, float)) or not 0.0 < level < 1.0:
        raise SchemaError(f"level must lie strictly between 0 and 1, got {level!r}")
    if method == "conservative" and config.get("estimator") != "br-gamma":
        raise SchemaError("conservative inference is defined for br-gamma only")
    seed = config.get("seed", 0)
    if not isinstance(seed, int):
        raise SchemaError(f"seed must be an integer, got {seed!r}")
    return method, resamples, float(level), int(seed)


def _build_pipeline(config: dict, n_instruments: int, n_covariates: int):
    """The estimator closure Dataset -> EstimateResult of ``config``, whose
    values are checked, and whose bases and models are built, here, once; the
    default instrument basis is ``z0 ... z{n_instruments - 1}``.  Each basis
    is evaluated on zero rows of these column counts: a term naming a column
    the data lack fails before they are read."""
    estimator = _choice(config.get("estimator"), ESTIMATORS, "estimator")
    bases = {key: BasisSpec(_strings(terms, f"bases.{key}"))
             for key, terms in config.get("bases", {}).items() if terms not in (None, [])
             and key in BASES}
    effect_cfg = config.get("effect", {"form": "constant"})
    if _choice(effect_cfg.get("form"), EFFECT_FORMS, "effect form") == "constant":
        effect = EffectModel.constant()
    elif estimator in ("eem", "br-gamma", "br-beta"):
        raise SchemaError(f"estimator {estimator!r} takes a constant effect only")
    elif "basis" not in effect_cfg:
        raise SchemaError("linear effect model requires effect basis terms")
    else:
        modifiers = BasisSpec(_strings(effect_cfg["basis"], "effect.basis"))
        effect = EffectModel.with_modifiers(modifiers)
    for key in ("outcome", *ESTIMATORS[estimator]):
        if key not in bases:
            raise SchemaError(f"estimator {estimator!r} requires {key!r}")
    for basis in (*bases.values(), effect.basis):
        if basis is not None:
            basis._evaluate(np.empty((0, n_instruments)), np.empty((0, n_covariates)))
    link = _choice(config.get("exposure_link", "identity"), EXPOSURE_LINKS, "exposure link")
    fit_iv = IV_KINDS[_choice(config.get("iv_kind", "binary-logistic"), IV_KINDS, "iv kind")]

    outcome, index = bases["outcome"], bases.get("index")
    iv_basis = bases.get("iv", outcome)
    instruments = bases.get("instruments", BasisSpec([f"z{j}" for j in range(n_instruments)]))
    exposure = ExposureModel(link, bases["exposure"]) if "exposure" in bases else None
    g_index = RawInstruments() if index is None else CustomIndex.from_basis(index)

    def g_est(data):
        iv = fit_iv(data, iv_basis)
        psi0 = standard_tsls(data, effect, outcome, instruments).psi_hat
        beta = outcome_coef_at(data, effect, outcome, psi0)
        return g_estimate(data, g_index, OutcomeModel(outcome, beta), iv, effect)

    def loc_eff_dr(data):
        fitted = exposure.fit(data)
        iv = fit_iv(data, iv_basis)
        return g_estimate(data, efficient_index(data, fitted, iv, effect), OutcomeModel(outcome),
                          iv, effect)

    return {
        "tsls": lambda data: standard_tsls(data, effect, outcome, instruments),
        "two-stage": lambda data: plug_in_two_stage(data, exposure, effect, outcome),
        "loc-eff-y": lambda data: locally_efficient_y(data, exposure.fit(data), effect, outcome),
        "g-est": g_est,
        "loc-eff-dr": loc_eff_dr,
        "eem": lambda data: eem_estimate(data, fit_iv(data, iv_basis), index, outcome),
        "br-gamma": lambda data: br_gamma_estimate(data, index, outcome, iv_basis),
        "br-beta": lambda data: br_beta_estimate(data, index, outcome, iv_basis),
    }[estimator]


def cmd_fit(args) -> int:
    config = _load_run_config(args)
    method, resamples, level, seed = _inference_settings(config)
    data_cfg = config.get("data", {})
    if not isinstance(data_cfg.get("path"), str):
        raise SchemaError("no dataset: pass --data or a config with data.path")
    cols = data_cfg.get("columns", {})
    for key in ("y", "x", "z"):
        if key not in cols:
            raise SchemaError(f"column mapping is missing {key!r}")
        if key != "z" and not isinstance(cols[key], str):
            raise SchemaError(f"config 'data.columns.{key}' must be a string")
    columns = ColumnMap(cols["y"], cols["x"], _strings(cols["z"], "data.columns.z"),
                        _strings(cols.get("covariates", []), "data.columns.covariates"))
    pipeline = _build_pipeline(config, len(columns.z), len(columns.covariates))
    data = load_csv(data_cfg["path"], columns)
    result = pipeline(data)

    se, ci, extra = result.se, result.ci, {}
    if method == "bootstrap":
        boot = bootstrap_ci(data, lambda ds: pipeline(ds).psi_hat, resamples=resamples,
                            level=level, seed=seed)
        se, ci = boot.se, (boot.ci_lower, boot.ci_upper)
        extra["failed_resamples"] = boot.failed_resamples
    elif method == "conservative":
        zq = float(normal_quantile(0.5 + level / 2.0))
        se = np.array([conservative_se_brgamma(data, result)])
        ci = (result.psi_hat - zq * se, result.psi_hat + zq * se)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "estimator": config["estimator"],
        "n": data.n,
        "psi_hat": _floats(result.psi_hat),
        "beta_hat": _floats(result.beta_hat),
        "se": _floats(se) if se is not None else None,
        "ci": {"lower": _floats(ci[0]), "upper": _floats(ci[1])} if ci is not None else None,
        "inference": method,
        "diagnostics": _jsonable({**result.diagnostics, **extra}),
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate / benchmark / replicate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    sim = simulate(args.generator, args.n, args.seed, (args.lx, args.ly, args.lz))
    write_csv(sim.dataset, args.out)
    print(f"wrote {sim.dataset.n} rows to {args.out} "
          f"(generator={args.generator}, true effect={sim.psi_true.tolist()})")
    return 0


def cmd_benchmark(args) -> int:
    generator = "table1" if args.table1_grid else args.generator
    lams = (TABLE1_ROWS if args.table1_grid else
            [(args.lx, args.ly, args.lz) if generator in LAMBDA_GENERATORS else None])
    scenarios = [ScenarioConfig(generator, n=args.n, seed=args.seed, reps=args.reps, lam=lam)
                 for lam in lams]
    reports = []
    for cfg in scenarios:
        estimators = BUNDLES[cfg.generator]()
        if args.estimators:
            unknown = set(args.estimators) - set(estimators)
            if unknown:
                raise SchemaError(f"unknown estimators for {cfg.generator}: {sorted(unknown)}")
            estimators = {k: v for k, v in estimators.items() if k in args.estimators}
        reports.append(run_monte_carlo(cfg, estimators))
    if args.out:
        write_report_csv(reports, args.out)
    if args.out_json:
        write_report_json(reports, args.out_json)
    for rep in reports:
        for name, s in rep.summaries.items():
            print(f"{rep.config.label():18s} {name:10s} bias={s.bias[0]:+.4f} "
                  f"sd={s.sd[0]:.4f} outliers={s.outliers_removed} failed={s.failed}")
    return 0


def cmd_replicate(args) -> int:
    reps = 1000 if args.reps is None else args.reps
    seed = args.seed if args.seed is not None else REPLICATE_SEEDS[args.target]
    reports, gates = run_replicate(args.target, reps=reps, seed=seed, full_grid=args.full_grid)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report_csv(reports, out_dir / f"{args.target}_report.csv")
        write_report_json(reports, out_dir / f"{args.target}_report.json")
    for rep in reports:
        for name, s in rep.summaries.items():
            print(f"{rep.config.label():20s} {name:10s} bias={s.bias[0]:+.4f} sd={s.sd[0]:.4f} "
                  f"raw={s.raw_bias[0]:+.3f}/{s.raw_sd[0]:.3f} "
                  f"outliers={s.outliers_removed} failed={s.failed}")
    if gates is None:
        print(f"warning: reps={reps} below audit threshold {AUDIT_MIN_REPS}; no pass/fail verdict")
        return 0
    failed = [g for g in gates if not g.passed]
    for g in gates:
        print(f"[{'PASS' if g.passed else 'FAIL'}] {g.name}  ({g.detail})")
    if failed:
        print(f"{len(failed)} gate(s) failed")
        return 4
    print(f"all {len(gates)} gates passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineariv",
        description="Covariate-adjusted linear instrumental-variable estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one estimator on a CSV dataset")
    fit.add_argument("--config", help="JSON run config; flags override")
    for flag, (_, options) in FIT_FLAGS.items():
        fit.add_argument(flag, **options)
    fit.add_argument("--out")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="write a generated scenario dataset as CSV")
    sim.add_argument("--generator", required=True,
                     choices=GENERATORS)
    for flag in ("--lx", "--ly", "--lz"):
        sim.add_argument(flag, type=int, default=0)
    sim.add_argument("--n", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark", help="Monte Carlo bias/SD benchmark")
    bench.add_argument("--generator", default="table1",
                       choices=GENERATORS)
    bench.add_argument("--table1-grid", action="store_true",
                       help="run the full lambda grid of the factorial design")
    for flag in ("--lx", "--ly", "--lz"):
        bench.add_argument(flag, type=int, default=0)
    bench.add_argument("--estimators", nargs="+")
    bench.add_argument("--reps", type=int, default=1000)
    bench.add_argument("--n", type=int, default=500)
    bench.add_argument("--seed", type=int, default=20260809)
    bench.add_argument("--out")
    bench.add_argument("--out-json")
    bench.set_defaults(func=cmd_benchmark)

    repl = sub.add_parser("replicate", help="run a pinned benchmark target and check gates")
    repl.add_argument("target", choices=sorted(REPLICATE_SEEDS))
    repl.add_argument("--reps", type=int)
    repl.add_argument("--seed", type=int)
    repl.add_argument("--full-grid", action="store_true",
                      help="table1: run all 19 rows, not only the gated ones")
    repl.add_argument("--out-dir")
    repl.set_defaults(func=cmd_replicate)
    return parser


_parser = functools.cache(build_parser)     # once per process: parsing does not change it


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # scipy.special is loaded here so that its import (about 0.3 s) stays
    # out of the first fit an in-process caller times; a one-command process
    # pays it even when its estimator, e.g. tsls, never uses it
    _special()
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EstimationError as err:
        print(f"estimation error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
