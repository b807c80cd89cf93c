"""Command-line front end.

Four commands: ``fit`` runs one estimator on a CSV dataset and emits JSON;
``simulate`` writes a generated scenario dataset as CSV; ``benchmark`` runs
Monte Carlo grids; ``replicate`` runs the pinned benchmark configurations and
checks their tolerance gates.

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
    EstimateResult,
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

ESTIMATORS = ("tsls", "two-stage", "loc-eff-y", "g-est", "loc-eff-dr",
              "eem", "br-gamma", "br-beta")
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


def _load_run_config(args) -> dict:
    config: dict = {}
    if args.config:
        try:
            config = _object(json.loads(Path(args.config).read_text(encoding="utf-8-sig")), "document")
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise SchemaError(f"cannot read config {args.config}: {err}") from None

    def put(key, value, into=config):
        if value is not None:
            into[key] = value

    put("estimator", args.estimator)
    data_cfg = _object(config.setdefault("data", {}), "'data'")
    if args.data:
        data_cfg["path"] = args.data
    cols = _object(data_cfg.setdefault("columns", {}), "'data.columns'")
    for key, flag in (("y", args.y_col), ("x", args.x_col), ("z", args.z_cols)):
        if flag:
            cols[key] = flag
    put("covariates", args.cov_cols, cols)
    bases = _object(config.setdefault("bases", {}), "'bases'")
    for key, flag in (("outcome", args.outcome_basis), ("exposure", args.exposure_basis),
                      ("index", args.index_basis), ("iv", args.iv_basis),
                      ("instruments", args.instrument_basis)):
        put(key, flag, bases)
    if args.effect:
        config["effect"] = {"form": args.effect}
        if args.effect_basis:
            config["effect"]["basis"] = args.effect_basis
    _object(config.get("effect", {}), "'effect'")
    put("exposure_link", args.exposure_link)
    put("iv_kind", args.iv_kind)
    inference = _object(config.setdefault("inference", {}), "'inference'")
    put("method", args.inference, inference)
    put("resamples", args.resamples, inference)
    put("level", args.level, inference)
    put("seed", args.seed)
    return config


def _inference_settings(config: dict) -> tuple[str, int, float]:
    """(method, resamples, level) of the run config, validated."""
    inference = config.get("inference", {})
    method = inference.get("method", "none")
    resamples, level = inference.get("resamples", 1000), inference.get("level", 0.95)
    if method not in ("none", "sandwich", "bootstrap", "conservative", None):
        raise SchemaError(f"unknown inference method {method!r}")
    if not isinstance(resamples, int) or resamples < MIN_RESAMPLES:
        raise SchemaError(f"resamples must be an integer >= {MIN_RESAMPLES}, got {resamples!r}")
    if not isinstance(level, (int, float)) or not 0.0 < level < 1.0:
        raise SchemaError(f"level must lie strictly between 0 and 1, got {level!r}")
    if method == "conservative" and config.get("estimator") != "br-gamma":
        raise SchemaError("conservative inference is defined for br-gamma only")
    return method, resamples, float(level)


def _require(config: dict, key: str, estimator: str):
    if key not in config or config[key] in (None, []):
        raise SchemaError(f"estimator {estimator!r} requires {key!r}")
    return config[key]


def _build_pipeline(config: dict):
    """The estimator closure Dataset -> EstimateResult of ``config``."""
    estimator = config.get("estimator")
    if estimator not in ESTIMATORS:
        raise SchemaError(f"unknown estimator {estimator!r}; valid: {', '.join(ESTIMATORS)}")
    bases = config.get("bases", {})
    effect_cfg = config.get("effect", {"form": "constant"})
    if effect_cfg.get("form") == "constant":
        effect = EffectModel.constant()
    elif effect_cfg.get("form") == "linear":
        if "basis" not in effect_cfg:
            raise SchemaError("linear effect model requires effect basis terms")
        effect = EffectModel.with_modifiers(BasisSpec(effect_cfg["basis"]))
    else:
        raise SchemaError(f"unknown effect form {effect_cfg.get('form')!r}")

    outcome_basis = BasisSpec(_require(bases, "outcome", estimator))
    iv_basis = BasisSpec(bases["iv"]) if bases.get("iv") else outcome_basis

    def make_iv(data):
        kind = config.get("iv_kind", "binary-logistic")
        if kind == "binary-logistic":
            return BinaryLogisticIv.fit(data, iv_basis)
        if kind == "linear-mean":
            return LinearMeanIv.fit(data, iv_basis)
        if kind == "empirical":
            return EmpiricalIv.fit(data)
        raise SchemaError(f"unknown iv kind {kind!r}")

    def instruments_spec(data):
        if bases.get("instruments"):
            return BasisSpec(bases["instruments"])
        return BasisSpec([f"z{j}" for j in range(data.n_instruments)])

    link = config.get("exposure_link", "identity")

    def run(data) -> EstimateResult:
        if estimator == "tsls":
            return standard_tsls(data, effect, outcome_basis, instruments_spec(data))
        if estimator == "two-stage":
            exposure = ExposureModel(link, BasisSpec(_require(bases, "exposure", estimator)))
            return plug_in_two_stage(data, exposure, effect, outcome_basis)
        if estimator == "loc-eff-y":
            exposure = ExposureModel(link, BasisSpec(_require(bases, "exposure", estimator))).fit(data)
            return locally_efficient_y(data, exposure, effect, outcome_basis)
        if estimator == "g-est":
            iv = make_iv(data)
            index = (CustomIndex.from_basis(BasisSpec(bases["index"]))
                     if bases.get("index") else RawInstruments())
            psi0 = standard_tsls(data, effect, outcome_basis, instruments_spec(data)).psi_hat
            beta = outcome_coef_at(data, effect, outcome_basis, psi0)
            return g_estimate(data, index, OutcomeModel(outcome_basis, beta), iv, effect)
        if estimator == "loc-eff-dr":
            exposure = ExposureModel(link, BasisSpec(_require(bases, "exposure", estimator))).fit(data)
            iv = make_iv(data)
            index = efficient_index(data, exposure, iv, effect)
            return g_estimate(data, index, OutcomeModel(outcome_basis), iv, effect)
        if estimator == "eem":
            iv = make_iv(data)
            return eem_estimate(data, iv, BasisSpec(_require(bases, "index", estimator)),
                                outcome_basis)
        index_basis = BasisSpec(_require(bases, "index", estimator))
        if estimator == "br-gamma":
            return br_gamma_estimate(data, index_basis, outcome_basis, iv_basis)
        return br_beta_estimate(data, index_basis, outcome_basis, iv_basis)

    return run


def cmd_fit(args) -> int:
    config = _load_run_config(args)
    method, resamples, level = _inference_settings(config)
    data_cfg = config.get("data", {})
    if "path" not in data_cfg:
        raise SchemaError("no dataset: pass --data or a config with data.path")
    cols = data_cfg.get("columns", {})
    for key in ("y", "x", "z"):
        if key not in cols:
            raise SchemaError(f"column mapping is missing {key!r}")
    columns = ColumnMap(cols["y"], cols["x"], cols["z"], cols.get("covariates", ()))
    data = load_csv(data_cfg["path"], columns)
    pipeline = _build_pipeline(config)
    result = pipeline(data)

    se, ci, extra = result.se, result.ci, {}
    if method == "bootstrap":
        boot = bootstrap_ci(data, lambda ds: pipeline(ds).psi_hat, resamples=resamples,
                            level=level, seed=int(config.get("seed", 0)))
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
    fit.add_argument("--data", help="CSV file path")
    fit.add_argument("--y-col")
    fit.add_argument("--x-col")
    fit.add_argument("--z-cols", nargs="+")
    fit.add_argument("--cov-cols", nargs="*")
    fit.add_argument("--estimator", choices=ESTIMATORS)
    fit.add_argument("--effect", choices=("constant", "linear"))
    fit.add_argument("--effect-basis", nargs="+")
    fit.add_argument("--outcome-basis", nargs="+")
    fit.add_argument("--exposure-basis", nargs="+")
    fit.add_argument("--index-basis", nargs="+")
    fit.add_argument("--iv-basis", nargs="+")
    fit.add_argument("--instrument-basis", nargs="+")
    fit.add_argument("--exposure-link", choices=("identity", "logit", "probit"))
    fit.add_argument("--iv-kind", choices=("binary-logistic", "linear-mean", "empirical"))
    fit.add_argument("--inference", choices=("none", "sandwich", "bootstrap", "conservative"))
    fit.add_argument("--resamples", type=int)
    fit.add_argument("--level", type=float)
    fit.add_argument("--seed", type=int)
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
