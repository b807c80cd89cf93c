"""Covariate-adjusted linear instrumental-variable estimation.

Estimators for the additive structural mean model with working models for
the exposure, outcome and instrument law: standard and plug-in two-stage
least squares, locally efficient estimation without an exposure model,
double-robust G-estimation with the efficient index, empirical efficiency
maximisation, and bias-reduced nuisance estimation; plus a deterministic
Monte Carlo laboratory for the benchmark designs.
"""

from .adaptive import (
    BrFit,
    EemFit,
    br_beta_estimate,
    br_gamma_estimate,
    eem_estimate,
    eem_fit_alpha,
    eem_fit_beta,
    eem_objective,
)
from .dataset import (
    BasisSpec,
    ColumnMap,
    Dataset,
    build_design,
    load_csv,
    parse_term,
    write_csv,
)
from .errors import (
    DegenerateResponseError,
    DegenerateWeightsError,
    EstimationError,
    InputError,
    LinearIvError,
    NonConvergenceError,
    ParseError,
    SchemaError,
    SingularDesignError,
    TermSpecError,
    UnreliableBootstrapError,
    UnsupportedCombinationError,
    WeakIdentificationError,
)
from .estimators import (
    EstimateResult,
    centered_index,
    efficient_index,
    g_estimate,
    locally_efficient_y,
    outcome_coef_at,
    plug_in_two_stage,
    standard_tsls,
)
from .glm import (
    BinaryFit,
    LinearFit,
    expit,
    fit_binary,
    fit_ols,
    fit_wls,
    normal_cdf,
    normal_quantile,
)
from .inference import (
    InferenceResult,
    bootstrap_ci,
    conservative_se_brgamma,
    sandwich_se,
)
from .models import (
    BinaryLogisticIv,
    CustomIndex,
    EffectModel,
    EmpiricalIv,
    ExposureModel,
    LinearMeanIv,
    OutcomeModel,
    RawInstruments,
    ScaledInstrument,
)
from .simlab import (
    MonteCarloReport,
    ScenarioConfig,
    SimulatedData,
    gen_effectmod,
    gen_extreme,
    gen_sim1,
    gen_sim2,
    gen_table1,
    generate,
    run_monte_carlo,
    simulate,
    write_report_csv,
    write_report_json,
)

__version__ = "0.1.0"
