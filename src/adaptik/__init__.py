"""Adaptive Tikhonov regularization for ill-posed conditional moment problems.

Subpackages by concern:

  spectral     closed-form diagonal-operator oracle and classical
               residual-based discrepancy selection
  sieve        finite linear function classes, datasets, Gram machinery
  estimators   operator-regression (RDIV) and adversarial (TRAE) fits
  discrepancy  the geometric lambda search driven by a noise schedule
  functional   sample splitting, doubly robust functionals, coverage
  dgp          seeded synthetic data generators with analytic truths
  harness      Monte Carlo experiment runner, rate fits, run records
  cli          command-line entry point
"""

from adaptik.spectral import (
    INFINITE_LAMBDA,
    SpectralProblem,
    TikhonovSolution,
    NoisyObservation,
    make_source_problem,
    tikhonov_solve,
    tikhonov_ideal,
    weak_metric,
    strong_metric,
    SpectralResidualFitter,
    classical_dp_select,
)
from adaptik.sieve import (
    Dataset,
    SieveBasis,
    polynomial_basis,
    trigonometric_basis,
    custom_basis,
    additive_basis,
    empirical_gram,
)
from adaptik.estimators import (
    FitResult,
    MomentFunctional,
    OperatorEstimate,
    RdivEstimator,
    TraeEstimator,
    outcome_moment,
    ate_moment,
    mean_moment,
    rdiv_stage1,
    rdiv_fit,
    rdiv_loss,
    trae_inner_max,
    trae_fit,
    trae_dual_fit,
)
from adaptik.discrepancy import (
    NoiseSchedule,
    DpConfig,
    DpOutcome,
    noise_level,
    run_dp,
)
from adaptik.functional import (
    SplitPlan,
    FunctionalEstimate,
    DrPipelineConfig,
    DrPipelineResult,
    DrFold,
    split,
    adaptive_dr_pipeline,
    coverage_experiment,
)
from adaptik.dgp import (
    ProxyNcParams,
    NpivParams,
    gen_proxy_nc,
    true_ate,
    gen_npiv,
)
from adaptik.harness import (
    ExperimentSpec,
    RunRecord,
    RateFit,
    run_experiment,
    fit_rate,
)

__version__ = "0.1.0"
