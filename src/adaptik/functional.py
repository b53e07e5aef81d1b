"""Doubly robust estimation of linear functionals with sample splitting.

The point estimate combines a primal fit h (of the structural function,
over the X-sieve) and a dual fit q (of the moment representer, over the
Z-sieve), both trained on the fit fold:

    theta_hat = mean over the eval fold of
        m_target(W; h) + m_outcome(W; q) - q(Z) h(X),

so a first-order error in either nuisance is cancelled by the cross
term.  Standard errors come from the empirical variance of the same
per-record values, which estimates the influence-function variance.

One split is a DrFold: DrFold.of factors the primal and dual TRAE
systems of the fit fold (the dual is the primal problem with X and Z
exchanged and the target moment in place of the outcome one), each by
TraeEstimator.system_of from one stacked Gram, and builds the eval
fold's DrEvaluation, evaluating each distinct (basis, fold, feature
block) once; DrFold.run(strategy) tunes both sides by the search ("dp")
or a fixed lambda and estimates.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass

import numpy as np

from adaptik.discrepancy import DpConfig, DpOutcome, tune
# trae_fit and trae_dual_fit are not called here; they stay importable
# as functional.trae_fit and functional.trae_dual_fit, the aliases
# perfbench/tests/test_perfbench.py checks the tracer patches.
from adaptik.estimators import (  # noqa: F401
    FitResult,
    MomentFunctional,
    TikhonovSystem,
    TraeEstimator,
    trae_dual_fit,
    trae_fit,
)
from adaptik.sieve import Dataset, SieveBasis
from adaptik.util import stream_rng

__all__ = [
    "SplitPlan",
    "FunctionalEstimate",
    "DrEvaluation",
    "DrPipelineConfig",
    "DrPipelineResult",
    "CoverageResult",
    "split",
    "DrFold",
    "adaptive_dr_pipeline",
    "coverage_experiment",
]


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic fit/eval partition: shuffle by seed, cut in half."""

    seed: int


def split(data: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive (fit, eval) folds with sizes within 1 of
    half the records each."""
    if data.n < 4:
        raise ValueError("need at least 4 records to split")
    perm = stream_rng(plan.seed, 0x5B17).permutation(data.n)
    n_fit = round(data.n * 0.5)  # 2 <= n_fit <= n - 2 for n >= 4
    return data.take(perm[:n_fit]), data.take(perm[n_fit:])


@dataclass(frozen=True)
class FunctionalEstimate:
    """Point estimate with influence-function standard error and interval."""

    theta_hat: float
    se: float
    ci_low: float
    ci_high: float
    level: float
    n_eval: int
    components: dict

    def __post_init__(self):
        if self.se < 0.0:
            raise ValueError("standard error cannot be negative")
        if not (self.ci_low <= self.theta_hat <= self.ci_high):
            raise ValueError("interval must contain the point estimate")

    def to_record(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "level": self.level,
            "n_eval": self.n_eval,
        }


@dataclass(frozen=True)
class DrEvaluation:
    """The eval-fold matrices of the doubly robust combination.

    h = basis_h(x) and q = basis_q(z); target holds m_target(W; psi_k)
    over basis_h and outcome m_outcome(W; phi_j) over basis_q.  Built
    once per eval fold, it estimates theta for any pair of fits.
    """

    target: np.ndarray
    outcome: np.ndarray
    h: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, eval_fold: Dataset, basis_h: SieveBasis, basis_q: SieveBasis,
           moment_h: MomentFunctional, moment_q: MomentFunctional) -> "DrEvaluation":
        """Evaluate basis_h and basis_q once each; the mean and outcome
        moments reuse those values."""
        h = basis_h.evaluate(eval_fold.x)
        q = basis_q.evaluate(eval_fold.z)
        return cls(moment_h.matrix(eval_fold.x, eval_fold.y, basis_h, h),
                   moment_q.matrix(eval_fold.z, eval_fold.y, basis_q, q), h, q)

    def estimate(self, h_fit: FitResult, q_fit: FitResult,
                 level: float = 0.95) -> FunctionalEstimate:
        """The doubly robust estimate and interval of fits from the other fold."""
        if not (0.0 < level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        n = self.h.shape[0]
        h_coeffs = np.asarray(h_fit.coeffs, dtype=np.float64)
        q_coeffs = np.asarray(q_fit.coeffs, dtype=np.float64)
        mh = self.target @ h_coeffs
        mq = self.outcome @ q_coeffs
        cross = (self.q @ q_coeffs) * (self.h @ h_coeffs)
        rho = mh + mq - cross
        theta = float(rho.mean())
        se = float(rho.std(ddof=1) / math.sqrt(n))
        zcrit = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
        return FunctionalEstimate(
            theta_hat=theta,
            se=se,
            ci_low=theta - zcrit * se,
            ci_high=theta + zcrit * se,
            level=level,
            n_eval=n,
            components={
                "target_moment": mh,
                "outcome_moment": mq,
                "cross": cross,
                "influence": rho,
            },
        )


@dataclass(frozen=True)
class DrPipelineConfig:
    """Everything the adaptive pipeline needs besides the data.

    The primal fit solves the outcome-moment problem for h over basis_h
    with adversary basis_f; the dual fit solves the target-moment
    problem for q over basis_q with adversary basis_s.
    """

    basis_h: SieveBasis
    basis_f: SieveBasis
    basis_q: SieveBasis
    basis_s: SieveBasis
    outcome_moment: MomentFunctional
    target_moment: MomentFunctional
    dp_primal: DpConfig
    dp_dual: DpConfig
    split_plan: SplitPlan
    level: float = 0.95


@dataclass(frozen=True)
class DrPipelineResult:
    estimate: FunctionalEstimate
    h_fit: FitResult
    q_fit: FitResult
    dp_primal: DpOutcome | None
    dp_dual: DpOutcome | None


@dataclass(frozen=True)
class DrFold:
    """One split of the pipeline: the primal and dual TRAE systems of the
    fit fold, each factored once, and the eval fold's DrEvaluation."""

    config: DrPipelineConfig
    fit_fold: Dataset
    primal: TikhonovSystem
    dual: TikhonovSystem
    evaluation: DrEvaluation

    @classmethod
    def of(cls, fit_fold: Dataset, eval_fold: Dataset,
           config: DrPipelineConfig, fit_values: tuple | None = None,
           fit_gram: np.ndarray | None = None) -> "DrFold":
        """Fit-fold basis_h(x), basis_f(z) come unscaled from fit_values or one
        evaluation each; basis_q(z), basis_s(x) are evaluated only if other bases.
        Each side's system_of stacks its Gram in trae_fit's and trae_dual_fit's
        column order (a SYRK entry's last bits depend on position); fit_gram,
        if given, is the primal's."""
        c, y = config, fit_fold.y
        hx, fz = fit_values or (c.basis_h.unscaled().evaluate(fit_fold.x),
                                c.basis_f.unscaled().evaluate(fit_fold.z))
        qz = fz if c.basis_q is c.basis_f else c.basis_q.unscaled().evaluate(fit_fold.z)
        sx = hx if c.basis_s is c.basis_h else c.basis_s.unscaled().evaluate(fit_fold.x)
        primal = TraeEstimator(c.outcome_moment, c.basis_h, c.basis_f)
        dual = TraeEstimator(c.target_moment, c.basis_q, c.basis_s)
        return cls(
            config, fit_fold, primal.system_of(hx, fz, fit_fold.z, y, fit_gram),
            dual.system_of(qz, sx, fit_fold.x, y),
            DrEvaluation.of(eval_fold, config.basis_h, config.basis_q,
                            config.target_moment, config.outcome_moment),
        )

    def run(self, strategy) -> DrPipelineResult:
        """Tune both sides by one lambda strategy ("dp" or a lambda >= 0)
        and estimate on the eval fold."""
        h_fit, dp_primal = tune(self.primal, self.fit_fold.n,
                                self.config.dp_primal, strategy)
        q_fit, dp_dual = tune(self.dual, self.fit_fold.n,
                              self.config.dp_dual, strategy)
        estimate = self.evaluation.estimate(h_fit, q_fit, self.config.level)
        return DrPipelineResult(estimate, h_fit, q_fit, dp_primal, dp_dual)


def adaptive_dr_pipeline(data: Dataset, config: DrPipelineConfig) -> DrPipelineResult:
    """Split, tune both nuisances by the search on the fit fold, evaluate
    on the other."""
    return DrFold.of(*split(data, config.split_plan), config).run("dp")


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    mean_width: float
    reps: int
    hits: int


def coverage_experiment(
    dgp,
    make_config,
    n: int,
    reps: int,
    level: float,
    seed: int = 0,
) -> CoverageResult:
    """Monte Carlo interval coverage of the adaptive pipeline.

    dgp(n, rng) must return (Dataset, theta0); make_config(rep) returns
    the pipeline configuration (the split seed may depend on rep).  Each
    repetition owns an independent stream derived from (seed, rep).
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    hits = 0
    widths = np.empty(reps)
    for rep in range(reps):
        rng = stream_rng(seed, n, rep)
        data, theta0 = dgp(n, rng)
        config = dataclasses.replace(make_config(rep), level=level)
        result = adaptive_dr_pipeline(data, config)
        est = result.estimate
        hits += int(est.ci_low <= theta0 <= est.ci_high)
        widths[rep] = est.ci_high - est.ci_low
    return CoverageResult(hits / reps, float(widths.mean()), reps, hits)
