"""Geometric lambda search driven by a noise-level schedule.

The loop is estimator-agnostic: it calls fitter.system(data) once and
then system.solve(lam) -> FitResult along the path.  Starting from
lambda0 the weight is shrunk by rho until the empirical loss drops to
the configured noise level delta, recording the whole path.  A
successful stop after at least one rejection certifies the bracket

    loss(lam) <= delta <= loss(lam_prev),   lam_prev = lam / rho,

which is the factor-2 bracket whenever rho >= 1/2.  Exhausting the
iteration cap returns the last (smallest-lambda) fit flagged as not
converged rather than failing, so small-sample runs stay usable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from adaptik.estimators import FitResult, RegularizedPath
from adaptik.spectral import (
    NoisyObservation,
    SpectralProblem,
    residual_norm,
    tikhonov_solve,
)

__all__ = [
    "NoiseSchedule",
    "DpConfig",
    "DpOutcome",
    "DpFitError",
    "noise_level",
    "run_dp",
    "certify_bracket",
    "SpectralResidualFitter",
]

_SCHEDULE_KINDS = ("rdiv_sqrt", "trae_squared", "fixed")


class DpFitError(RuntimeError):
    """A fitter failed inside the search loop; carries the offending lambda."""

    def __init__(self, lam: float, message: str):
        super().__init__(f"fit failed at lambda={lam}: {message}")
        self.lam = lam


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise-level rule: c_d * sqrt(log n / n), c_d * log n / n, or a constant."""

    kind: str
    c_d: float

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (self.c_d > 0.0):
            raise ValueError("c_d must be positive")


def noise_level(schedule: NoiseSchedule, n: int | None) -> float:
    """Evaluate the schedule at sample size n (ignored by the fixed kind)."""
    if schedule.kind == "fixed":
        return schedule.c_d
    if n is None or n < 2:
        raise ValueError("sample-size schedules need n >= 2")
    if schedule.kind == "rdiv_sqrt":
        return schedule.c_d * math.sqrt(math.log(n) / n)
    return schedule.c_d * math.log(n) / n


@dataclass(frozen=True)
class DpConfig:
    schedule: NoiseSchedule
    lambda0: float = 2.0
    rho: float = 0.5
    max_iters: int = 20

    def __post_init__(self):
        if not (self.lambda0 > 0.0):
            raise ValueError("lambda0 must be positive")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.rho < 0.5:
            warnings.warn(
                "rho < 1/2 widens the bracket factor 1/rho beyond 2",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class DpOutcome:
    """Selected lambda, its fit, the search path, and the bracket status.

    `iterations` counts fits performed; `bracket_ok` is true when the
    stop happened after at least one rejection, so the predecessor loss
    certifies the upper half of the bracket.
    """

    lambda_dp: float
    fit: FitResult
    path: RegularizedPath
    bracket_ok: bool
    iterations: int
    converged: bool
    delta: float

    def table(self) -> str:
        """Fixed-width path table: iteration, lambda, loss, delta, stop flag."""
        lines = [f"{'iter':>4}  {'lambda':>12}  {'loss':>14}  {'delta':>12}  stop"]
        for i, (lam, fit) in enumerate(self.path.entries):
            stop = "yes" if (i == len(self.path) - 1 and self.converged) else "no"
            lines.append(
                f"{i:>4}  {lam:>12.6g}  {fit.empirical_loss:>14.8g}  "
                f"{self.delta:>12.6g}  {stop}"
            )
        return "\n".join(lines)

    def to_record(self) -> dict:
        """Full-path audit record, embeddable in harness run files."""
        rec = self.fit.to_record()
        rec.update(
            iterations=self.iterations,
            bracket_ok=self.bracket_ok,
            converged=self.converged,
            delta=self.delta,
            path=[(lam, fit.empirical_loss) for lam, fit in self.path.entries],
        )
        return rec


def run_dp(fitter, data, config: DpConfig) -> DpOutcome:
    """Shrink lambda geometrically until the empirical loss reaches delta.

    Solves must be deterministic given the data.  A failure building the
    system propagates unchanged; a failed solve raises DpFitError with
    its lambda.  delta is evaluated at the size of the supplied
    (estimation-fold) data; `data` may be None for fitters that carry
    their own observations, in which case only the fixed schedule works.
    """
    n = getattr(data, "n", None)
    delta = noise_level(config.schedule, n)
    system = fitter.system(data)
    lam = float(config.lambda0)
    entries: list[tuple[float, FitResult]] = []
    converged = False
    for _ in range(config.max_iters):
        try:
            fit = system.solve(lam)
        except Exception as exc:
            raise DpFitError(lam, str(exc)) from exc
        entries.append((lam, fit))
        if fit.empirical_loss <= delta:
            converged = True
            break
        lam = lam * config.rho
    path = RegularizedPath(tuple(entries))
    lam_sel, fit_sel = entries[-1]
    bracket_ok = (
        converged
        and len(entries) >= 2
        and entries[-2][1].empirical_loss >= delta
    )
    return DpOutcome(lam_sel, fit_sel, path, bracket_ok, len(entries), converged,
                     delta)


def certify_bracket(outcome: DpOutcome, delta: float) -> bool:
    """Check loss(lam) <= delta <= loss(lam') with lam' the path predecessor
    and lam' within a factor 2 of the selected lambda."""
    if len(outcome.path) < 2:
        return False
    (lam_prev, fit_prev), (lam_sel, fit_sel) = outcome.path.entries[-2:]
    if lam_prev > 2.0 * lam_sel * (1.0 + 1e-12):
        return False
    return fit_sel.empirical_loss <= delta <= fit_prev.empirical_loss


@dataclass(frozen=True)
class SpectralResidualFitter:
    """Adapter driving the DP loop with the closed-form spectral oracle.

    The reported loss is the observation-space residual ||T h_lam - r||,
    so the loop reproduces classical residual-based selection exactly.
    The problem is already diagonal, so the fitter is its own system.
    """

    prob: SpectralProblem
    obs: NoisyObservation

    def system(self, data) -> "SpectralResidualFitter":
        return self

    def solve(self, lam: float) -> FitResult:
        sol = tikhonov_solve(self.prob, self.obs, lam)
        resid = residual_norm(self.prob, self.obs, sol)
        penalty = float(np.dot(sol.coeffs, sol.coeffs))
        return FitResult(sol.coeffs, lam, resid, penalty)
