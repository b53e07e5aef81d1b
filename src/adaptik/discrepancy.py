"""Geometric lambda search driven by a noise-level schedule.

`walk` is the one geometric-grid loop: it shrinks lambda from lambda0
by rho until the loss reaches delta, taking the losses of 16 grid points
at a time (each block built once by repeated multiplication and then
cached) from system.losses(lams), one reduction per block whose losses
equal system.solve(lam).empirical_loss bit for bit, and solves nothing;
a TikhonovSystem's loss, L_min plus the excess, does not cancel.  `run_dp`
walks the factored system it is given to the schedule's delta and solves
once, at the last lambda tested.  A stop after at least one rejection,
with rho >= 1/2, certifies the factor-2 bracket

    loss(lam) <= delta <= loss(lam_prev),   lam_prev = lam / rho <= 2 lam,

which DpOutcome.bracket_ok reports.  Exhausting the iteration cap
returns the last (smallest-lambda) fit flagged as not converged rather
than failing, so small-sample runs stay usable.  `tune` resolves one
lambda strategy, the search or a fixed lambda, on a factored system.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from adaptik.estimators import FitResult

__all__ = [
    "NoiseSchedule",
    "DpConfig",
    "DpOutcome",
    "DpFitError",
    "noise_level",
    "walk",
    "run_dp",
    "tune",
]

_GRID_BLOCK = 16  # searches mostly stop within ~10 points

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
        if isinstance(self.c_d, bool) or not self.c_d > 0.0:
            raise ValueError(f"c_d must be a positive number, got {self.c_d!r}")


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
        if isinstance(self.lambda0, bool) or not 0.0 < self.lambda0 < math.inf:
            raise ValueError("lambda0 must be finite and positive, "
                             f"got {self.lambda0!r}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if (not isinstance(self.max_iters, (int, np.integer))
                or isinstance(self.max_iters, bool) or self.max_iters < 1):
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        if self.rho < 0.5:
            warnings.warn(
                "rho < 1/2 widens the bracket factor 1/rho beyond 2",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class DpOutcome:
    """Selected lambda, its fit, the search path, and the bracket status.

    `path` holds the (lambda, loss) pairs of the grid points tested and
    `iterations` counts them; `bracket_ok` is true when the stop
    happened after at least one rejection and the predecessor's lambda
    is at most twice the selected one, so the path certifies
    loss(lam) <= delta <= loss(lam_prev) with lam_prev <= 2 lam.
    """

    lambda_dp: float
    fit: FitResult
    path: tuple
    bracket_ok: bool
    iterations: int
    converged: bool
    delta: float

    def table(self) -> str:
        """Fixed-width path table: iteration, lambda, loss, delta, stop flag."""
        lines = [f"{'iter':>4}  {'lambda':>12}  {'loss':>14}  {'delta':>12}  stop"]
        for i, (lam, loss) in enumerate(self.path):
            stop = "yes" if (i == len(self.path) - 1 and self.converged) else "no"
            lines.append(
                f"{i:>4}  {lam:>12.6g}  {loss:>14.8g}  {self.delta:>12.6g}  {stop}"
            )
        return "\n".join(lines)


@functools.lru_cache(maxsize=64)
def _grid_block(lam: float, rho: float) -> tuple[np.ndarray, tuple, float]:
    """The grid block lam, lam * rho, ... of _GRID_BLOCK points, as a
    read-only column and as a tuple, and the point after it; each walk
    from lam at rho shares them."""
    lams = np.empty((_GRID_BLOCK, 1))
    for j in range(_GRID_BLOCK):
        lams[j, 0] = lam
        lam *= rho
    lams.flags.writeable = False
    return lams, tuple(lams[:, 0].tolist()), lam


def walk(system, delta: float, lambda0: float, rho: float,
         max_iters: int) -> tuple[list, bool]:
    """The (lambda, loss) pairs of the grid lambda0, lambda0 * rho, ... up
    to the first loss <= delta, or of max_iters points; and whether the
    walk stopped there.  A non-finite loss raises DpFitError with its
    lambda."""
    path = []
    lam = float(lambda0)
    for start in range(0, max_iters, _GRID_BLOCK):
        size = min(_GRID_BLOCK, max_iters - start)
        lams, values, lam = _grid_block(lam, rho)
        for lam_j, loss in zip(values[:size], system.losses(lams[:size])):
            path.append((lam_j, loss))
            if not math.isfinite(loss):
                raise DpFitError(lam_j, "empirical loss is not finite")
            if loss <= delta:
                return path, True
    return path, False


def run_dp(system, n: int | None, config: DpConfig) -> DpOutcome:
    """Shrink lambda geometrically until the system's empirical loss
    reaches delta, then solve once, at the last lambda tested.

    delta is the schedule at n, the size of the fold the system was
    built from; with n None only the fixed schedule works.  A failed
    solve raises DpFitError with its lambda.
    """
    delta = noise_level(config.schedule, n)
    path, converged = walk(system, delta, config.lambda0, config.rho,
                           config.max_iters)
    lam = path[-1][0]
    try:
        fit = system.solve(lam)
    except Exception as exc:
        raise DpFitError(lam, str(exc)) from exc
    bracket_ok = (converged and len(path) >= 2 and path[-2][1] >= delta
                  and path[-2][0] <= 2.0 * lam)
    return DpOutcome(lam, fit, tuple(path), bracket_ok, len(path), converged,
                     delta)


def tune(system, n: int | None, config: DpConfig,
         strategy) -> tuple[FitResult, DpOutcome | None]:
    """The fit of one lambda strategy on a factored system built from a
    fold of size n.

    strategy "dp" runs the search and returns its outcome too; a number
    is a fixed lambda, solved once.
    """
    if strategy == "dp":
        outcome = run_dp(system, n, config)
        return outcome.fit, outcome
    return system.solve(strategy), None
