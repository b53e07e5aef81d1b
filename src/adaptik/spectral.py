"""Exact oracle for diagonal (SVD-form) linear inverse problems.

A problem is specified directly in the singular basis of a compact
operator T: singular values sigma_i, true-solution coefficients a_i, and
a smoothness (source-condition) exponent beta with a_i = sigma_i**beta *
w0_i.  Everything downstream is closed form:

  * Tikhonov solution from a noisy right-hand side r, a read-only
    coefficient vector (solutions are coefficient vectors throughout):
        coeffs_i = sigma_i * r_i / (sigma_i**2 + lam)
  * strong metric  ||h - h0||            (coefficient 2-norm)
  * weak metric    ||T (h - h0)||        (sigma-weighted 2-norm)
  * classical residual-based discrepancy selection of lam on a
    geometric grid, with lam = inf as the "return the zero solution"
    sentinel when the data are pure noise: discrepancy.walk on the
    squared residual, the loss of a diagonal TikhonovSystem
    (residual_system), to (k delta)^2, then one solve at the selected lam.

A SpectralProblem computes sigma^2 and sigma * a = T h0 once, read-only,
for every solve, residual system and noise draw, and every norm is
sqrt(x . x), np.linalg.norm's formula for a real vector without its
dispatch, so each value has the bits of the direct expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adaptik.discrepancy import walk
from adaptik.estimators import TikhonovSystem

INFINITE_LAMBDA = math.inf

__all__ = [
    "INFINITE_LAMBDA",
    "SpectralProblem",
    "NoisyObservation",
    "GridExhaustedError",
    "make_source_problem",
    "exact_observation",
    "perturb_observation",
    "tikhonov_solve",
    "weak_metric",
    "strong_metric",
    "residual_system",
    "classical_dp_select",
]


class GridExhaustedError(RuntimeError):
    """The geometric lambda grid ran out before the residual bound was met."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _norm(x: np.ndarray) -> float:
    """||x||, bit for bit np.linalg.norm's formula for a real vector:
    sqrt(x . x) over x raveled in memory order."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class SpectralProblem:
    """Diagonal operator model with a built-in source condition.

    singular_values: nonincreasing, largest at most 1, each square a
                     normal double (sigma >= ~1.5e-154).
    h0_coeffs:       coefficients a_i of the true solution.
    beta:            source exponent, beta > 0.
    w0_coeffs:       source element, a_i == sigma_i**beta * w0_i exactly.
    """

    singular_values: np.ndarray
    h0_coeffs: np.ndarray
    beta: float
    w0_coeffs: np.ndarray

    def __post_init__(self):
        sig = _freeze(self.singular_values)
        a = _freeze(self.h0_coeffs)
        w0 = _freeze(self.w0_coeffs)
        object.__setattr__(self, "singular_values", sig)
        object.__setattr__(self, "h0_coeffs", a)
        object.__setattr__(self, "w0_coeffs", w0)
        if sig.ndim != 1 or sig.size < 1:
            raise ValueError("singular_values must be a nonempty 1-d vector")
        if a.shape != sig.shape or w0.shape != sig.shape:
            raise ValueError(
                f"dimension mismatch: sigma {sig.shape}, a {a.shape}, w0 {w0.shape}"
            )
        if not (np.isfinite(sig).all() and np.isfinite(a).all()):
            raise ValueError("non-finite problem coefficients")
        if np.any(sig <= 0.0):
            raise ValueError("singular values must be strictly positive")
        if np.any(np.diff(sig) > 0.0):
            raise ValueError("singular values must be nonincreasing")
        sig2 = _freeze(sig**2)
        if sig2[-1] < np.finfo(np.float64).tiny:
            raise ValueError(f"singular value {sig[-1]} squares below the normal doubles")
        if sig[0] > 1.0:
            raise ValueError(f"largest singular value {sig[0]} exceeds 1")
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not np.array_equal(a, sig**self.beta * w0):
            raise ValueError("h0_coeffs must equal sigma**beta * w0_coeffs exactly")
        # read-only sigma^2 and sigma * a, built once for every solve
        object.__setattr__(self, "_sig2", sig2)
        object.__setattr__(self, "_rhs", _freeze(sig * a))

    @property
    def dim(self) -> int:
        return self.singular_values.size

    def rhs_coeffs(self) -> np.ndarray:
        """Noiseless right-hand side: (T h0)_i = sigma_i * a_i, read-only."""
        return self._rhs


@dataclass(frozen=True)
class NoisyObservation:
    """Observed right-hand-side coefficients with a known noise bound."""

    r_coeffs: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "r_coeffs", _freeze(self.r_coeffs))
        if self.r_coeffs.ndim != 1:
            raise ValueError("r_coeffs must be a 1-d vector")
        if not np.isfinite(self.r_coeffs).all():
            raise ValueError("non-finite observation")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")

    def check_bound(self, prob: SpectralProblem) -> None:
        """Verify ||r - T h0|| <= delta against the generating problem."""
        _check_dim(prob, self.r_coeffs)
        err = _norm(self.r_coeffs - prob.rhs_coeffs())
        if err > self.delta * (1.0 + 1e-9):
            raise ValueError(
                f"observation violates its noise bound: ||r - r0|| = {err} > {self.delta}"
            )


def _check_dim(prob: SpectralProblem, vec: np.ndarray) -> None:
    if vec.shape != prob.singular_values.shape:
        raise ValueError(
            f"dimension mismatch: problem has d={prob.dim}, vector has shape {vec.shape}"
        )


def make_source_problem(
    d: int,
    decay_p: float,
    beta: float,
    w0_coeffs: np.ndarray,
    scale: float = 1.0,
) -> SpectralProblem:
    """Build a polynomially ill-posed problem satisfying a beta-source condition.

    sigma_i = scale * i**(-decay_p) for i = 1..d (so sigma_1 = scale), and
    a_i = sigma_i**beta * w0_i by construction.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not (decay_p > 0.0):
        raise ValueError("decay_p must be positive")
    if not (beta > 0.0):
        raise ValueError("beta must be positive")
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must lie in (0, 1]")
    w0 = np.asarray(w0_coeffs, dtype=np.float64)
    if w0.shape != (d,):
        raise ValueError(f"w0_coeffs must have length {d}, got shape {w0.shape}")
    idx = np.arange(1, d + 1, dtype=np.float64)
    sigma = scale * idx ** (-decay_p)
    a = sigma**beta * w0
    return SpectralProblem(sigma, a, float(beta), w0)


def exact_observation(prob: SpectralProblem, delta: float) -> NoisyObservation:
    """Noiseless right-hand side wrapped with a declared noise bound."""
    return NoisyObservation(prob.rhs_coeffs(), float(delta))


def perturb_observation(
    prob: SpectralProblem, delta: float, rng: np.random.Generator
) -> NoisyObservation:
    """Gaussian perturbation rescaled so that ||r - r0|| equals delta.

    The exact-norm rescaling makes the classical noise bound tight and the
    draw reproducible from the generator state alone.
    """
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    g = rng.standard_normal(prob.dim)
    norm = _norm(g)
    if norm == 0.0:  # pragma: no cover - probability zero
        g = np.ones(prob.dim)
        norm = _norm(g)
    g *= delta / norm
    g += prob.rhs_coeffs()
    obs = NoisyObservation(g, float(delta))
    obs.check_bound(prob)
    return obs


def tikhonov_solve(
    prob: SpectralProblem, r: NoisyObservation, lam: float
) -> np.ndarray:
    """Minimizer of ||T h - r||^2 + lam ||h||^2 in the singular basis.

    coeffs_i = sigma_i * r_i / (sigma_i**2 + lam).  lam = 0 is allowed
    because all singular values are positive; lam = inf gives the zero
    solution.
    """
    _check_dim(prob, r.r_coeffs)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    return _freeze(prob.singular_values * r.r_coeffs / (prob._sig2 + lam))


def strong_metric(prob: SpectralProblem, coeffs: np.ndarray) -> float:
    """||h - h0||: plain 2-norm of the coefficient error."""
    _check_dim(prob, coeffs)
    return _norm(coeffs - prob.h0_coeffs)


def weak_metric(prob: SpectralProblem, coeffs: np.ndarray) -> float:
    """||T (h - h0)||: sigma-weighted 2-norm of the coefficient error."""
    _check_dim(prob, coeffs)
    return _norm(prob.singular_values * (coeffs - prob.h0_coeffs))


def residual_system(prob: SpectralProblem, r: NoisyObservation) -> TikhonovSystem:
    """||T h - r||^2 + lam ||h||^2 as a diagonal TikhonovSystem: mu = sigma^2
    > 0 (a normal double), p = sigma r and L_min = 0, so its loss is the
    squared residual."""
    _check_dim(prob, r.r_coeffs)
    return TikhonovSystem(None, prob._sig2, prob.singular_values * r.r_coeffs,
                          0.0, 0.0)


def classical_dp_select(
    prob: SpectralProblem,
    r: NoisyObservation,
    k: float = 1.5,
    l: float = 2.0,
    lambda0: float = 2.0,
    rho: float = 0.5,
    max_steps: int = 500,
) -> tuple[float, np.ndarray]:
    """Classical residual discrepancy selection on a geometric grid: the
    selected lam and its coefficients.

    If ||r|| <= k * delta the data are indistinguishable from noise and the
    zero solution is returned with lam = inf.  Otherwise the grid
    lambda0 * rho**j is walked downward and the first (largest) lam with
    ||T h_lam - r||^2 <= (k delta)^2 is returned; the preceding grid point then
    certifies the lower bracket k*delta <= ||T h_lam' - r|| with
    lam' = lam / rho <= l * lam, so 1/rho > l is rejected.  Only the
    selected lam is solved for.
    """
    if not (0.0 < k < math.inf):
        raise ValueError("k must be positive and finite")
    if not (l > 1.0):
        raise ValueError("l must exceed 1")
    if not (0.0 < lambda0 < math.inf):
        raise ValueError("lambda0 must be positive and finite")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    if 1.0 / rho > l:
        raise ValueError(f"1/rho = {1.0 / rho} exceeds l = {l}, so the grid "
                         "cannot certify the bracket lam' <= l * lam")
    if not (max_steps >= 1):
        raise ValueError("max_steps must be at least 1")
    _check_dim(prob, r.r_coeffs)
    threshold = k * r.delta
    if _norm(r.r_coeffs) <= threshold:
        return INFINITE_LAMBDA, _freeze(np.zeros(prob.dim))
    path, converged = walk(residual_system(prob, r), threshold**2,
                           lambda0, rho, max_steps)
    if not converged:
        raise GridExhaustedError(
            f"no grid point below lambda0={lambda0} met the residual bound "
            f"{threshold} within {max_steps} steps; delta may be inconsistent "
            "with the problem"
        )
    selected = path[-1][0]
    return selected, tikhonov_solve(prob, r, selected)

