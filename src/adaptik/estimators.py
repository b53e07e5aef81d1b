"""Data-driven regularized estimators over sieve classes.

Two families, both quadratic in the sieve coefficients:

RDIV (operator regression, then ridge).  Stage 1 regresses every
X-basis function on the Z-basis, giving a matrix B with
(T^ h)(z) = phi(z)^T B c for h = sum_k c_k psi_k; rdiv_stage1 reads it
from the fold's stacked Gram.  Stage 2, on the same fold, minimizes

    (1/n) ||y - Phi B c||^2 + lam * c^T G_x c,

where G_x is the empirical X-basis Gram, so the empirical loss is the
mean squared residual of y against the estimated conditional mean of h.

TRAE (adversarial Tikhonov).  The empirical loss is the inner maximum

    L_n(h) = max_f  E_n[2 m(W; f) - 2 h(X) f(Z) - f(Z)^2]

over the Z-sieve, which is a concave quadratic with maximizer
f = M^{-1} (g - B c), value (g - B c)^T M^{-1} (g - B c), where
g_j = E_n[m(W; phi_j)], B_jk = E_n[psi_k(X) phi_j(Z)], M the Z-Gram.
The outer problem adds lam * c^T G_x c and stays quadratic in c.  The
dual fit is the same problem on the records with X and Z swapped
(Dataset.swapped), with the target moment in place of the outcome one.

Every estimator minimizes L(c) + lam c'G c with L(c) = const - 2 rhs'c
+ c'A c, where G is the empirical Gram of the hypothesis basis.  These
are second moments of (psi(X), phi(Z), Y), so a system is built from the
fold's stacked Gram of [psi | phi | y] alone (sieve.stacked_gram): RDIV's
stage 2 is A = B'G_z B, rhs = B'(Phi'y/n), and TRAE's B and outcome g
are blocks of it; no n-row product is formed after the Gram.  An
estimator handle's system_from is the one way to a system; trae_fit and
trae_dual_fit stack a fold's Gram from its records and call it.  A
TikhonovSystem factors this once per fold: it whitens by G and
diagonalizes the whitened A into G-orthonormal V with V'A V = diag(mu).
Each lambda is then the filter w = p / (mu + lam), p = V'rhs, giving
coefficients V w, penalty sum w^2 and loss L_min + lam^2 sum_P w^2/mu:
L_min = const - sum_P p^2/mu is the least loss over P = {mu > floor},
and the excess over it does not cancel at small lam (a kept direction
outside P adds - w^2 (mu + 2 lam)).  The search asks for the losses of a
block of lambdas in one broadcast.  Directions with mu + lam <=
sqrt(eps) * max(mu), and basis directions with G-eigenvalue <= sqrt(eps)
times the largest, get weight 0, so lam = 0 gives the minimum-G-norm
minimizer of L, whatever the sieve's parameterization.  K * eps would be
too small a cutoff: rounding leaves null directions of A near 1e-13 *
max(mu).  Every factorization is numpy.linalg's: the other symmetric
solves check positive definiteness by Cholesky, raise NumericalError
when it fails and then solve by LU; nothing falls back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# empirical_gram stays importable here for perfbench's tracer alias test
from adaptik.sieve import Dataset, SieveBasis, empirical_gram, stacked_gram  # noqa: F401

__all__ = [
    "NumericalError",
    "MomentFunctional",
    "FitResult",
    "TikhonovSystem",
    "outcome_moment",
    "ate_moment",
    "mean_moment",
    "rdiv_stage1",
    "rdiv_loss",
    "trae_inner_max",
    "trae_fit",
    "trae_dual_fit",
    "RdivEstimator",
    "TraeEstimator",
]


class NumericalError(RuntimeError):
    """A solve produced non-finite values or an irrecoverably singular system."""


def _solve_spd(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Solve a symmetric positive definite system; a failed Cholesky
    factorization is the positive-definiteness check."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"{context}: system is not positive definite ({exc})"
        ) from None
    x = np.linalg.solve(a, b)
    if not np.isfinite(x).all():
        raise NumericalError(f"{context}: solve produced non-finite values")
    return x


def _ridge_solve(m: np.ndarray, rhs: np.ndarray, ridge: float | None,
                 scale: float, context: str) -> np.ndarray:
    """Solve (m + ridge I) x = rhs for a Gram m.  ridge None means
    scale times the mean eigenvalue of m; an explicit 0 demands a
    nonsingular m and raises with a condition estimate otherwise."""
    j = m.shape[0]
    if ridge is None:
        ridge = scale * float(np.trace(m)) / j
    if ridge < 0.0:
        raise ValueError(f"{context}: ridge must be nonnegative, got {ridge}")
    if ridge == 0.0:
        cond = np.linalg.cond(m)
        if not (np.isfinite(cond) and cond < 1e12):
            raise NumericalError(f"{context}: Gram is singular with zero ridge "
                                 f"(condition estimate {cond:.3e})")
    return _solve_spd(m + ridge * np.eye(j), rhs, context)


# -- domain types ----------------------------------------------------------------

@dataclass(frozen=True)
class MomentFunctional:
    """A known linear functional f -> m(W; f), evaluated on sieve elements.

    `matrix(points, y, basis)` returns the (n, K) array with entry
    (i, k) = m(W_i; phi_k), where phi_k reads the feature block points
    (the records' x or z) and y is their outcome.  Linearity in f is
    then automatic: per-record values of m(W; f_c) are matrix @ c.
    """

    kind: str
    treatment_col: int = 0

    def __post_init__(self):
        if self.kind not in ("outcome", "ate", "mean"):
            raise ValueError(f"unknown moment kind {self.kind!r}")

    def matrix(self, points: np.ndarray, y: np.ndarray, basis: SieveBasis,
               values: np.ndarray | None = None) -> np.ndarray:
        """values, if given, is basis evaluated on points; the outcome and
        mean kinds use it instead of evaluating again."""
        if self.kind == "ate":
            pts = np.array(points)
            pts[:, self.treatment_col] = 1.0
            out = basis.evaluate(pts)
            pts[:, self.treatment_col] = 0.0
            out -= basis.evaluate(pts)
            return out
        if values is None:
            values = basis.evaluate(points)
        if self.kind == "outcome":
            return y[:, None] * values
        return values


def outcome_moment() -> MomentFunctional:
    """m(W; f) = Y * f(points), the moment whose representer is E[Y | Z]."""
    return MomentFunctional("outcome")


def ate_moment(treatment_col: int = 0) -> MomentFunctional:
    """m(W; h) = h(points with treatment 1) - h(points with treatment 0)."""
    return MomentFunctional("ate", treatment_col=treatment_col)


def mean_moment() -> MomentFunctional:
    """m(W; h) = h(points), whose expectation is the mean of h."""
    return MomentFunctional("mean")


@dataclass(frozen=True)
class FitResult:
    """A fitted coefficient vector plus the quantities the DP loop consumes."""

    coeffs: np.ndarray
    lam: float
    empirical_loss: float
    norm_penalty: float
    inner_adversary: np.ndarray | None = None

    def __post_init__(self):
        if not math.isfinite(self.empirical_loss):
            raise NumericalError("empirical loss is not finite")
        if self.norm_penalty < 0.0:
            raise NumericalError("norm penalty is negative")

    def to_record(self) -> dict:
        rec = {
            "coeffs": np.asarray(self.coeffs).tolist(),
            "lambda": self.lam,
            "empirical_loss": self.empirical_loss,
            "norm_penalty": self.norm_penalty,
        }
        if self.inner_adversary is not None:
            rec["inner_adversary"] = np.asarray(self.inner_adversary).tolist()
        return rec


# relative eigenvalue cutoff of TikhonovSystem (see the module docstring)
_CUTOFF = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TikhonovSystem:
    """The quadratic L(c) + lam c'G c of one fold, factored once.

    vecs holds the G-orthonormal eigenvectors V (K, r), or None for I,
    mu the eigenvalues of A relative to G, p = V'rhs and l_min the least
    loss over P; directions with mu + lam <= floor get weight 0.  TRAE's
    adversary (M^{-1} g, M^{-1} B) gives the inner maximizer at c.
    """

    vecs: np.ndarray | None
    mu: np.ndarray
    p: np.ndarray
    l_min: float
    floor: float
    adversary: tuple | None = None

    def __post_init__(self):
        # loss constants: indices outside P, p / sqrt(mu) with mu = inf there
        inside = self.mu > self.floor
        mu_p = np.where(inside, self.mu, np.inf)
        object.__setattr__(self, "_out", (~inside).nonzero()[0])
        object.__setattr__(self, "_mu_p", mu_p)
        object.__setattr__(self, "_p_scaled", self.p / np.sqrt(mu_p))

    @classmethod
    def factor(cls, a: np.ndarray, rhs: np.ndarray, const: float,
               gram: np.ndarray, adversary: tuple | None = None) -> "TikhonovSystem":
        """Whiten by gram, then diagonalize the whitened a."""
        # numpy's eigh returns NaN eigenvalues here, which the cutoff
        # would silently drop as null directions
        if not (np.isfinite(gram).all() and np.isfinite(a).all()):
            raise NumericalError("Tikhonov system has non-finite entries")
        s, u = np.linalg.eigh(gram)
        keep = s > _CUTOFF * s.max(initial=0.0)
        white = u[:, keep] / np.sqrt(s[keep])
        mu, q = np.linalg.eigh(white.T @ a @ white)
        vecs = white @ q
        floor = _CUTOFF * max(float(mu.max(initial=0.0)), 0.0)
        p, inside = vecs.T @ rhs, mu > floor
        l_min = float(const) - float(p[inside] ** 2 @ (1.0 / mu[inside]))
        return cls(vecs, mu, p, l_min, floor, adversary)

    def _filter(self, p: np.ndarray, denom: np.ndarray) -> np.ndarray:
        """p / denom, and 0 where denom <= floor."""
        return np.divide(p, denom, out=np.zeros(denom.shape),
                         where=denom > self.floor)

    def losses(self, lams: np.ndarray):
        """The loss at each lambda of the column lams, each row reduced
        when it is reached; solve's loss is the row of its lam."""
        v = self._p_scaled / (self._mu_p + lams)
        for row, lam in zip(v, lams[:, 0].tolist()):
            yield self._loss(row, lam)

    def _loss(self, row: np.ndarray, lam: float) -> float:
        """The loss at lam from its row p / sqrt(mu) / (mu + lam)."""
        loss = self.l_min + lam * lam * float(row.dot(row))
        out = self._out
        if out.size:
            w = self._filter(self.p[out], self.mu[out] + lam)
            loss -= float(w**2 @ (self.mu[out] + 2.0 * lam))
        return loss

    def solve(self, lam: float) -> FitResult:
        """The penalized minimizer at lam, in O(K r) after the factorization."""
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {lam}")
        w = self._filter(self.p, self.mu + lam)
        coeffs = w if self.vecs is None else self.vecs @ w
        inner = None
        if self.adversary is not None:
            minv_g, minv_b = self.adversary
            inner = minv_g - minv_b @ coeffs
        lam = float(lam)
        loss = self._loss(self._p_scaled / (self._mu_p + lam), lam)
        return FitResult(coeffs, lam, loss, float(w @ w), inner)


# -- RDIV ------------------------------------------------------------------------

def rdiv_stage1(gram: np.ndarray, k: int,
                ridge_stage1: float | None = None) -> np.ndarray:
    """The stage-1 operator B from the stacked Gram of [basis_x(x) (k
    columns) | basis_z(z) | y], by per-function ridge regression.

    B = (Phi'Phi/n + eps1 I)^{-1} (Phi'Psi/n); column j holds the
    coefficients of the regression of psi_j(X) on the Z-sieve.  With
    ridge_stage1 = None a small conditioning ridge proportional to the
    mean Gram eigenvalue is used; an explicit 0 demands a nonsingular
    Gram and raises with a condition estimate otherwise.
    """
    return _ridge_solve(gram[k:-1, k:-1], gram[k:-1, :k], ridge_stage1, 1e-6,
                        "rdiv stage 1")


def rdiv_loss(data: Dataset, b: np.ndarray, basis_z: SieveBasis,
              coeffs: np.ndarray) -> float:
    """(1/n) sum_i (y_i - phi(z_i)' B c)^2."""
    phi = basis_z.evaluate(data.z)
    resid = data.y - phi @ (b @ np.asarray(coeffs, dtype=np.float64))
    return float(resid @ resid / data.n)


# -- TRAE ------------------------------------------------------------------------

def _fold_gram(data: Dataset, basis_h: SieveBasis,
               basis_f: SieveBasis) -> tuple[np.ndarray, np.ndarray]:
    """The stacked Gram of [basis_h(x) | basis_f(z) | y] on data, and the
    unscaled basis_f(z)."""
    hyp = basis_h.unscaled().evaluate(data.x)
    adv = basis_f.unscaled().evaluate(data.z)
    return stacked_gram((hyp, adv), data.y, (basis_h, basis_f)), adv


def _adversary_mats(gram: np.ndarray, k: int, g: np.ndarray | None) -> tuple:
    """(M, g, B) of the inner maximum from the stacked Gram of [hypothesis
    (k) | adversary | y]; g defaults to the outcome moment's, Phi'y/n."""
    adv = slice(k, -1)
    return gram[adv, adv], gram[adv, -1] if g is None else g, gram[adv, :k]


def trae_inner_max(
    data: Dataset,
    moment: MomentFunctional,
    basis_h: SieveBasis,
    basis_f: SieveBasis,
    coeffs_h: np.ndarray,
    ridge_inner: float | None = None,
) -> tuple[np.ndarray, float]:
    """Closed-form inner maximization of the adversarial loss at fixed h.

    Returns (f_coeffs, value) with f = (M + ridge I)^{-1}(g - B c) and
    value = (g - B c)' f; with ridge 0 the value is the exact maximum of
    E_n[2 m(W; f) - 2 h(X) f(Z) - f(Z)^2] over the span of basis_f.
    """
    gram, adv = _fold_gram(data, basis_h, basis_f)
    g = TraeEstimator(moment, basis_h, basis_f).adversary_mean(data.z, data.y, adv)
    m, g, b = _adversary_mats(gram, basis_h.n_funcs, g)
    v = g - b @ np.asarray(coeffs_h, dtype=np.float64)
    f = _ridge_solve(m, v, ridge_inner, 1e-8, "trae inner max")
    return f, float(v @ f)


def trae_fit(
    data: Dataset,
    moment: MomentFunctional,
    basis_h: SieveBasis,
    basis_f: SieveBasis,
    lam: float,
    ridge_inner: float | None = None,
) -> FitResult:
    """Adversarial Tikhonov fit of h over the X-sieve.

    Plugging the closed-form inner maximum into the outer problem gives
    the convex quadratic (g - B c)' M^{-1} (g - B c) + lam c' G_x c; the
    stored empirical loss is the inner-max value at the fitted
    coefficients.
    """
    est = TraeEstimator(moment, basis_h, basis_f, ridge_inner)
    gram, adv = _fold_gram(data, basis_h, basis_f)
    return est.system_from(gram, est.adversary_mean(data.z, data.y, adv)).solve(lam)


def trae_dual_fit(
    data: Dataset,
    moment: MomentFunctional,
    basis_q: SieveBasis,
    basis_s: SieveBasis,
    lam: float,
    ridge_inner: float | None = None,
) -> FitResult:
    """Adversarial Tikhonov fit of the dual representer q over the Z-sieve:
    trae_fit on the records with X and Z swapped, with the target moment
    in place of the outcome moment."""
    return trae_fit(data.swapped(), moment, basis_q, basis_s, lam, ridge_inner)


# -- uniform estimator handles ------------------------------------------------
#
# Each handle builds the TikhonovSystem of a fold from its stacked Gram;
# the search and every fixed lambda solve from it.

@dataclass(frozen=True)
class RdivEstimator:
    basis_x: SieveBasis
    ridge_stage1: float | None = None

    def system_from(self, gram: np.ndarray) -> TikhonovSystem:
        """The system from the stacked Gram of [basis_x(x) | basis_z(z) | y],
        for any instrument basis_z: stage 2's moments of Phi B c are
        B'G_z B and B'(Phi'y/n)."""
        k = self.basis_x.n_funcs
        b = rdiv_stage1(gram, k, self.ridge_stage1)
        a = b.T @ gram[k:-1, k:-1] @ b
        return TikhonovSystem.factor((a + a.T) / 2.0, b.T @ gram[k:-1, -1],
                                     float(gram[-1, -1]), gram[:k, :k])


@dataclass(frozen=True)
class TraeEstimator:
    moment: MomentFunctional
    basis_h: SieveBasis
    basis_f: SieveBasis
    ridge_inner: float | None = None

    def adversary_mean(self, points: np.ndarray, y: np.ndarray,
                       adv: np.ndarray) -> np.ndarray | None:
        """g_j = E_n[m(W; phi_j)] given the adversary's feature block points,
        the outcome y and adv = unscaled basis_f(points); None for the
        outcome moment, whose g is Phi'y/n of the stacked Gram."""
        if self.moment.kind != "outcome":
            values = adv * self.basis_f.normalization
            return self.moment.matrix(points, y, self.basis_f, values).mean(axis=0)

    def system_from(self, gram: np.ndarray,
                    g: np.ndarray | None = None) -> TikhonovSystem:
        """The system from the stacked Gram of [basis_h(x) | basis_f(z) | y]
        and, for a moment other than the outcome one, adversary_mean g."""
        k = self.basis_h.n_funcs
        m, g, b = _adversary_mats(gram, k, g)
        minv = _ridge_solve(m, np.column_stack([g, b]), self.ridge_inner,
                            1e-8, "trae system")
        minv_g, minv_b = minv[:, 0], minv[:, 1:]
        return TikhonovSystem.factor(b.T @ minv_b, b.T @ minv_g,
                                     float(g @ minv_g), gram[:k, :k],
                                     (minv_g, minv_b))
