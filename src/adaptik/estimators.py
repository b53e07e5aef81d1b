"""Data-driven regularized estimators over sieve classes.

Two families, both quadratic in the sieve coefficients:

RDIV (operator regression, then ridge).  Stage 1 regresses every
X-basis function on the Z-basis, giving a matrix B with
(T^ h)(z) = phi(z)^T B c for h = sum_k c_k psi_k.  Stage 2 minimizes

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
are blocks of it; no n-row product is formed after the Gram.  A
TikhonovSystem factors this once per fold: it whitens by G and
diagonalizes the whitened A into G-orthonormal V with V'A V = diag(mu).
Each lambda is then the filter w = p / (mu + lam), p = V'rhs, giving
coefficients V w, penalty sum w^2 and loss const - sum w^2 (mu + 2 lam);
the search asks for the losses of a block of lambdas in one broadcast.
Directions with mu + lam <= sqrt(eps) * max(mu), and basis directions
with G-eigenvalue <= sqrt(eps) times the largest, get weight 0, so
lam = 0 gives the minimum-G-norm minimizer of L, whatever the sieve's
parameterization.  K * eps would be too small a cutoff: rounding leaves
null directions of A near 1e-13 * max(mu).  Other symmetric solves use
Cholesky and raise NumericalError when it fails; nothing falls back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# empirical_gram stays importable here for perfbench's tracer alias test
from adaptik.sieve import Dataset, SieveBasis, empirical_gram, stacked_gram  # noqa: F401

__all__ = [
    "NumericalError",
    "OperatorEstimate",
    "MomentFunctional",
    "FitResult",
    "TikhonovSystem",
    "outcome_moment",
    "ate_moment",
    "mean_moment",
    "rdiv_stage1",
    "rdiv_fit",
    "rdiv_loss",
    "trae_inner_max",
    "trae_fit",
    "trae_dual_fit",
    "RdivEstimator",
    "TraeEstimator",
]


class NumericalError(RuntimeError):
    """A solve produced non-finite values or an irrecoverably singular system."""


def _invertible(a: np.ndarray, cond_cap: float = 1e12) -> bool:
    cond = np.linalg.cond(a)
    return bool(np.isfinite(cond) and cond < cond_cap)


def _solve_spd(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Solve a symmetric positive definite system by Cholesky."""
    try:
        cf = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"{context}: system is not positive definite ({exc})"
        ) from None
    x = scipy.linalg.cho_solve(cf, b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{context}: solve produced non-finite values")
    return x


# -- domain types ----------------------------------------------------------------

@dataclass(frozen=True)
class OperatorEstimate:
    """Stage-1 regression operator: column k of B maps psi_k(X) onto the Z-sieve."""

    b: np.ndarray           # (J, K)
    ridge_stage1: float
    basis_x: SieveBasis
    basis_z: SieveBasis

    def __post_init__(self):
        if not np.all(np.isfinite(self.b)):
            raise NumericalError("operator estimate has non-finite entries")


@dataclass(frozen=True)
class MomentFunctional:
    """A known linear functional f -> m(W; f), evaluated on sieve elements.

    `matrix(data, basis, arg)` returns the (n, K) array with entry
    (i, k) = m(W_i; phi_k) where the test functions read the `arg`
    feature block ("x" or "z").  Linearity in f is then automatic:
    per-record values of m(W; f_c) are matrix @ c.
    """

    kind: str
    treatment_col: int = 0

    def __post_init__(self):
        if self.kind not in ("outcome", "ate", "mean"):
            raise ValueError(f"unknown moment kind {self.kind!r}")

    def matrix(self, data: Dataset, basis: SieveBasis, arg: str,
               values: np.ndarray | None = None) -> np.ndarray:
        """values, if given, is basis evaluated on the arg block of data;
        the outcome and mean kinds use it instead of evaluating again."""
        pts = _feature_block(data, arg)
        if self.kind == "ate":
            pts = np.array(pts)
            pts[:, self.treatment_col] = 1.0
            out = basis.evaluate(pts)
            pts[:, self.treatment_col] = 0.0
            out -= basis.evaluate(pts)
            return out
        if values is None:
            values = basis.evaluate(pts)
        if self.kind == "outcome":
            return data.y[:, None] * values
        return values


def _feature_block(data: Dataset, arg: str) -> np.ndarray:
    if arg == "x":
        return data.x
    if arg == "z":
        return data.z
    raise ValueError(f"arg must be 'x' or 'z', got {arg!r}")


def outcome_moment() -> MomentFunctional:
    """m(W; f) = Y * f(arg), the moment whose representer is E[Y | Z]."""
    return MomentFunctional("outcome")


def ate_moment(treatment_col: int = 0) -> MomentFunctional:
    """m(W; h) = h(arg with treatment 1) - h(arg with treatment 0)."""
    return MomentFunctional("ate", treatment_col=treatment_col)


def mean_moment() -> MomentFunctional:
    """m(W; h) = h(arg), whose expectation is the mean of h."""
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

    vecs holds the G-orthonormal eigenvectors V (K, r), mu the
    eigenvalues of A relative to G and p = V'rhs; directions with
    mu + lam <= floor get weight 0.  For TRAE, adversary holds
    (M^{-1} g, M^{-1} B), whose difference at c is the inner maximizer.
    """

    vecs: np.ndarray
    mu: np.ndarray
    p: np.ndarray
    const: float
    floor: float
    adversary: tuple | None = None

    @classmethod
    def factor(cls, a: np.ndarray, rhs: np.ndarray, const: float,
               gram: np.ndarray, adversary: tuple | None = None) -> "TikhonovSystem":
        """Whiten by gram, then diagonalize the whitened a."""
        s, u = scipy.linalg.eigh(gram)
        keep = s > _CUTOFF * s.max(initial=0.0)
        white = u[:, keep] / np.sqrt(s[keep])
        mu, q = scipy.linalg.eigh(white.T @ a @ white)
        vecs = white @ q
        floor = _CUTOFF * max(float(mu.max(initial=0.0)), 0.0)
        return cls(vecs, mu, vecs.T @ rhs, float(const), floor, adversary)

    def losses(self, lams: np.ndarray):
        """The loss at each lambda of the column lams, as solve computes
        it; each row is reduced when it is reached."""
        denom = self.mu + lams
        keep = denom > self.floor
        w = np.zeros(denom.shape)
        w[keep] = np.broadcast_to(self.p, denom.shape)[keep] / denom[keep]
        return (self.const - float(row**2 @ (self.mu + 2.0 * lam))
                for row, lam in zip(w, lams[:, 0].tolist()))

    def solve(self, lam: float) -> FitResult:
        """The penalized minimizer at lam, in O(K r) after the factorization."""
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {lam}")
        denom = self.mu + lam
        keep = denom > self.floor
        w = np.zeros_like(self.p)
        w[keep] = self.p[keep] / denom[keep]
        coeffs = self.vecs @ w
        loss = self.const - float(w**2 @ (self.mu + 2.0 * lam))
        inner = None
        if self.adversary is not None:
            minv_g, minv_b = self.adversary
            inner = minv_g - minv_b @ coeffs
        return FitResult(coeffs, float(lam), loss, float(w @ w), inner)


# -- RDIV ------------------------------------------------------------------------

def rdiv_stage1(
    data: Dataset,
    basis_x: SieveBasis,
    basis_z: SieveBasis,
    ridge_stage1: float | None = None,
) -> OperatorEstimate:
    """Estimate the conditional-mean operator by per-function ridge regression.

    B = (Phi'Phi/n + eps1 I)^{-1} (Phi'Psi/n); column k holds the
    coefficients of the regression of psi_k(X) on the Z-sieve.  With
    ridge_stage1 = None a small conditioning ridge proportional to the
    mean Gram eigenvalue is used; an explicit 0 demands a nonsingular
    Gram and raises with a condition estimate otherwise.
    """
    return _stage1(_fold_gram(data, basis_x, basis_z)[0], basis_x, basis_z,
                   ridge_stage1)


def _stage1(gram: np.ndarray, basis_x: SieveBasis, basis_z: SieveBasis,
            ridge_stage1: float | None) -> OperatorEstimate:
    """Stage 1 from the stacked Gram of [basis_x(x) | basis_z(z) | y]."""
    k = basis_x.n_funcs
    gram_z, cross = gram[k:-1, k:-1], gram[k:-1, :k]
    j = gram_z.shape[0]
    if ridge_stage1 is None:
        ridge_stage1 = 1e-6 * float(np.trace(gram_z)) / j
    if ridge_stage1 < 0.0:
        raise ValueError("ridge_stage1 must be nonnegative")
    a = gram_z + ridge_stage1 * np.eye(j)
    if ridge_stage1 == 0.0 and not _invertible(gram_z):
        raise NumericalError(
            "stage-1 normal equations are singular with zero ridge "
            f"(condition estimate {np.linalg.cond(gram_z):.3e})"
        )
    b = _solve_spd(a, cross, "rdiv stage 1")
    return OperatorEstimate(b, float(ridge_stage1), basis_x, basis_z)


def _rdiv_system(op: OperatorEstimate, gram: np.ndarray) -> TikhonovSystem:
    """Stage 2 from the stacked Gram of the stage-2 sample: the moments of
    Phi B c are B'G_z B and B'(Phi'y/n), with G_z that sample's Z-Gram."""
    k = op.b.shape[1]
    a = op.b.T @ gram[k:-1, k:-1] @ op.b
    return TikhonovSystem.factor((a + a.T) / 2.0, op.b.T @ gram[k:-1, -1],
                                 float(gram[-1, -1]), gram[:k, :k])


def rdiv_fit(data: Dataset, op: OperatorEstimate, lam: float) -> FitResult:
    """Penalized least squares against the estimated operator.

    Minimizes (1/n)||y - Phi B c||^2 + lam c'G_x c.  lam = 0 is accepted
    for the unregularized baseline and gives the minimum-G_x-norm
    least-squares fit.
    """
    return _rdiv_system(op, _fold_gram(data, op.basis_x, op.basis_z)[0]).solve(lam)


def rdiv_loss(data: Dataset, op: OperatorEstimate, coeffs: np.ndarray) -> float:
    """(1/n) sum_i (y_i - phi(z_i)' B c)^2."""
    phi = op.basis_z.evaluate(data.z)
    resid = data.y - phi @ (op.b @ np.asarray(coeffs, dtype=np.float64))
    return float(resid @ resid / data.n)


# -- TRAE ------------------------------------------------------------------------

def _default_inner_ridge(m: np.ndarray) -> float:
    return 1e-8 * float(np.trace(m)) / m.shape[0]


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
    g = TraeEstimator(moment, basis_h, basis_f).adversary_mean(data, adv)
    m, g, b = _adversary_mats(gram, basis_h.n_funcs, g)
    if ridge_inner is None:
        ridge_inner = _default_inner_ridge(m)
    if ridge_inner < 0.0:
        raise ValueError("ridge_inner must be nonnegative")
    if ridge_inner == 0.0 and not _invertible(m):
        raise NumericalError(
            "adversary Gram is singular with zero ridge "
            f"(condition estimate {np.linalg.cond(m):.3e})"
        )
    v = g - b @ np.asarray(coeffs_h, dtype=np.float64)
    f = _solve_spd(m + ridge_inner * np.eye(m.shape[0]), v, "trae inner max")
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
    return TraeEstimator(moment, basis_h, basis_f, ridge_inner).system(data).solve(lam)


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
# Each handle builds the TikhonovSystem of a fold, from its data or from
# its stacked Gram; the search and every fixed lambda solve from it.

@dataclass(frozen=True)
class RdivEstimator:
    basis_x: SieveBasis
    basis_z: SieveBasis
    ridge_stage1: float | None = None

    def system(self, data: Dataset) -> TikhonovSystem:
        """Tests' from-data reference (TestSharedFits, TestThreadCountIndependence)."""
        return self.system_from(_fold_gram(data, self.basis_x, self.basis_z)[0])

    def system_from(self, gram: np.ndarray) -> TikhonovSystem:
        """The system from the stacked Gram of [basis_x(x) | basis_z(z) | y]."""
        op = _stage1(gram, self.basis_x, self.basis_z, self.ridge_stage1)
        return _rdiv_system(op, gram)


@dataclass(frozen=True)
class TraeEstimator:
    moment: MomentFunctional
    basis_h: SieveBasis
    basis_f: SieveBasis
    ridge_inner: float | None = None

    def system(self, data: Dataset) -> TikhonovSystem:
        """From data, for trae_fit and as the reference TestSharedFits and
        TestThreadCountIndependence check Gram-built systems against."""
        gram, adv = _fold_gram(data, self.basis_h, self.basis_f)
        return self.system_from(gram, self.adversary_mean(data, adv))

    def adversary_mean(self, data: Dataset, adv: np.ndarray) -> np.ndarray | None:
        """g_j = E_n[m(W; phi_j)] given adv = unscaled basis_f(z) of data;
        None for the outcome moment, whose g is Phi'y/n of the stacked Gram."""
        if self.moment.kind != "outcome":
            values = adv * self.basis_f.normalization
            return self.moment.matrix(data, self.basis_f, "z", values).mean(axis=0)

    def system_from(self, gram: np.ndarray,
                    g: np.ndarray | None = None) -> TikhonovSystem:
        """The system from the stacked Gram of [basis_h(x) | basis_f(z) | y]
        and, for a moment other than the outcome one, adversary_mean g."""
        k = self.basis_h.n_funcs
        m, g, b = _adversary_mats(gram, k, g)
        ridge = self.ridge_inner
        if ridge is None:
            ridge = _default_inner_ridge(m)
        minv = _solve_spd(m + ridge * np.eye(m.shape[0]),
                          np.column_stack([g, b]), "trae system")
        minv_g, minv_b = minv[:, 0], minv[:, 1:]
        return TikhonovSystem.factor(b.T @ minv_b, b.T @ minv_g,
                                     float(g @ minv_g), gram[:k, :k],
                                     (minv_g, minv_b))
