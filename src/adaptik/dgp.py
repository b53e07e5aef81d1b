"""Seeded synthetic data generators with analytic ground truths.

Two designs:

* Proxy negative control.  A binary treatment A confounded by a latent
  U that is only seen through an outcome proxy W and a treatment proxy
  Q, with observed covariates S.  All structural equations are linear
  in the latents; the observables are componentwise signed cube roots
  of the latents, so the average treatment effect has the closed form

      ate = 1 + 1'(I + Gamma_w) kappa_a.

  The latent noises of U, W and Q are N(0, 0.25 I), fixed by the
  design.  Features are packed as X = (A, W, S) and Z = (A, Q, S).

* Circular NPIV.  Z is uniform on [-pi, pi); X = Z + eta wrapped to the
  circle, where eta is a variance-gamma smoothing noise whose
  characteristic function is (1 + k^2 b^2)^(-p/2).  On the unit-scaled
  Fourier dictionary the conditional-expectation operator is therefore
  exactly diagonal with singular value (1 + k^2 b^2)^(-p/2) at integer
  frequency k, which makes strong/weak errors and the target functional
  E[h0(X)] (X is again uniform, so it equals the constant coefficient)
  computable in closed form.  The outcome noise is correlated with eta
  but mean-independent of Z, giving controllable endogeneity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adaptik.sieve import Dataset, SieveBasis, trigonometric_basis
from adaptik.util import stream_rng

__all__ = [
    "ProxyNcParams",
    "NpivParams",
    "NpivTruth",
    "gen_proxy_nc",
    "true_ate",
    "gen_npiv",
]


# observation transforms, applied to every latent coordinate
_TRANSFORMS: dict[str, Callable] = {"cbrt": np.cbrt, "identity": lambda x: x}


@dataclass(frozen=True)
class ProxyNcParams:
    """Structural parameters of the proxy negative-control design.

    Loadings are sampled once from the master seed and then frozen.  The
    latent noises eps_u, eps_w and eps_q are N(0, 0.25 I), a constant of
    the design.  The treatment model is
    A | S' ~ Bernoulli(sigmoid(0.125 - 0.125 * sum(S'))).
    """

    d_s: int = 15
    d_q: int = 15
    d_w: int = 1
    mu_0: np.ndarray = None
    kappa_0: np.ndarray = None
    kappa_a: np.ndarray = None
    mu_s: np.ndarray = None       # (d_s, d_w)
    kappa_s: np.ndarray = None    # (d_s, d_w)
    gamma_w: np.ndarray = None    # (d_w, d_w)
    b_q: np.ndarray = None        # (d_s, d_q)
    c_q: np.ndarray = None        # (d_w, d_q)
    transform: str = "cbrt"
    master_seed: int = 0
    emit_latents: bool = False

    def __post_init__(self):
        if min(self.d_s, self.d_q, self.d_w) < 1:
            raise ValueError("dimensions must be positive")
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        shapes = {
            "mu_0": (self.d_w,),
            "kappa_0": (self.d_w,),
            "kappa_a": (self.d_w,),
            "mu_s": (self.d_s, self.d_w),
            "kappa_s": (self.d_s, self.d_w),
            "gamma_w": (self.d_w, self.d_w),
            "b_q": (self.d_s, self.d_q),
            "c_q": (self.d_w, self.d_q),
        }
        for name, shape in shapes.items():
            val = getattr(self, name)
            if val is None:
                raise ValueError(f"{name} is unset; build params via ProxyNcParams.default")
            arr = np.asarray(val, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def default(cls, master_seed: int = 0, *, d_s: int = 15, d_q: int = 15,
                d_w: int = 1, transform: str = "cbrt",
                emit_latents: bool = False) -> "ProxyNcParams":
        """Draw the loadings once: entries uniform in [-0.25, 0.25]."""
        rng = stream_rng(master_seed, 0xD6B)
        u = lambda *shape: rng.uniform(-0.25, 0.25, size=shape)
        return cls(
            d_s=d_s, d_q=d_q, d_w=d_w,
            mu_0=u(d_w), kappa_0=u(d_w), kappa_a=u(d_w),
            mu_s=u(d_s, d_w), kappa_s=u(d_s, d_w),
            gamma_w=u(d_w, d_w),
            b_q=u(d_s, d_q), c_q=u(d_w, d_q),
            transform=transform,
            master_seed=master_seed,
            emit_latents=emit_latents,
        )


def true_ate(params: ProxyNcParams) -> float:
    """Closed-form average treatment effect of the linear structural system.

    Switching A on shifts U by kappa_a and W' by Gamma_w kappa_a, and the
    outcome adds 1 directly, so ate = 1 + 1'(I + Gamma_w) kappa_a.
    """
    ones = np.ones(params.d_w)
    return 1.0 + float(
        ones @ (np.eye(params.d_w) + params.gamma_w) @ params.kappa_a
    )


def gen_proxy_nc(
    params: ProxyNcParams, n: int, rng: np.random.Generator
) -> tuple[Dataset, float]:
    """Draw n records from rng and return them with the analytic
    treatment effect.

    Draw order is fixed (S', A, eps_u, eps_q, eps_w, eps_y) so a given
    generator state always yields the same dataset.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g_fwd = _TRANSFORMS[params.transform]

    s_lat = rng.normal(0.0, math.sqrt(0.5), size=(n, params.d_s))
    logits = 0.125 - 0.125 * s_lat.sum(axis=1)
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
    eps_u = 0.5 * rng.standard_normal((n, params.d_w))
    eps_q = 0.5 * rng.standard_normal((n, params.d_q))
    eps_w = 0.5 * rng.standard_normal((n, params.d_w))
    eps_y = rng.standard_normal(n)

    u = params.kappa_0 + s_lat @ params.kappa_s + a[:, None] * params.kappa_a + eps_u
    q_lat = (
        0.2
        + s_lat @ params.b_q
        + a[:, None]
        + u @ params.c_q
        + eps_q
    )
    w_lat = params.mu_0 + s_lat @ params.mu_s + u @ params.gamma_w.T + eps_w
    y = a + s_lat.sum(axis=1) + u.sum(axis=1) + w_lat.sum(axis=1) + eps_y

    x = np.empty((n, 1 + params.d_w + params.d_s))
    z = np.empty((n, 1 + params.d_q + params.d_s))
    x[:, 0] = z[:, 0] = a
    x[:, 1 + params.d_w:] = z[:, 1 + params.d_q:] = g_fwd(s_lat)
    z[:, 1:1 + params.d_q] = g_fwd(q_lat)
    x[:, 1:1 + params.d_w] = g_fwd(w_lat)
    extras = {"treatment": a}
    if params.emit_latents:
        extras.update(
            s_lat=s_lat, u=u, w_lat=w_lat, q_lat=q_lat,
            eps_u=eps_u, eps_q=eps_q, eps_w=eps_w, eps_y=eps_y,
        )
    return Dataset(x, z, y, extras), true_ate(params)


# -- circular NPIV design -------------------------------------------------------

@dataclass(frozen=True)
class NpivParams:
    """Circular instrumental-variable design with diagonal operator.

    decay_p > 0 sets the polynomial decay of the operator spectrum,
    smoothing b >= 0 the overall instrument strength (b = 0 means X = Z),
    endogeneity in (-1, 1) the correlation between the outcome noise and
    the X-side disturbance.  h0_coeffs live on the unit-scaled Fourier
    dictionary [1, sqrt2 sin x, sqrt2 cos x, ...].
    """

    h0_coeffs: tuple = (0.5, 0.6, -0.4, 0.3, -0.2)
    decay_p: float = 1.0
    smoothing: float = 0.5
    noise_sd: float = 0.5
    endogeneity: float = 0.5
    emit_latents: bool = False

    def __post_init__(self):
        if not (self.decay_p > 0.0):
            raise ValueError("decay_p must be positive")
        if self.smoothing < 0.0:
            raise ValueError("smoothing must be nonnegative")
        if not (-1.0 < self.endogeneity < 1.0):
            raise ValueError("endogeneity must lie in (-1, 1)")
        if self.noise_sd < 0.0:
            raise ValueError("noise_sd must be nonnegative")
        if self.smoothing == 0.0 and self.endogeneity != 0.0:
            raise ValueError("endogeneity needs a nonzero smoothing noise")
        coeffs = tuple(float(c) for c in self.h0_coeffs)
        if len(coeffs) < 1:
            raise ValueError("h0 needs at least the constant coefficient")
        for name, values in (("smoothing", [self.smoothing]),
                             ("noise_sd", [self.noise_sd]), ("h0_coeffs", coeffs)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "h0_coeffs", coeffs)

    @property
    def n_funcs(self) -> int:
        return len(self.h0_coeffs)

    def basis(self) -> SieveBasis:
        """h0's dictionary, built once per parameter set."""
        return self._basis

    @functools.cached_property
    def _basis(self) -> SieveBasis:
        return trigonometric_basis(self.n_funcs)

    def char_fn(self, k: int) -> float:
        """E[cos(k eta)] = (1 + k^2 b^2)^(-p/2) for the smoothing noise."""
        if k == 0 or self.smoothing == 0.0:
            return 1.0
        return float((1.0 + (k * self.smoothing) ** 2) ** (-self.decay_p / 2.0))

    def singular_values(self) -> np.ndarray:
        """Operator singular value per basis function (frequency (k+1)//2)."""
        return np.array([self.char_fn((k + 1) // 2) for k in range(self.n_funcs)])


@dataclass(frozen=True)
class NpivTruth:
    """Everything the harness needs to score an NPIV fit exactly."""

    theta0: float
    h0_coeffs: np.ndarray
    sigmas: np.ndarray
    basis: SieveBasis

    def strong_sq(self, coeffs: np.ndarray) -> float:
        """||h - h0||^2 in L2(uniform); exact on the orthonormal dictionary."""
        d = np.asarray(coeffs, dtype=np.float64) - self.h0_coeffs
        return float(d @ d)

    def weak_sq(self, coeffs: np.ndarray) -> float:
        d = np.asarray(coeffs, dtype=np.float64) - self.h0_coeffs
        return float(np.sum(self.sigmas**2 * d**2))


def gen_npiv(
    params: NpivParams, n: int, rng: np.random.Generator
) -> tuple[Dataset, NpivTruth]:
    """Draw n records of the circular design from rng; a given generator
    state always yields the same dataset.

    Z ~ U[-pi, pi); eta = b * sqrt(G) * N(0,1) with G ~ Gamma(p/2, 2);
    X = wrap(Z + eta); Y = h0(X) + e where e mixes a standardized
    sin(eta) component (correlated with X, mean zero given Z) with an
    independent Gaussian at the configured correlation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    z = rng.uniform(-math.pi, math.pi, size=n)
    if params.smoothing > 0.0:
        gmix = rng.gamma(shape=params.decay_p / 2.0, scale=2.0, size=n)
        eta = params.smoothing * np.sqrt(gmix) * rng.standard_normal(n)
    else:
        eta = np.zeros(n)
    x = np.mod(z + eta + math.pi, 2.0 * math.pi) - math.pi
    basis = params.basis()
    h0_coeffs = np.asarray(params.h0_coeffs)
    h0_vals = basis.evaluate(x[:, None]) @ h0_coeffs
    eps = rng.standard_normal(n)
    rho = params.endogeneity
    if rho != 0.0:
        var_sin = 0.5 * (1.0 - params.char_fn(2))
        v = np.sin(eta) / math.sqrt(var_sin)
        shock = rho * v + math.sqrt(1.0 - rho**2) * eps
    else:
        shock = eps
    y = h0_vals + params.noise_sd * shock
    extras = {"eta": eta} if params.emit_latents else None
    data = Dataset(x[:, None], z[:, None], y, extras)
    truth = NpivTruth(
        theta0=float(h0_coeffs[0]),
        h0_coeffs=h0_coeffs,
        sigmas=params.singular_values(),
        basis=basis,
    )
    return data, truth
