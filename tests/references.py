"""Closed-form reference values the tests check the solvers and the
generators against: the population Tikhonov solution of a
SpectralProblem and the constants of the two regularization-path
inequalities (the quadratic lower bound on the weak error and the
Hoelder bound on lam -> h_lam), asserted exactly rather than with fitted
tolerances; the proxy design's treatment rate by quadrature; and an
NPIV truth's h0.
"""

import math

import numpy as np


def _norm(x):
    """||x||, bit for bit np.linalg.norm's formula for a real vector:
    sqrt(x . x) over x raveled in memory order."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def tikhonov_ideal(prob, lam):
    """Population-regularized solution, read-only:
    coeffs_i = sigma_i^2/(sigma_i^2+lam) a_i."""
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    sig2 = prob.singular_values**2
    out = sig2 / (sig2 + lam) * prob.h0_coeffs
    out.flags.writeable = False
    return out


def weak_lower_bound_constant(prob):
    """Constant c0 in weak_metric(lam)^2 >= c0 * lam^2 for lam in (0, 2).

    c0 = sum_i a_i^2 sigma_i^2 / (sigma_i^2 + 2)^2, which is positive for
    any nonzero h0.
    """
    a, sig2 = prob.h0_coeffs, prob.singular_values**2
    return float(np.sum(a**2 * sig2 / (sig2 + 2.0) ** 2))


def holder_constant(prob):
    """(c_h, gamma) with ||h*_lam - h*_lam'|| <= c_h |lam - lam'|^gamma.

    gamma = min(beta/2, 1).  For beta <= 2 the constant is
    (2/beta) * sqrt(sum a_i^2 / sigma_i^(2 beta)) = (2/beta) * ||w0||;
    for beta > 2 it is sqrt(sum a_i^2 / sigma_i^4), evaluated stably as
    sqrt(sum w0_i^2 sigma_i^(2 beta - 4)).
    """
    beta = prob.beta
    w0 = prob.w0_coeffs
    if beta <= 2.0:
        return (2.0 / beta) * _norm(w0), beta / 2.0
    sig = prob.singular_values
    return float(np.sqrt(np.sum(w0**2 * sig ** (2.0 * beta - 4.0)))), 1.0


def treatment_rate(params, grid=20001):
    """P(A = 1) of the proxy design by 1-d quadrature over the Gaussian
    law of sum(S')."""
    sd = math.sqrt(0.5 * params.d_s)
    t = np.linspace(-10.0 * sd, 10.0 * sd, grid)
    dens = np.exp(-0.5 * (t / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    sig = 1.0 / (1.0 + np.exp(-(0.125 - 0.125 * t)))
    return float(np.trapezoid(sig * dens, t))


def npiv_h0(truth, points):
    """h0 of an NpivTruth at points."""
    return truth.basis.evaluate(np.asarray(points)) @ truth.h0_coeffs
