"""Invariants of the RDIV, TRAE and TRAE-dual fits, checked with hypothesis.

Each fit is over small 1-d polynomial sieves.  The penalty is the
empirical G-norm of the fitted function, so the fitted values must not
change when the hypothesis basis psi is replaced by psi R for an
invertible R.  At lam = 0 with more hypothesis functions than adversary
functions (K > J) the loss does not identify the coefficients, and the
minimum-G-norm convention must pick the same function in every
parameterization.  Fits must also not depend on the order of the
records, and the coefficients must scale linearly with y.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptik.estimators import (
    RdivEstimator,
    TraeDualEstimator,
    TraeEstimator,
    outcome_moment,
)
from adaptik.sieve import Dataset, custom_basis, polynomial_basis

KINDS = ("rdiv", "trae", "dual")

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(20, 60)
dims = st.integers(1, 4)
lambdas = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


def draw_data(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    z = 0.7 * x + 0.3 * rng.uniform(-1.0, 1.0, size=(n, 1))
    y = np.sin(2.0 * x[:, 0]) + 0.3 * rng.normal(size=n)
    return Dataset(x, z, y)


def well_conditioned(seed, k):
    """A k x k matrix with condition number at most 10."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(k, k)))
    q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return q1 @ np.diag(rng.uniform(1.0, 10.0, size=k)) @ q2.T


def reparameterized(basis, r):
    """The basis psi R: function k is sum_j psi_j r_jk."""
    return custom_basis(
        [lambda p, col=r[:, k]: basis.evaluate(p) @ col for k in range(r.shape[1])],
        basis.input_dim,
    )


def fit(kind, data, basis_h, basis_f, lam):
    """Fit h over basis_h against basis_f; the dual's h lives on Z."""
    if kind == "rdiv":
        est = RdivEstimator(basis_h, basis_f)
    elif kind == "trae":
        est = TraeEstimator(outcome_moment(), basis_h, basis_f)
    else:
        est = TraeDualEstimator(outcome_moment(), basis_h, basis_f)
    return est.system(data).solve(lam)


def fitted_values(kind, data, basis_h, coeffs):
    return basis_h.evaluate(data.z if kind == "dual" else data.x) @ coeffs


def assert_close(actual, expected, tol=1e-7):
    scale = 1.0 + float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tol * scale)


def check_reparameterization(kind, seed, n, k, j, lam):
    data = draw_data(seed, n)
    bh, bf = polynomial_basis(1, k - 1), polynomial_basis(1, j - 1)
    bh_r = reparameterized(bh, well_conditioned(seed + 1, k))
    base = fit(kind, data, bh, bf, lam)
    other = fit(kind, data, bh_r, bf, lam)
    assert_close(fitted_values(kind, data, bh_r, other.coeffs),
                 fitted_values(kind, data, bh, base.coeffs))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=sizes, k=dims, j=dims, lam=st.floats(1e-3, 2.0))
def test_fitted_values_invariant_under_reparameterization(kind, seed, n, k, j, lam):
    check_reparameterization(kind, seed, n, k, j, lam)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=sizes, j=st.integers(1, 3), extra=st.integers(1, 2))
def test_unregularized_non_identified_fit_is_parameterization_free(
        kind, seed, n, j, extra):
    check_reparameterization(kind, seed, n, j + extra, j, 0.0)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=sizes, k=dims, j=dims, lam=lambdas)
def test_fit_invariant_under_record_permutation(kind, seed, n, k, j, lam):
    data = draw_data(seed, n)
    shuffled = data.take(np.random.default_rng(seed + 2).permutation(n))
    bh, bf = polynomial_basis(1, k - 1), polynomial_basis(1, j - 1)
    base = fit(kind, data, bh, bf, lam)
    assert_close(fit(kind, shuffled, bh, bf, lam).coeffs, base.coeffs)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=sizes, k=dims, j=dims, lam=lambdas,
       factor=st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0)))
def test_coefficients_scale_linearly_with_y(kind, seed, n, k, j, lam, factor):
    data = draw_data(seed, n)
    scaled = Dataset(data.x, data.z, factor * data.y)
    bh, bf = polynomial_basis(1, k - 1), polynomial_basis(1, j - 1)
    base = fit(kind, data, bh, bf, lam)
    assert_close(fit(kind, scaled, bh, bf, lam).coeffs, factor * base.coeffs)
