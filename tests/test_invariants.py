"""Invariants of the fits and of the DP search, checked with hypothesis.

Each fit is over small 1-d polynomial sieves.  The penalty is the
empirical G-norm of the fitted function, so the fitted values must not
change when the hypothesis basis psi is replaced by psi R for an
invertible R.  At lam = 0 with more hypothesis functions than adversary
functions (K > J) the loss does not identify the coefficients, and the
minimum-G-norm convention must pick the same function in every
parameterization.  Fits must also not depend on the order of the
records, and the coefficients must scale linearly with y.

The DP search on a random factored system must walk lambda geometrically
from lambda0, never raise the loss from one step to the next, report bracket_ok exactly
when its own path shows the factor-2 bracket, and end a search that
does not converge at max_iters.  Its block walk must agree exactly with
a solve at every grid point in turn.  The loss is L_min plus the excess
over it, so along the grid it never rises as lambda falls and never
drops below L_min, however small lambda is.

The search should select the same lambda whatever the units of y.  It
does not yet: the loss scales with y squared and the schedule's noise
level does not, so that test is a strict expected failure and must lose
its marker once the level is made scale-free.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from folds import fold_system
from hypothesis import strategies as st
from oracles import dp_walk, path_shows_bracket

from adaptik.dgp import NpivParams, gen_npiv
from adaptik.discrepancy import DpConfig, NoiseSchedule, run_dp
from adaptik.estimators import (
    RdivEstimator,
    TikhonovSystem,
    TraeEstimator,
    outcome_moment,
)
from adaptik.functional import SplitPlan, split
from adaptik.sieve import Dataset, custom_basis, empirical_gram, polynomial_basis
from adaptik.util import stream_rng

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
        est = RdivEstimator(basis_h)
    elif kind == "trae":
        est = TraeEstimator(outcome_moment(), basis_h, basis_f)
    else:
        est = TraeEstimator(outcome_moment(), basis_h, basis_f)
        data = Dataset(data.z, data.x, data.y)
    return fold_system(est, data, basis_f).solve(lam)


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


@pytest.mark.xfail(strict=True, reason=(
    "the noise level does not scale with y: TRAE at c_d 2 selects "
    "lambda 2, 0.125 and 0.0078125 at s = 0.1, 1 and 10"))
@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_dp_selection_is_invariant_to_the_units_of_y(scale):
    # under y -> s y the selected lambda is unchanged and the
    # coefficients scale by s
    data, truth = gen_npiv(NpivParams(), 2000, stream_rng(7))
    fold, _ = split(data, SplitPlan(7))
    handle = TraeEstimator(outcome_moment(), truth.basis, truth.basis)
    config = DpConfig(NoiseSchedule("trae_squared", 2.0))
    base = run_dp(fold_system(handle, fold), fold.n, config)
    scaled = Dataset(fold.x, fold.z, scale * fold.y, fold.w_extra)
    outcome = run_dp(fold_system(handle, scaled), fold.n, config)
    assert outcome.lambda_dp == base.lambda_dp
    assert_close(outcome.fit.coeffs, scale * base.fit.coeffs)


def random_system(seed, k, n, singular=False):
    """The factored least-squares system of a random (n, k) design
    against a random Gram: L(c) = |y - A c|^2 / n.  With singular (and
    k > 1) the design's last column repeats its first and the linear
    term leaves the range of A by 1e-6, so L falls without bound along
    a null direction of A that only the eigenvalue cutoff drops."""
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(size=(n, k))
    if singular:
        a_mat[:, -1] = a_mat[:, 0]
    y = rng.normal(size=n)
    gram = empirical_gram(rng.normal(size=(n, k)))
    rhs = a_mat.T @ y / n
    if singular:
        rhs[-1] += 1e-6
    return TikhonovSystem.factor(empirical_gram(a_mat), rhs, float(y @ y / n),
                                 gram)


def loss_at_infinity(system):
    """The constant term of L, its value at lambda = infinity, where every
    weight is 0: L_min plus p^2/mu of every direction in P."""
    inside = system.mu > system.floor
    return system.l_min + float(system.p[inside] ** 2 @ (1.0 / system.mu[inside]))


def nearly_fitting_system(seed, k, noise):
    """The factored system L(c) = |y - A c|^2 / n of a random (n, k) design
    whose outcome y = A c0 + noise * e it nearly fits, against a random
    Gram; with n >= 2k + 5 every direction lies in P."""
    rng = np.random.default_rng(seed)
    n = 2 * k + 5 + seed % 20
    a_mat = rng.normal(size=(n, k))
    y = a_mat @ rng.normal(size=k) + noise * rng.normal(size=n)
    return TikhonovSystem.factor(empirical_gram(a_mat), a_mat.T @ y / n,
                                 float(y @ y / n),
                                 empirical_gram(rng.normal(size=(n, k))))


@settings(max_examples=100, deadline=None)
@given(seed=seeds, k=st.integers(1, 5), log_noise=st.floats(-12.0, 0.0))
def test_path_loss_is_monotone_and_never_below_l_min(seed, k, log_noise):
    # the loss is L_min plus the excess, so no cancellation against the
    # constant term reorders the losses of a near-noiseless fit
    system = nearly_fitting_system(seed, k, 10.0**log_noise)
    assume(np.all(system.mu > system.floor))
    lams = 2.0 * 0.5 ** np.arange(60.0)[:, None]
    losses = list(system.losses(lams))
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert min(losses) >= system.l_min


@settings(max_examples=50, deadline=None)
@given(j=st.integers(0, 40))
def test_one_mode_loss_is_the_squared_residual(j):
    # sigma = r = 1: mu = p^2 = const = 1, L_min = 0, and the loss at lam
    # is the squared residual (lam / (1 + lam))^2 however small lam is
    system = TikhonovSystem.factor(np.eye(1), np.ones(1), 1.0, np.eye(1))
    lam = 2.0 * 0.5**j
    expected = (lam / (1.0 + lam)) ** 2
    close = pytest.approx(expected, rel=1e-12, abs=0.0)
    assert next(system.losses(np.array([[lam]]))) == close
    assert system.solve(lam).empirical_loss == close


@settings(max_examples=60, deadline=None)
@given(seed=seeds, k=st.integers(1, 5), lambda0=st.floats(1e-3, 10.0),
       rho=st.floats(0.3, 0.9), max_iters=st.integers(1, 25),
       frac=st.floats(1e-3, 1.2))
def test_dp_path_is_geometric_monotone_and_certified(seed, k, lambda0, rho,
                                                     max_iters, frac):
    # n >= 2k + 5 keeps both Grams well conditioned, so no direction
    # sits at the eigenvalue cutoff, where dropping it may raise the loss
    system = random_system(seed, k, 2 * k + 5 + seed % 20)
    const = loss_at_infinity(system)
    # delta between the loss at lambda = 0 and at lambda = infinity, or
    # above both, so searches stop early, late, at once or not at all
    low = system.solve(0.0).empirical_loss
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rho < 1/2 warns
        config = DpConfig(NoiseSchedule("fixed", low + frac * (const - low)),
                          lambda0, rho, max_iters)
    outcome = run_dp(system, None, config)
    lams = [lam for lam, _ in outcome.path]
    losses = [loss for _, loss in outcome.path]
    assert lams[0] == lambda0
    assert all(b == a * rho for a, b in zip(lams, lams[1:]))
    assert all(b <= a + 1e-12 * const for a, b in zip(losses, losses[1:]))
    assert outcome.bracket_ok == path_shows_bracket(outcome.path, outcome.delta)
    if not outcome.converged:
        assert outcome.iterations == len(lams) == max_iters
        assert losses[-1] > outcome.delta


@settings(max_examples=100, deadline=None)
@given(seed=seeds, k=st.integers(1, 5), singular=st.booleans(),
       log_lams=st.lists(st.floats(-18.0, 2.0), min_size=1, max_size=16))
def test_block_losses_are_the_solves_losses(seed, k, singular, log_lams):
    system = random_system(seed, k, 2 * k + 5 + seed % 20, singular)
    lams = 10.0 ** np.array(log_lams)[:, None]
    assert list(system.losses(lams)) == [system.solve(lam).empirical_loss
                                         for lam in lams[:, 0].tolist()]


def _delta_stopping_at(system, lambda0, rho, stop):
    """A delta the search first meets at grid index `stop`, midway between
    the losses at grid points stop - 1 and stop, or None if no delta does."""
    losses = [loss for _, loss in
              dp_walk(system, -np.inf, lambda0, rho, stop + 1)[0]]
    if stop == 0:
        return losses[0]
    delta = (losses[stop - 1] + losses[stop]) / 2.0
    return delta if losses[stop] <= delta < min(losses[:stop]) else None


def _assert_walk_matches(system, delta, lambda0, rho, max_iters):
    """run_dp equals the per-point walk exactly; returns the walk's path."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rho < 1/2 warns
        config = DpConfig(NoiseSchedule("fixed", delta), lambda0, rho,
                          max_iters)
    outcome = run_dp(system, None, config)
    path, fit, converged, bracket_ok = dp_walk(system, delta, lambda0, rho,
                                               max_iters)
    assert outcome.lambda_dp == path[-1][0] == fit.lam
    assert outcome.iterations == len(path)
    assert outcome.converged == converged
    assert outcome.bracket_ok == bracket_ok
    assert list(outcome.path) == path
    assert np.array_equal(outcome.fit.coeffs, fit.coeffs)
    return path


@settings(max_examples=150, deadline=None)
@given(seed=seeds, k=st.integers(1, 5), lambda0=st.floats(1e-3, 10.0),
       rho=st.floats(0.3, 0.9),
       max_iters=st.one_of(st.sampled_from([1, 15, 16, 17, 31, 33, 34, 50]),
                           st.integers(1, 60)),
       stop=st.one_of(st.none(), st.sampled_from([0, 15, 16, 17, 33])),
       steps_past_stop=st.one_of(st.none(), st.integers(-1, 2)),
       frac=st.floats(-0.5, 1.2), singular=st.booleans())
def test_block_walk_equals_a_solve_per_grid_point(seed, k, lambda0, rho,
                                                  max_iters, stop,
                                                  steps_past_stop, frac,
                                                  singular):
    # with stop None delta is drawn as in the path test above or, for
    # frac < 0, below the loss at lambda = 0, so that the search runs to
    # lambdas below the eigenvalue cutoff; otherwise it stops the search
    # at grid index stop, and steps_past_stop puts the end of the grid
    # just before, at or just after it
    system = random_system(seed, k, 2 * k + 5 + seed % 20, singular)
    low = system.solve(0.0).empirical_loss
    high = loss_at_infinity(system)
    delta = low * (1.0 + frac) if frac < 0 else low + frac * (high - low)
    if stop is not None:
        delta = _delta_stopping_at(system, lambda0, rho, stop)
        if steps_past_stop is not None:
            max_iters = max(stop + 1 + steps_past_stop, 1)
    assume(delta is not None and delta > 0.0)  # the fixed schedule's c_d
    path = _assert_walk_matches(system, delta, lambda0, rho, max_iters)
    if stop is not None:
        assert len(path) == min(stop + 1, max_iters)


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("stop", [0, 15, 16, 17, 33])
def test_block_walk_stops_at_block_edges(stop, singular):
    system = random_system(stop, 3, 20, singular)
    delta = _delta_stopping_at(system, 2.0, 0.7, stop)
    assert delta is not None
    for max_iters in sorted({max(stop, 1), stop + 1, stop + 2, 20, 35}):
        path = _assert_walk_matches(system, delta, 2.0, 0.7, max_iters)
        assert len(path) == min(stop + 1, max_iters)


@pytest.mark.parametrize("max_iters", [31, 50])
def test_block_walk_below_the_eigenvalue_cutoff(max_iters):
    # the walk never stops and ends at 2 * 0.5**49, far below the cutoff
    # (~6e-8 here), where only the cutoff keeps the loss from falling
    system = random_system(5, 3, 20, singular=True)
    assert system.floor > 2.0 * 0.5**30
    delta = system.solve(0.0).empirical_loss / 2.0
    path = _assert_walk_matches(system, delta, 2.0, 0.5, max_iters)
    assert len(path) == max_iters
