import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import classical_dp_walk, residual_norm
from references import holder_constant, tikhonov_ideal, weak_lower_bound_constant

from adaptik import discrepancy, spectral
from adaptik.spectral import (
    INFINITE_LAMBDA,
    GridExhaustedError,
    NoisyObservation,
    SpectralProblem,
    classical_dp_select,
    exact_observation,
    make_source_problem,
    perturb_observation,
    residual_system,
    strong_metric,
    tikhonov_solve,
    weak_metric,
)


def random_problem(rng, d=None, beta=None):
    d = d or int(rng.integers(3, 60))
    p = float(rng.uniform(0.5, 3.0))
    beta = beta if beta is not None else float(rng.uniform(0.25, 3.0))
    w0 = rng.uniform(-2.0, 2.0, size=d)
    w0[np.abs(w0) < 0.1] = 0.5  # keep h0 away from zero
    return make_source_problem(d, p, beta, w0, scale=float(rng.uniform(0.5, 1.0)))


class TestMakeSourceProblem:
    def test_single_mode(self):
        prob = make_source_problem(1, 1.0, 2.0, [1.0], scale=1.0)
        assert prob.singular_values.tolist() == [1.0]
        assert prob.h0_coeffs.tolist() == [1.0]

    def test_harmonic_sigma_equals_a_when_beta_one(self):
        prob = make_source_problem(3, 1.0, 1.0, [1.0, 1.0, 1.0], scale=1.0)
        assert prob.singular_values.tolist() == [1.0, 0.5, 1.0 / 3.0]
        assert prob.h0_coeffs.tolist() == [1.0, 0.5, 1.0 / 3.0]

    def test_decay_two_beta_half(self):
        # sigma_i = i^-2, a_i = sigma_i^0.5 = i^-1; checked by hand at i = 25
        prob = make_source_problem(50, 2.0, 0.5, np.ones(50), scale=1.0)
        assert prob.h0_coeffs[24] == pytest.approx(0.04, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, decay_p=1.0, beta=1.0, w0_coeffs=[]),
            dict(d=2, decay_p=1.0, beta=1.0, w0_coeffs=[1.0]),
            dict(d=1, decay_p=1.0, beta=1.0, w0_coeffs=[1.0], scale=1.5),
            dict(d=1, decay_p=-1.0, beta=1.0, w0_coeffs=[1.0]),
            dict(d=1, decay_p=1.0, beta=0.0, w0_coeffs=[1.0]),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValueError):
            make_source_problem(**kwargs)

    @pytest.mark.parametrize("decay_p", [323.0, 520.0, 600.0])
    def test_rejects_sigma_whose_square_is_not_normal(self, decay_p):
        # 3^-323 squares to a subnormal, 2^-600 to 0: the squared residual
        # would lose those directions
        with pytest.raises(ValueError, match="squares below the normal doubles"):
            make_source_problem(3, decay_p, 1.0, np.ones(3))

    def test_invariant_enforced_on_direct_construction(self):
        with pytest.raises(ValueError):
            SpectralProblem(np.array([1.0]), np.array([0.9]), 1.0, np.array([1.0]))


class TestTikhonovSolve:
    def test_single_mode_half(self):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        sol = tikhonov_solve(prob, NoisyObservation(np.array([1.0]), 1.0), 1.0)
        assert sol.tolist() == [0.5]

    def test_zero_lambda_recovers_h0_from_noiseless_data(self):
        prob = make_source_problem(2, 1.0, 1.0, [1.0, 1.0])
        obs = exact_observation(prob, delta=1.0)
        sol = tikhonov_solve(prob, obs, 0.0)
        np.testing.assert_allclose(sol, prob.h0_coeffs, rtol=0, atol=0)

    def test_matches_dense_two_by_two_solve(self):
        # oracle: explicit (T'T + lam I) h = T'r with T = diag(sigma)
        sigma = np.array([0.8, 0.3])
        w0 = np.array([0.5 / 0.8, 0.2 / 0.3])
        prob = SpectralProblem(sigma, sigma * w0, 1.0, w0)
        r = np.array([0.5, 0.2])
        lam = 0.1
        t = np.diag(sigma)
        oracle = np.linalg.solve(t.T @ t + lam * np.eye(2), t.T @ r)
        sol = tikhonov_solve(prob, NoisyObservation(r, 1.0), lam)
        np.testing.assert_allclose(sol, oracle, atol=1e-14)

    def test_dense_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            prob = random_problem(rng, d=int(rng.integers(2, 11)))
            r = prob.rhs_coeffs() + rng.normal(0, 0.1, prob.dim)
            lam = float(rng.uniform(0.0, 2.0))
            t = np.diag(prob.singular_values)
            oracle = np.linalg.solve(
                t.T @ t + lam * np.eye(prob.dim), t.T @ r
            ) if lam > 0 else np.linalg.solve(t, r)
            sol = tikhonov_solve(prob, NoisyObservation(r, 10.0), lam)
            np.testing.assert_allclose(sol, oracle, atol=1e-10)

    def test_infinite_lambda_gives_read_only_zeros(self):
        # sigma r / (sigma^2 + inf) and sigma^2 / (sigma^2 + inf) a are 0
        # in floating point, with no warning
        prob = make_source_problem(3, 1.0, 1.0, [1.0, -2.0, 0.5])
        obs = NoisyObservation(np.array([0.7, -1.3, 2.0]), 1.0)
        with np.errstate(all="raise"):
            sols = (tikhonov_solve(prob, obs, math.inf),
                    tikhonov_ideal(prob, math.inf))
        for sol in sols:
            assert sol.tolist() == [0.0, 0.0, 0.0]
            assert not sol.flags.writeable

    def test_dimension_mismatch(self):
        prob = make_source_problem(2, 1.0, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            tikhonov_solve(prob, NoisyObservation(np.array([1.0]), 1.0), 1.0)


class TestMetrics:
    def test_weak_single_mode(self):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        sol = tikhonov_ideal(prob, 1.0)
        assert weak_metric(prob, sol) == pytest.approx(0.5, abs=1e-15)

    def test_strong_single_mode(self):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        sol = tikhonov_ideal(prob, 1.0)
        assert strong_metric(prob, sol) == pytest.approx(0.5, abs=1e-15)

    def test_zero_lambda_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng)
        sol = tikhonov_solve(prob, exact_observation(prob, 1.0), 0.0)
        assert strong_metric(prob, sol) <= 1e-12
        assert weak_metric(prob, sol) <= 1e-12

    def test_weak_matches_series_sum(self):
        prob = make_source_problem(3, 1.0, 1.0, [1.0, 1.0, 1.0])
        lam = 0.25
        sol = tikhonov_ideal(prob, lam)
        sig = prob.singular_values
        series = sum(
            a**2 * s**2 * lam**2 / (s**2 + lam) ** 2
            for s, a in zip(sig, prob.h0_coeffs)
        )
        assert weak_metric(prob, sol) == pytest.approx(math.sqrt(series), rel=1e-12)

    def test_strong_matches_bruteforce_norm(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng, d=50)
        sol = tikhonov_ideal(prob, 0.3)
        brute = math.sqrt(sum((c - a) ** 2 for c, a in zip(sol, prob.h0_coeffs)))
        assert strong_metric(prob, sol) == pytest.approx(brute, abs=1e-12)


class TestClassicalDpSelect:
    def test_pure_noise_returns_infinity(self):
        prob = make_source_problem(1, 1.0, 1.0, [0.01])
        obs = NoisyObservation(np.array([0.01]), 0.1)
        lam, sol = classical_dp_select(prob, obs, k=1.0, max_steps=1)
        assert lam == INFINITE_LAMBDA
        assert sol.tolist() == [0.0]
        assert classical_dp_walk(prob, obs, 1.0, 2.0, 0.5, 1)[:2] == (None, lam)

    def test_single_mode_bracket_of_analytic_root(self):
        # residual lam/(1+lam) = 0.1 has root lam = 1/9 (bisection-checked);
        # the grid answer must bracket it within one rho step
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        obs = exact_observation(prob, delta=0.1)
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if mid / (1 + mid) <= 0.1:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert root == pytest.approx(1.0 / 9.0, abs=1e-9)
        lam, sol = classical_dp_select(prob, obs, k=1.0, lambda0=2.0, rho=0.5)
        assert lam <= root * (1 + 1e-9)
        assert lam > root * 0.5 * (1 - 1e-9)
        assert residual_norm(prob, obs, sol) <= 0.1

    def test_grid_membership(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, d=20)
        obs = perturb_observation(prob, 0.05, rng)
        lam, _ = classical_dp_select(prob, obs, lambda0=2.0, rho=0.5)
        grid = 2.0
        seen = []
        for _ in range(200):
            seen.append(grid)
            grid *= 0.5
        assert lam in seen

    def test_grid_exhaustion_raises(self):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        obs = NoisyObservation(np.array([1.0]), 1e-9)
        with pytest.raises(GridExhaustedError):
            classical_dp_select(prob, obs, k=1.0, max_steps=5)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(lambda0=math.inf), "lambda0"),
        (dict(lambda0=math.nan), "lambda0"),
        (dict(k=math.inf), "k"),
        (dict(k=math.nan), "k"),
        (dict(max_steps=0), "max_steps"),
        (dict(max_steps=-1), "max_steps"),
    ])
    def test_rejects_bad_search_settings(self, kwargs, name):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        obs = exact_observation(prob, delta=0.1)
        with pytest.raises(ValueError, match=f"^{name} must"):
            classical_dp_select(prob, obs, **kwargs)

    @pytest.mark.parametrize("rho, l", [(0.5, 1.01), (0.25, 2.0), (0.9, 1.1)])
    def test_rejects_a_grid_coarser_than_l(self, rho, l):
        # the preceding grid point lam / rho certifies the bracket only
        # when it is at most l * lam
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        obs = exact_observation(prob, delta=0.1)
        with pytest.raises(ValueError, match="exceeds l"):
            classical_dp_select(prob, obs, rho=rho, l=l)

    def test_default_l_admits_the_default_rho(self):
        # 1/rho = l exactly at the defaults; a wider l selects the same lam,
        # and the preceding grid point lies within l * lam and above k*delta
        rng = np.random.default_rng(8)
        prob = random_problem(rng, d=50)
        obs = perturb_observation(prob, 0.01, rng)
        lam, sol = classical_dp_select(prob, obs)
        wide_lam, wide_sol = classical_dp_select(prob, obs, l=10.0)
        assert lam == wide_lam and np.array_equal(sol, wide_sol)
        prev = tikhonov_solve(prob, obs, lam / 0.5)
        assert lam / 0.5 <= 2.0 * lam
        assert residual_norm(prob, obs, prev) > 1.5 * obs.delta

    def test_dimension_checked_before_the_sentinel(self):
        prob = make_source_problem(2, 1.0, 1.0, [1.0, 1.0])
        obs = NoisyObservation(np.array([0.01]), 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            classical_dp_select(prob, obs)


def _k_stopping_at(prob, obs, lambda0, rho, stop):
    """A k whose bound the walk first meets at grid index `stop`: midway
    between the residual norms at grid points stop - 1 and stop (||r||
    stands in for the point before index 0).  The norms are the closed
    form lam ||r / (sigma^2 + lam)||, which stays exact where one formed
    from solved coefficients is rounding noise (lam < eps sigma_min^2)."""
    r, sig2 = obs.r_coeffs, prob.singular_values**2
    lam, norms = float(lambda0), [float(np.linalg.norm(r))]
    for _ in range(stop + 1):
        norms.append(lam * float(np.linalg.norm(r / (sig2 + lam))))
        lam *= rho
    return (norms[-1] + norms[-2]) / 2.0 / obs.delta


def _exhausted_message(lambda0, k, delta, max_steps):
    return re.escape(
        f"no grid point below lambda0={lambda0} met the residual bound "
        f"{k * delta} within {max_steps} steps; delta may be inconsistent "
        "with the problem")


def _assert_matches_walk(prob, obs, k, lambda0, rho, max_steps):
    """classical_dp_select agrees bit for bit with the per-point walk;
    returns the walk's result."""
    expected = classical_dp_walk(prob, obs, k, lambda0, rho, max_steps)
    if expected is None:
        with pytest.raises(GridExhaustedError,
                           match=_exhausted_message(lambda0, k, obs.delta,
                                                    max_steps)):
            classical_dp_select(prob, obs, k=k, lambda0=lambda0, rho=rho,
                                max_steps=max_steps)
        return None
    lam, sol = classical_dp_select(prob, obs, k=k, lambda0=lambda0, rho=rho,
                                   max_steps=max_steps)
    _, lam_walk, sol_walk = expected
    assert lam == lam_walk
    assert np.array_equal(sol, sol_walk)
    return expected


class TestBlockWalk:
    """The walk over blocks of grid points selects the lam and returns the
    coefficients of a solve and residual at every grid point in turn."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 7, 200]),
        rho=st.sampled_from([0.5, 0.9, 0.99]),
        log_lambda0=st.floats(-4.0, 3.0),
        log_delta=st.floats(-9.0, -1.0),
        stop=st.one_of(st.none(), st.sampled_from([0, 15, 16, 17, 33]),
                       st.integers(0, 60)),
        log_k=st.floats(-0.5, 3.5),
        max_steps=st.one_of(st.sampled_from([1, 15, 16, 17, 33, 500]),
                            st.integers(1, 70)),
        steps_past_stop=st.one_of(st.none(), st.integers(0, 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_point_walk(self, d, rho, log_lambda0, log_delta,
                                        stop, log_k, max_steps,
                                        steps_past_stop, seed):
        # with stop None the k is free, so the data can also be pure noise;
        # steps_past_stop puts the end of the grid just before, at or just
        # after the stop
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, d=d)
        obs = perturb_observation(prob, 2.0**log_delta, rng)
        lambda0 = 10.0**log_lambda0
        k = 10.0**log_k
        if stop is not None:
            k = _k_stopping_at(prob, obs, lambda0, rho, stop)
            if steps_past_stop is not None:
                max_steps = max(stop + steps_past_stop, 1)
        _assert_matches_walk(prob, obs, k, lambda0, rho, max_steps)

    @pytest.mark.parametrize("d, rho", [(1, 0.5), (7, 0.9), (200, 0.99)])
    @pytest.mark.parametrize("stop", [0, 15, 16, 17, 33])
    def test_stops_at_block_edges(self, d, rho, stop):
        # the grid runs out exactly when max_steps does not reach the stop
        rng = np.random.default_rng(stop)
        prob = random_problem(rng, d=d)
        obs = perturb_observation(prob, 0.01, rng)
        k = _k_stopping_at(prob, obs, 1.0, rho, stop)
        for max_steps in {max(stop, 1), stop + 1, stop + 2, 500}:
            expected = _assert_matches_walk(prob, obs, k, 1.0, rho, max_steps)
            if max_steps > stop:
                assert expected[0] == stop
            else:
                assert expected is None

    def test_matches_the_walk_at_the_smallest_sigma(self):
        # sigma_3 = 3^-322 squares to 5.4e-308, just above the smallest
        # normal double: p / sqrt(mu) keeps full precision there
        prob = make_source_problem(3, 322.0, 1.0, np.ones(3))
        assert prob.singular_values[-1] ** 2 < 3.0 * np.finfo(np.float64).tiny
        for seed in range(20):
            obs = perturb_observation(prob, 0.01, np.random.default_rng(seed))
            for k in (1.0, 1.2, 1.5, 3.0):
                _assert_matches_walk(prob, obs, k, 1.0, 0.5, 500)

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([1, 7, 200]), seed=st.integers(0, 2**32 - 1),
           log_lams=st.lists(st.floats(-12.0, 3.0), min_size=1, max_size=16))
    def test_block_losses_are_the_solves_losses(self, d, seed, log_lams):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, d=d)
        system = residual_system(prob, perturb_observation(prob, 0.01, rng))
        lams = 10.0 ** np.array(log_lams)[:, None]
        assert list(system.losses(lams)) == [system.solve(lam).empirical_loss
                                             for lam in lams[:, 0].tolist()]

    def test_one_solve_per_selection(self, monkeypatch):
        solved = []
        solve = spectral.tikhonov_solve

        def counting(prob, r, lam):
            solved.append(lam)
            return solve(prob, r, lam)

        monkeypatch.setattr(spectral, "tikhonov_solve", counting)
        prob = make_source_problem(200, 1.0, 1.0, np.ones(200))
        rng = np.random.default_rng(0)
        for delta in (2.0**-3, 2.0**-6, 2.0**-9):
            obs = perturb_observation(prob, delta, rng)
            solved.clear()
            lam, _ = classical_dp_select(prob, obs)
            assert solved == [lam]
        # the pure-noise sentinel and an exhausted grid solve nothing
        solved.clear()
        lam, _ = classical_dp_select(prob, obs, k=1e6)
        assert lam == INFINITE_LAMBDA
        with pytest.raises(GridExhaustedError):
            classical_dp_select(prob, obs, max_steps=3)
        assert solved == []


class TestNoiseGenerator:
    def test_norm_is_exactly_delta(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, d=30)
        obs = perturb_observation(prob, 0.25, rng)
        err = np.linalg.norm(obs.r_coeffs - prob.rhs_coeffs())
        assert err == pytest.approx(0.25, rel=1e-12)

    def test_bound_check_rejects_liars(self):
        prob = make_source_problem(2, 1.0, 1.0, [1.0, 1.0])
        obs = NoisyObservation(prob.rhs_coeffs() + 1.0, delta=0.01)
        with pytest.raises(ValueError, match="noise bound"):
            obs.check_bound(prob)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.0, 100.0), seed=st.integers(0, 2**31 - 1))
def test_filter_factors_stay_in_unit_interval(lam, seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, d=10)
    factors = prob.singular_values**2 / (prob.singular_values**2 + lam)
    assert np.all(factors >= 0.0) and np.all(factors <= 1.0)
    sol = tikhonov_ideal(prob, lam)
    assert np.all(np.abs(sol) <= np.abs(prob.h0_coeffs) + 1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_noiseless_metrics_nondecreasing_in_lambda(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, d=15)
    lams = np.sort(rng.uniform(0.0, 4.0, size=8))
    weak = [weak_metric(prob, tikhonov_ideal(prob, l)) for l in lams]
    strong = [strong_metric(prob, tikhonov_ideal(prob, l)) for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(weak, weak[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(strong, strong[1:]))


class TestPathInequalities:
    def test_weak_lower_bound_on_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            prob = random_problem(rng)
            c0 = weak_lower_bound_constant(prob)
            assert c0 > 0.0
            for lam in np.linspace(0.01, 1.99, 25):
                wk = weak_metric(prob, tikhonov_ideal(prob, lam))
                assert wk**2 >= c0 * lam**2 - 1e-10

    def test_holder_continuity_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            prob = random_problem(rng)
            c_h, gamma = holder_constant(prob)
            lams = rng.uniform(1e-6, 2.0, size=(10, 2))
            for la, lb in lams:
                diff = np.linalg.norm(
                    tikhonov_ideal(prob, la) - tikhonov_ideal(prob, lb)
                )
                assert diff <= c_h * abs(la - lb) ** gamma + 1e-10

    def test_interpolation_inequality_on_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            prob = random_problem(rng)
            w0_norm = np.linalg.norm(prob.w0_coeffs)
            beta = prob.beta
            for lam in np.linspace(0.02, 2.0, 20):
                sol = tikhonov_ideal(prob, lam)
                lhs = strong_metric(prob, sol)
                rhs = w0_norm ** (1.0 / (1.0 + beta)) * weak_metric(
                    prob, sol
                ) ** (beta / (1.0 + beta))
                assert lhs <= rhs + 1e-10



class TestComputedOnce:
    """The oracle's constants are computed once and its norms are one dot;
    every value is the one a fresh computation gives, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 70),
                    elements=st.floats(-1e3, 1e3, allow_subnormal=True)),
           scale=st.sampled_from([0.0, 5e-324, 1e-310, 1e-160, 1.0, 1e154,
                                  1e200, 1.7e308]),
           start=st.integers(0, 3), step=st.integers(1, 4))
    def test_norm_is_numpys(self, x, scale, start, step):
        # scales whose squares underflow to subnormals or overflow to inf,
        # and strided and transposed views, which numpy ravels in memory
        # order before its dot
        with np.errstate(all="ignore"):
            v = (x * scale)[start::step]
            views = [v, v[::-1]]
            if v.size >= 2:
                views.append(v[:v.size // 2 * 2].reshape(2, -1).T)
            for view in views:
                got = spectral._norm(view)
                assert type(got) is float
                assert repr(got) == repr(float(np.linalg.norm(view)))

    @settings(max_examples=50, deadline=None)
    @given(d=st.sampled_from([1, 7, 200]), seed=st.integers(0, 2**32 - 1),
           log_lambda0=st.floats(-4.0, 3.0))
    def test_cached_constants_are_fresh_and_read_only(self, d, seed,
                                                      log_lambda0):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, d=d)
        sig = prob.singular_values
        for cached, fresh in ((prob._sig2, sig**2),
                              (prob.rhs_coeffs(), sig * prob.h0_coeffs)):
            assert not cached.flags.writeable
            assert cached.tobytes() == fresh.tobytes()
        # 40 points at rho = 0.7 span three 16-point blocks; a negative
        # level is never met, so the walk tests every point
        system = residual_system(prob, perturb_observation(prob, 0.01, rng))
        lambda0 = 10.0**log_lambda0
        path, converged = discrepancy.walk(system, -1.0, lambda0, 0.7, 40)
        grid, lam = [], lambda0
        for _ in range(49):
            grid.append(lam)
            lam *= 0.7
        assert not converged
        assert [lam for lam, _ in path] == grid[:40]
        for start in (0, 16, 32):
            block, values, after = discrepancy._grid_block(grid[start], 0.7)
            assert not block.flags.writeable
            assert block[:, 0].tolist() == list(values) == grid[start:start + 16]
            assert after == grid[start + 16]


# The exact bits of classical_dp_select on criteria 1-3's problem
# (d = 200, sigma_i = 1/i, w0_i proportional to i^-0.4 with norm 4):
# (beta, rho, -log2 delta, seed) -> (lambda, strong metric, weak metric),
# the observation drawn by perturb_observation from default_rng(seed).
GOLDEN_SELECTIONS = {
    (0.5, 0.5, 3, 0): (0.0625, 0.7061323257901571, 0.13844406190106834),
    (0.5, 0.5, 3, 1): (0.0625, 0.7024029230239506, 0.13572316808720478),
    (0.5, 0.5, 6, 0): (0.001953125, 0.3286333114437969, 0.013894227980449321),
    (0.5, 0.5, 6, 1): (0.001953125, 0.34278229486236284, 0.01328602985355853),
    (0.5, 0.5, 9, 0): (0.0001220703125, 0.14938336010024175, 0.0020813284793414436),
    (0.5, 0.5, 9, 1): (0.0001220703125, 0.15640046701726718, 0.0021824064873400915),
    (0.5, 0.7, 3, 0): (0.05649504979999997, 0.692161203077863, 0.1292961030809825),
    (0.5, 0.7, 3, 1): (0.05649504979999997, 0.6880214785683351, 0.1266612772012231),
    (0.5, 0.7, 6, 0): (0.0032568271958208946, 0.368059451656209, 0.019073192808749258),
    (0.5, 0.7, 6, 1): (0.0032568271958208946, 0.374942329560524, 0.018424607094556327),
    (0.5, 0.7, 9, 0): (0.00018774960675295479, 0.1643130145781394, 0.002638467869021328),
    (0.5, 0.7, 9, 1): (0.00018774960675295479, 0.17138787041014217, 0.002728685755105712),
    (1.0, 0.5, 3, 0): (0.0625, 0.2620472099321835, 0.09874679606052716),
    (1.0, 0.5, 3, 1): (0.0625, 0.25709100422289327, 0.09538549422564901),
    (1.0, 0.5, 6, 0): (0.0078125, 0.11023640786446862, 0.01708837932193857),
    (1.0, 0.5, 6, 1): (0.0078125, 0.10725985299556051, 0.01657134981219405),
    (1.0, 0.5, 9, 0): (0.00048828125, 0.040841460089922, 0.00162574605420011),
    (1.0, 0.5, 9, 1): (0.00048828125, 0.04386357453284885, 0.0015750514153218742),
    (1.0, 0.7, 3, 0): (0.08070721399999996, 0.2904039024058171, 0.12180269022658115),
    (1.0, 0.7, 3, 1): (0.08070721399999996, 0.286390841370133, 0.11834763707308615),
    (1.0, 0.7, 6, 0): (0.006646586113920194, 0.10524502694591636, 0.014910072433483504),
    (1.0, 0.7, 6, 1): (0.006646586113920194, 0.1025218652565262, 0.014357534754149621),
    (1.0, 0.7, 9, 0): (0.0007819642097165965, 0.04065708152027712, 0.002307562223861181),
    (1.0, 0.7, 9, 1): (0.0007819642097165965, 0.043672773114038506, 0.002233869577808931),
    (2.0, 0.5, 3, 0): (0.0625, 0.11032234151106923, 0.07824349548780994),
    (2.0, 0.5, 3, 1): (0.0625, 0.10492302033762103, 0.07502648709049842),
    (2.0, 0.5, 6, 0): (0.0078125, 0.039184484802431994, 0.010856146353104036),
    (2.0, 0.5, 6, 1): (0.0078125, 0.036253799909751507, 0.01036656950203383),
    (2.0, 0.5, 9, 0): (0.0009765625, 0.020001156683127536, 0.0014827411843176012),
    (2.0, 0.5, 9, 1): (0.0009765625, 0.019823660094344695, 0.0014130779188362894),
    (2.0, 0.7, 3, 0): (0.11529601999999994, 0.16369866605557903, 0.13627441721678477),
    (2.0, 0.7, 3, 1): (0.11529601999999994, 0.15920928849308102, 0.13317324513125495),
    (2.0, 0.7, 6, 0): (0.009495123019885992, 0.036630954044674646, 0.013053191375068506),
    (2.0, 0.7, 6, 1): (0.009495123019885992, 0.03365023938297743, 0.012579732749874525),
    (2.0, 0.7, 9, 0): (0.001595845325952238, 0.014592154257148384, 0.0022794918755409876),
    (2.0, 0.7, 9, 1): (0.001595845325952238, 0.014573228275115705, 0.0022074479068250243),
}


def test_selections_keep_their_recorded_bits():
    idx = np.arange(1, 201, dtype=np.float64)
    w0 = idx**-0.4
    w0 = 4.0 * w0 / np.linalg.norm(w0)
    problems = {beta: make_source_problem(200, 1.0, beta, w0)
                for beta in (0.5, 1.0, 2.0)}
    for (beta, rho, e, seed), expected in GOLDEN_SELECTIONS.items():
        prob = problems[beta]
        obs = perturb_observation(prob, 2.0**-e, np.random.default_rng(seed))
        lam, sol = classical_dp_select(prob, obs, rho=rho)
        got = (lam, strong_metric(prob, sol), weak_metric(prob, sol))
        assert repr(got) == repr(expected), (beta, rho, e, seed)
