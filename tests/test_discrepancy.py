import math

import numpy as np
import pytest
from folds import fold_system
from oracles import dp_walk, path_shows_bracket

from adaptik.discrepancy import (
    DpConfig,
    DpFitError,
    NoiseSchedule,
    noise_level,
    run_dp,
)
from adaptik.estimators import FitResult, RdivEstimator, TraeEstimator, outcome_moment
from adaptik.sieve import Dataset, polynomial_basis
from adaptik.spectral import (
    exact_observation,
    make_source_problem,
    perturb_observation,
    residual_system,
)


def single_mode():
    prob = make_source_problem(1, 1.0, 1.0, [1.0])
    return residual_system(prob, exact_observation(prob, delta=0.25))


class TestNoiseLevel:
    def test_rdiv_sqrt_value(self):
        level = noise_level(NoiseSchedule("rdiv_sqrt", 30.0), 1000)
        assert level == pytest.approx(2.493, abs=5e-4)
        assert level == pytest.approx(30.0 * math.sqrt(math.log(1000) / 1000))

    def test_trae_squared_value(self):
        level = noise_level(NoiseSchedule("trae_squared", 15.0), 1000)
        assert level == pytest.approx(0.1036, abs=5e-5)

    def test_fixed_ignores_n(self):
        sched = NoiseSchedule("fixed", 0.3)
        assert noise_level(sched, 10) == noise_level(sched, 10**6) == 0.3

    def test_decreasing_in_n(self):
        for kind in ("rdiv_sqrt", "trae_squared"):
            sched = NoiseSchedule(kind, 1.0)
            values = [noise_level(sched, n) for n in (10, 100, 1000, 10000)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            noise_level(NoiseSchedule("rdiv_sqrt", 1.0), 1)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule("bogus", 1.0)
        with pytest.raises(ValueError):
            NoiseSchedule("fixed", 0.0)

    @pytest.mark.parametrize("lambda0", [0.0, math.inf, math.nan])
    def test_lambda0_must_be_finite_and_positive(self, lambda0):
        with pytest.raises(ValueError, match="lambda0 must be finite"):
            DpConfig(NoiseSchedule("fixed", 1.0), lambda0=lambda0)


class TestRunDp:
    def test_immediate_stop_has_no_bracket(self):
        config = DpConfig(NoiseSchedule("fixed", 0.9))
        outcome = run_dp(single_mode(), None, config)
        assert outcome.lambda_dp == 2.0
        assert outcome.iterations == 1
        assert outcome.converged
        assert not outcome.bracket_ok
        assert not path_shows_bracket(outcome.path, 0.9)

    def test_single_mode_analytic_path(self):
        # squared residual (lam/(1+lam))^2: 4/9, 1/4, 1/9 all exceed
        # 0.0625 = 0.25^2; 0.04 stops it
        config = DpConfig(NoiseSchedule("fixed", 0.0625))
        outcome = run_dp(single_mode(), None, config)
        assert outcome.lambda_dp == 0.25
        assert outcome.iterations == 4
        assert outcome.bracket_ok
        assert path_shows_bracket(outcome.path, 0.0625)
        losses = [loss for _, loss in outcome.path]
        assert losses[:3] == pytest.approx([4 / 9, 1 / 4, 1 / 9], rel=1e-12)
        assert losses[3] == pytest.approx(0.04, rel=1e-12)

    def test_exhaustion_returns_last_fit_not_converged(self):
        config = DpConfig(NoiseSchedule("fixed", 1e-12), max_iters=5)
        outcome = run_dp(single_mode(), None, config)
        assert not outcome.converged
        assert outcome.iterations == 5
        assert outcome.lambda_dp == 2.0 * 0.5**4

    def test_grid_membership_by_repeated_multiplication(self):
        config = DpConfig(NoiseSchedule("fixed", 1e-12), rho=0.7, max_iters=12)
        outcome = run_dp(single_mode(), None, config)
        lam = 2.0
        for path_lam, _ in outcome.path:
            assert path_lam == lam
            lam = lam * 0.7

    def test_fitter_failure_carries_lambda(self):
        class Broken:
            def losses(self, lams):
                return [math.nan if lam < 1.0 else 1.0 for lam in lams[:, 0]]

            def solve(self, lam):
                return FitResult(np.zeros(1), lam, 1.0, 0.0)

        config = DpConfig(NoiseSchedule("fixed", 1e-6), max_iters=10)
        with pytest.raises(DpFitError, match="lambda=0.5"):
            run_dp(Broken(), None, config)

    def test_rho_below_half_warns(self):
        with pytest.warns(RuntimeWarning, match="bracket"):
            DpConfig(NoiseSchedule("fixed", 1.0), rho=0.25)

    def test_termination_bound_on_spectral_problems(self):
        rng = np.random.default_rng(0)
        prob = make_source_problem(40, 1.0, 1.0, rng.uniform(0.5, 1.5, 40))
        for delta in (0.5, 0.25, 0.1):
            obs = perturb_observation(prob, delta, rng)
            config = DpConfig(NoiseSchedule("fixed", (1.5 * delta) ** 2),
                              max_iters=20)
            outcome = run_dp(residual_system(prob, obs), None, config)
            assert outcome.iterations <= 20
            if outcome.converged:
                assert outcome.fit.empirical_loss <= (1.5 * delta) ** 2

    def test_determinism(self):
        rng = np.random.default_rng(1)
        prob = make_source_problem(20, 1.0, 1.0, rng.uniform(0.5, 1.5, 20))
        obs = perturb_observation(prob, 0.2, rng)
        config = DpConfig(NoiseSchedule("fixed", 0.3))
        a = run_dp(residual_system(prob, obs), None, config)
        b = run_dp(residual_system(prob, obs), None, config)
        assert a.lambda_dp == b.lambda_dp
        assert a.path == b.path
        assert np.array_equal(a.fit.coeffs, b.fit.coeffs)

    def test_audit_record_carries_full_path(self):
        config = DpConfig(NoiseSchedule("fixed", 0.0625))
        outcome = run_dp(single_mode(), None, config)
        assert outcome.iterations == 4
        assert outcome.bracket_ok and outcome.converged
        expected, _, _, _ = dp_walk(single_mode(), 0.0625, 2.0, 0.5, 20)
        assert list(outcome.path) == expected
        table = outcome.table()
        assert table.splitlines()[-1].endswith("yes")
        assert len(table.splitlines()) == 5


class TestDataDrivenPaths:
    def make_data(self, rng, n=60):
        x = rng.normal(size=(n, 1))
        z = 0.8 * x + 0.4 * rng.normal(size=(n, 1))
        y = np.sin(x[:, 0]) + 0.3 * rng.normal(size=n)
        return Dataset(x, z, y)

    @pytest.mark.parametrize("kind", ["rdiv", "trae"])
    def test_losses_nonincreasing_along_path(self, kind):
        rng = np.random.default_rng(2)
        bx, bz = polynomial_basis(1, 2), polynomial_basis(1, 2)
        for _ in range(5):
            data = self.make_data(rng)
            if kind == "rdiv":
                handle = RdivEstimator(bx, bz)
            else:
                handle = TraeEstimator(outcome_moment(), bx, bz)
            config = DpConfig(NoiseSchedule("fixed", 1e-10), max_iters=12)
            outcome = run_dp(fold_system(handle, data), data.n, config)
            losses = [loss for _, loss in outcome.path]
            assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_schedule_uses_fold_size(self):
        rng = np.random.default_rng(3)
        data = self.make_data(rng, n=100)
        handle = TraeEstimator(outcome_moment(), polynomial_basis(1, 2),
                               polynomial_basis(1, 2))
        config = DpConfig(NoiseSchedule("trae_squared", 15.0))
        outcome = run_dp(fold_system(handle, data), data.n, config)
        assert outcome.delta == pytest.approx(15.0 * math.log(100) / 100)


class TestLambdaSelectionSlopes:
    def test_slope_within_theory_band(self):
        # on a source problem the selected lambda scales like
        # delta ** (2 / min(2, beta + 1)) up to grid quantization
        rng = np.random.default_rng(4)
        for beta, lo, hi in ((0.5, 4 / 3 - 0.45, 2.2), (1.0, 0.8, 2.2)):
            prob = make_source_problem(100, 1.0, beta, np.ones(100))
            deltas = [2.0**-e for e in range(2, 11)]
            lams = []
            for delta in deltas:
                sel = []
                for _ in range(10):
                    obs = perturb_observation(prob, delta, rng)
                    config = DpConfig(NoiseSchedule("fixed", (1.5 * delta) ** 2),
                                      max_iters=60)
                    sel.append(run_dp(residual_system(prob, obs), None,
                                      config).lambda_dp)
                lams.append(np.exp(np.mean(np.log(sel))))
            slope = np.polyfit(np.log(deltas), np.log(lams), 1)[0]
            assert lo <= slope <= hi
