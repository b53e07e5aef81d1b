"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them) and then
asserts.  Criteria are numbered; tolerances are fixed here, not tuned at
run time.  Every random input is seeded, so the computed statistics are
identical on every run.
"""

import time

import numpy as np
import pytest

from folds import fold_gram, fold_system, inner_maximizer
from oracles import (
    classical_dp_walk,
    grid_inner_max,
    inner_objective,
    nested_grid_trae_objective,
    path_shows_bracket,
    trae_mats,
)

from adaptik.discrepancy import DpConfig, NoiseSchedule, run_dp
from adaptik.dgp import NpivParams, gen_npiv
from adaptik.estimators import (
    RdivEstimator,
    TraeEstimator,
    mean_moment,
    outcome_moment,
    rdiv_stage1,
    trae_fit,
)
from adaptik.functional import (
    DrPipelineConfig,
    SplitPlan,
    adaptive_dr_pipeline,
    coverage_experiment,
)
from adaptik.harness import ExperimentSpec, fit_rate, run_experiment
from adaptik.sieve import Dataset, empirical_gram, polynomial_basis
from adaptik.spectral import (
    classical_dp_select,
    exact_observation,
    holder_constant,
    make_source_problem,
    perturb_observation,
    residual_system,
    strong_metric,
    tikhonov_ideal,
    weak_lower_bound_constant,
    weak_metric,
)
from adaptik.util import stream_rng

BETAS = (0.5, 1.0, 2.0)
DELTAS = tuple(2.0**-e for e in range(3, 10))
SWEEP_SEEDS = 20


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")


def _source_w0(d=200, q=0.4, norm=4.0):
    idx = np.arange(1, d + 1, dtype=float)
    w0 = idx**-q
    return norm * w0 / np.linalg.norm(w0)


@pytest.fixture(scope="module")
def spectral_sweep():
    """Classical DP selections over beta x delta x seed, shared by 1-3."""
    out = {}
    start = time.monotonic()
    for beta in BETAS:
        prob = make_source_problem(200, 1.0, beta, _source_w0(), 1.0)
        per_delta = []
        for delta in DELTAS:
            strong2, weak2, lams = [], [], []
            for seed in range(SWEEP_SEEDS):
                rng = stream_rng(1001, int(delta * 2**20), seed)
                obs = perturb_observation(prob, delta, rng)
                lam, sol = classical_dp_select(prob, obs)
                strong2.append(strong_metric(prob, sol) ** 2)
                weak2.append(weak_metric(prob, sol) ** 2)
                lams.append(lam)
            per_delta.append(
                (float(np.mean(strong2)), float(np.mean(weak2)),
                 float(np.exp(np.mean(np.log(lams)))))
            )
        out[beta] = per_delta
    out["elapsed"] = time.monotonic() - start
    return out


class TestCriterion1StrongRate:
    def test_strong_metric_slope(self, spectral_sweep):
        deltas = np.array(DELTAS)
        ok = True
        details = []
        for beta in BETAS:
            strong2 = np.array([row[0] for row in spectral_sweep[beta]])
            slope = fit_rate(deltas**2, strong2).slope
            m = min(beta, 1.0)
            target = m / (1.0 + m)
            details.append(f"beta={beta}: {slope:.3f} vs {target:.3f}")
            ok = ok and abs(slope - target) <= 0.15
        runtime_ok = spectral_sweep["elapsed"] < 10.0
        _report(1, "spectral DP strong-metric rate", ok and runtime_ok,
                "; ".join(details) + f"; elapsed={spectral_sweep['elapsed']:.2f}s")
        assert runtime_ok
        for beta in BETAS:
            strong2 = np.array([row[0] for row in spectral_sweep[beta]])
            slope = fit_rate(deltas**2, strong2).slope
            m = min(beta, 1.0)
            assert abs(slope - m / (1.0 + m)) <= 0.15


class TestCriterion2WeakRate:
    def test_weak_metric_slope_and_boundedness(self, spectral_sweep):
        deltas = np.array(DELTAS)
        ok = True
        details = []
        for beta in BETAS:
            weak2 = np.array([row[1] for row in spectral_sweep[beta]])
            slope = fit_rate(deltas, weak2).slope
            ratio = weak2 / deltas**2
            details.append(f"beta={beta}: slope={slope:.3f} "
                           f"ratio<= {ratio.max():.2f}")
            ok = ok and abs(slope - 2.0) <= 0.15 and ratio.max() <= 10.0
        _report(2, "spectral DP weak-metric rate", ok, "; ".join(details))
        for beta in BETAS:
            weak2 = np.array([row[1] for row in spectral_sweep[beta]])
            assert abs(fit_rate(deltas, weak2).slope - 2.0) <= 0.15
            assert (weak2 / deltas**2).max() <= 10.0


class TestCriterion3LambdaBounds:
    def test_lambda_selection_slope(self, spectral_sweep):
        deltas = np.array(DELTAS)
        ok = True
        details = []
        for beta in BETAS:
            lams = np.array([row[2] for row in spectral_sweep[beta]])
            slope = fit_rate(deltas, lams).slope
            lo = 2.0 / min(2.0, beta + 1.0) - 0.2
            details.append(f"beta={beta}: {slope:.3f} in [{lo:.2f}, 2.2]")
            ok = ok and lo <= slope <= 2.2
        _report(3, "lambda-selection bounds", ok, "; ".join(details))
        for beta in BETAS:
            lams = np.array([row[2] for row in spectral_sweep[beta]])
            slope = fit_rate(deltas, lams).slope
            assert 2.0 / min(2.0, beta + 1.0) - 0.2 <= slope <= 2.2


class TestCriteria1To3Selections:
    def test_every_selection_is_the_per_point_walks(self):
        # the sweep's stream, selection by selection: the block walk on the
        # squared residual picks the grid point, lambda and coefficients of
        # the per-point walk on the residual norm
        grid = [2.0]
        for _ in range(499):
            grid.append(grid[-1] * 0.5)
        for beta in BETAS:
            prob = make_source_problem(200, 1.0, beta, _source_w0(), 1.0)
            for delta in DELTAS:
                for seed in range(SWEEP_SEEDS):
                    rng = stream_rng(1001, int(delta * 2**20), seed)
                    obs = perturb_observation(prob, delta, rng)
                    lam, sol = classical_dp_select(prob, obs)
                    index, lam_walk, sol_walk = classical_dp_walk(
                        prob, obs, 1.5, 2.0, 0.5, 500)
                    assert grid.index(lam) == index
                    assert lam == lam_walk
                    assert np.array_equal(sol, sol_walk)


class TestCriterion4LemmaSuite:
    def test_exact_inequalities_on_random_draws(self):
        start = time.monotonic()
        rng = np.random.default_rng(4004)
        slack = lambda rhs: 1e-10 * (1.0 + abs(rhs))
        checked = 0
        for _ in range(100):
            d = int(rng.integers(3, 60))
            beta = float(rng.uniform(0.25, 3.0))
            w0 = rng.uniform(-2.0, 2.0, size=d)
            w0[np.abs(w0) < 0.1] = 0.5
            prob = make_source_problem(
                d, float(rng.uniform(0.5, 3.0)), beta, w0,
                float(rng.uniform(0.5, 1.0)),
            )
            lam = float(rng.uniform(1e-4, 2.0 - 1e-9))
            sol = tikhonov_ideal(prob, lam)
            # quadratic lower bound on the weak error
            c0 = weak_lower_bound_constant(prob)
            assert weak_metric(prob, sol) ** 2 >= c0 * lam**2 - 1e-10
            # lambda-continuity of the regularized solution
            c_h, gamma = holder_constant(prob)
            lam2 = float(rng.uniform(1e-4, 2.0))
            diff = float(np.linalg.norm(
                sol - tikhonov_ideal(prob, lam2)
            ))
            rhs = c_h * abs(lam - lam2) ** gamma
            assert diff <= rhs + slack(rhs)
            # interpolation between strong and weak errors
            lhs = strong_metric(prob, sol)
            rhs = float(np.linalg.norm(prob.w0_coeffs)) ** (
                1.0 / (1.0 + beta)
            ) * weak_metric(prob, sol) ** (beta / (1.0 + beta))
            assert lhs <= rhs + slack(rhs)
            checked += 1
        elapsed = time.monotonic() - start
        ok = checked == 100 and elapsed < 5.0
        _report(4, "regularization-path inequality suite", ok,
                f"100 draws x 3 inequalities, elapsed={elapsed:.2f}s")
        assert ok


def _trae_instance(rng):
    """Random small instance whose optima stay inside the search box."""
    while True:
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 3))
        j = int(rng.integers(1, 3))
        x = rng.normal(size=(n, 1))
        z = 0.6 * x + 0.6 * rng.normal(size=(n, 1))
        data = Dataset(x, z, 0.6 * rng.normal(size=n))
        bh, bf = polynomial_basis(1, k - 1), polynomial_basis(1, j - 1)
        m, _, _, _ = trae_mats(data, outcome_moment(), bh, bf)
        if np.linalg.cond(m) > 50.0:
            continue
        c_h = 0.5 * rng.normal(size=k)
        f_star = inner_maximizer(data, bh, bf, c_h)
        fit = trae_fit(data, outcome_moment(), bh, bf, 0.15, ridge_inner=0.0)
        if (np.abs(f_star).max() < 2.5 and np.abs(fit.coeffs).max() < 2.5
                and np.abs(fit.inner_adversary).max() < 2.5):
            return data, bh, bf, c_h


class TestCriterion5TraeBruteForce:
    def test_closed_form_against_grids(self):
        start = time.monotonic()
        rng = np.random.default_rng(5005)
        worst_inner = worst_fit = 0.0
        for _ in range(50):
            data, bh, bf, c_h = _trae_instance(rng)
            m, g, b, _ = trae_mats(data, outcome_moment(), bh, bf)
            # the inner objective at the program's maximizer
            f = inner_maximizer(data, bh, bf, c_h)
            value = inner_objective(f, g, b @ c_h, m)
            _, grid_value = grid_inner_max(g, b @ c_h, m, step=1e-3)
            worst_inner = max(worst_inner, abs(value - grid_value))
            lam = 0.15
            fit = trae_fit(data, outcome_moment(), bh, bf, lam, ridge_inner=0.0)
            gram_h = empirical_gram(bh.evaluate(data.x))
            closed_obj = fit.empirical_loss + lam * float(
                fit.coeffs @ gram_h @ fit.coeffs
            )
            grid_obj, _ = nested_grid_trae_objective(
                data, outcome_moment(), bh, bf, lam
            )
            worst_fit = max(worst_fit, closed_obj - grid_obj)
        elapsed = time.monotonic() - start
        ok = worst_inner <= 5e-3 and worst_fit <= 5e-3 and elapsed < 60.0
        _report(5, "adversarial closed form vs brute force", ok,
                f"inner gap={worst_inner:.2e} fit excess={worst_fit:.2e} "
                f"elapsed={elapsed:.1f}s")
        assert worst_inner <= 5e-3
        assert worst_fit <= 5e-3
        assert elapsed < 60.0


class TestCriterion6RdivOracle:
    def test_against_dense_normal_equations(self):
        start = time.monotonic()
        rng = np.random.default_rng(6006)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(6, 17))
            kx = int(rng.integers(1, 4))
            kz = int(rng.integers(1, 4))
            x = rng.normal(size=(n, 1))
            z = 0.7 * x + 0.5 * rng.normal(size=(n, 1))
            data = Dataset(x, z, rng.normal(size=n))
            bx, bz = polynomial_basis(1, kx - 1), polynomial_basis(1, kz - 1)
            lam = float(rng.uniform(0.05, 1.0))
            gram = fold_gram(data, bx, bz)
            b = rdiv_stage1(gram, kx, ridge_stage1=0.0)
            fit = RdivEstimator(bx, ridge_stage1=0.0).system_from(gram).solve(lam)
            # dense oracle assembled with plain loops
            psi = bx.evaluate(data.x)
            phi = bz.evaluate(data.z)
            a_mat = phi @ b
            h = np.zeros((kx, kx))
            rhs = np.zeros(kx)
            for i in range(n):
                h += (np.outer(a_mat[i], a_mat[i])
                      + lam * np.outer(psi[i], psi[i])) / n
                rhs += a_mat[i] * data.y[i] / n
            oracle = np.linalg.solve(h, rhs)
            worst = max(worst, float(np.abs(fit.coeffs - oracle).max()))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-8 and elapsed < 5.0
        _report(6, "operator-regression fit vs dense solve", ok,
                f"worst gap={worst:.2e} elapsed={elapsed:.2f}s")
        assert worst <= 1e-8
        assert elapsed < 5.0


class TestCriterion7DpMechanics:
    def test_single_mode_fixture(self):
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        system = residual_system(prob, exact_observation(prob, 0.25))
        # the loss is the squared residual, so the level is 0.25^2
        config = DpConfig(NoiseSchedule("fixed", 0.0625), lambda0=2.0, rho=0.5,
                          max_iters=20)
        outcome = run_dp(system, None, config)
        ok = (outcome.lambda_dp == 0.25 and outcome.bracket_ok
              and outcome.iterations == 4 and outcome.iterations <= 20
              and path_shows_bracket(outcome.path, 0.0625))
        _report(7, "DP mechanics on the analytic fixture", ok,
                f"lambda={outcome.lambda_dp} iterations={outcome.iterations} "
                f"bracket_ok={outcome.bracket_ok}")
        assert outcome.lambda_dp == 0.25
        assert outcome.iterations == 4
        assert outcome.bracket_ok
        assert path_shows_bracket(outcome.path, 0.0625)
        assert outcome.iterations <= 20


class TestCriterion8LossMonotonicity:
    def test_losses_monotone_along_paths(self):
        rng = np.random.default_rng(8008)
        worst = 0.0
        config = DpConfig(NoiseSchedule("fixed", 1e-10), max_iters=12)
        for _ in range(30):
            n = int(rng.integers(40, 90))
            x = rng.normal(size=(n, 1))
            z = 0.8 * x + 0.4 * rng.normal(size=(n, 1))
            y = np.sin(1.5 * x[:, 0]) + 0.4 * rng.normal(size=n)
            data = Dataset(x, z, y)
            bx, bz = polynomial_basis(1, 2), polynomial_basis(1, 2)
            for est in (RdivEstimator(bx),
                        TraeEstimator(outcome_moment(), bx, bz)):
                outcome = run_dp(fold_system(est, data, bz), data.n, config)
                losses = [loss for _, loss in outcome.path]
                for a, b in zip(losses, losses[1:]):
                    worst = max(worst, b - a)
        ok = worst <= 1e-9
        _report(8, "empirical-loss monotonicity along DP paths", ok,
                f"worst increase={worst:.2e}")
        assert worst <= 1e-9


class TestCriterion9ProxyComparative:
    def test_adaptive_within_factor_of_best_fixed(self):
        start = time.monotonic()
        details = []
        ok = True
        for estimator in ("rdiv", "trae"):
            spec = ExperimentSpec(
                dgp="proxy_nc",
                dgp_params={"master_seed": 9},
                estimator=estimator,
                strategies=("dp", 0.0, 0.01, 0.1),
                sizes=(5000,),
                reps=20,
                seed=3,
            )
            record = run_experiment(spec)
            assert not record.failures
            agg = {c["strategy"]: c["median_abs_error"]
                   for c in record.aggregate()}
            best_fixed = min(v for k, v in agg.items() if k != "dp")
            ratio = agg["dp"] / best_fixed
            details.append(f"{estimator}: median dp={agg['dp']:.4f} "
                           f"best fixed={best_fixed:.4f} ratio={ratio:.2f}")
            ok = ok and ratio <= 1.5
            for row in record.rows:
                cap = 40 if estimator == "dr" else 20
                assert row["iters"] <= cap
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 600.0
        _report(9, "proxy-NC adaptive vs fixed grid", ok,
                "; ".join(details) + f"; elapsed={elapsed:.0f}s")
        assert ok


class TestCriterion10Coverage:
    def test_dr_interval_coverage(self):
        start = time.monotonic()
        params = NpivParams()
        basis = params.basis()
        dp = DpConfig(NoiseSchedule("trae_squared", 2.0))

        def dgp(n, rng):
            data, truth = gen_npiv(params, n, rng)
            return data, truth.theta0

        def make_config(rep):
            return DrPipelineConfig(
                basis_h=basis, basis_f=basis, basis_q=basis, basis_s=basis,
                outcome_moment=outcome_moment(),
                target_moment=mean_moment(),
                dp_primal=dp, dp_dual=dp, split_plan=SplitPlan(rep),
            )

        result = coverage_experiment(dgp, make_config, n=2000, reps=200,
                                     level=0.95, seed=3)
        elapsed = time.monotonic() - start
        ok = 0.90 <= result.coverage <= 0.98 and elapsed < 600.0
        _report(10, "doubly robust interval coverage", ok,
                f"coverage={result.coverage:.3f} width={result.mean_width:.4f} "
                f"elapsed={elapsed:.0f}s")
        assert 0.90 <= result.coverage <= 0.98
        assert elapsed < 600.0


class TestCriterion11Determinism:
    def test_run_records_are_byte_identical(self, tmp_path):
        spec = ExperimentSpec(
            dgp="proxy_nc", dgp_params={"master_seed": 9}, estimator="trae",
            strategies=("dp", 0.01), sizes=(1000,), reps=3, seed=3,
        )
        paths = []
        for tag in ("a", "b"):
            record = run_experiment(spec)
            path = tmp_path / f"{tag}.csv"
            record.to_csv(path)
            paths.append(path)
        strip = lambda p: [",".join(line.split(",")[:-1])
                           for line in p.read_text().splitlines()]
        identical_csv = strip(paths[0]) == strip(paths[1])

        def sweep_bytes():
            prob = make_source_problem(200, 1.0, 1.0, _source_w0(), 1.0)
            vals = []
            for delta in (0.125, 2.0**-9):
                for seed in range(5):
                    rng = stream_rng(1001, int(delta * 2**20), seed)
                    obs = perturb_observation(prob, delta, rng)
                    lam, sol = classical_dp_select(prob, obs)
                    vals.append((lam, repr(sol.tolist())))
            return repr(vals)

        identical_sweep = sweep_bytes() == sweep_bytes()

        params = NpivParams()
        basis = params.basis()
        dp = DpConfig(NoiseSchedule("trae_squared", 2.0))
        config = DrPipelineConfig(
            basis_h=basis, basis_f=basis, basis_q=basis, basis_s=basis,
            outcome_moment=outcome_moment(),
            target_moment=mean_moment(),
            dp_primal=dp, dp_dual=dp, split_plan=SplitPlan(0),
        )
        data, _ = gen_npiv(params, 2000, stream_rng(3, 2000, 0))
        t1 = adaptive_dr_pipeline(data, config).estimate.theta_hat
        t2 = adaptive_dr_pipeline(data, config).estimate.theta_hat
        identical_dr = repr(t1) == repr(t2)

        ok = identical_csv and identical_sweep and identical_dr
        _report(11, "byte-identical reruns", ok,
                f"csv={identical_csv} sweep={identical_sweep} dr={identical_dr}")
        assert identical_csv
        assert identical_sweep
        assert identical_dr
