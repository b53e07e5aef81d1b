import numpy as np
import pytest
from references import npiv_h0

from adaptik.discrepancy import DpConfig, NoiseSchedule
from adaptik.dgp import NpivParams, gen_npiv
from adaptik.estimators import (
    FitResult,
    mean_moment,
    outcome_moment,
    trae_dual_fit,
    trae_fit,
)
from adaptik.functional import (
    DrFold,
    DrPipelineConfig,
    SplitPlan,
    adaptive_dr_pipeline,
    DrEvaluation,
    coverage_experiment,
    split,
)
from adaptik.sieve import Dataset, SieveBasis, custom_basis, trigonometric_basis
from adaptik.util import stream_rng


def npiv_data(seed=0, n=400):
    params = NpivParams()
    return gen_npiv(params, n, stream_rng(seed))


def zero_fit(k):
    return FitResult(np.zeros(k), 0.1, 0.0, 0.0)


def pipeline_config(basis, split_seed=0, **overrides):
    base = dict(
        basis_h=basis, basis_f=basis, basis_q=basis, basis_s=basis,
        outcome_moment=outcome_moment(), target_moment=mean_moment(),
        dp_primal=DpConfig(NoiseSchedule("trae_squared", 15.0)),
        dp_dual=DpConfig(NoiseSchedule("trae_squared", 15.0)),
        split_plan=SplitPlan(split_seed),
    )
    base.update(overrides)
    return DrPipelineConfig(**base)


def run_split(data, config, strategy):
    """The pipeline at one lambda strategy: "dp", or a fixed lambda."""
    return DrFold.of(*split(data, config.split_plan), config).run(strategy)


def four_bases(basis, shared):
    """One basis object per side (basis_s is basis_h, basis_q is
    basis_f), or four different bases."""
    wide = trigonometric_basis(7)
    if shared:
        return dict(basis_h=basis, basis_s=basis, basis_f=wide, basis_q=wide)
    return dict(basis_h=basis, basis_s=trigonometric_basis(3),
                basis_f=wide, basis_q=trigonometric_basis(9))


class TestSplit:
    def test_even_split(self):
        data, _ = npiv_data(n=10)
        fit_fold, eval_fold = split(data, SplitPlan(0))
        assert fit_fold.n == 5 and eval_fold.n == 5

    def test_deterministic_given_seed(self):
        data, _ = npiv_data(n=20)
        a1 = split(data, SplitPlan(3))[0]
        a2 = split(data, SplitPlan(3))[0]
        assert np.array_equal(a1.x, a2.x)

    def test_odd_count_sizes(self):
        data, _ = npiv_data(n=7)
        fit_fold, eval_fold = split(data, SplitPlan(1))
        assert {fit_fold.n, eval_fold.n} == {3, 4}

    def test_partition_is_disjoint_and_exhaustive(self):
        data, _ = npiv_data(n=21)
        marked = Dataset(data.x, data.z, np.arange(21.0))
        fit_fold, eval_fold = split(marked, SplitPlan(5))
        ids = np.concatenate([fit_fold.y, eval_fold.y])
        assert sorted(ids.tolist()) == list(range(21))

    def test_too_small_rejected(self):
        data = Dataset(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ValueError, match="at least 4"):
            split(data, SplitPlan(0))


class TestDrEstimate:
    def test_reduces_to_primal_plugin_when_q_is_zero(self):
        data, truth = npiv_data(1)
        basis = truth.basis
        h = FitResult(np.asarray(truth.h0_coeffs), 0.1, 0.0, 0.0)
        est = DrEvaluation.of(data, basis, basis, mean_moment(),
                              outcome_moment()).estimate(
            h, zero_fit(basis.n_funcs))
        plugin = float(npiv_h0(truth, data.x).mean())
        assert est.theta_hat == pytest.approx(plugin, abs=1e-12)

    def test_reduces_to_dual_plugin_when_h_is_zero(self):
        data, truth = npiv_data(2)
        basis = truth.basis
        q = FitResult(np.eye(basis.n_funcs)[0], 0.1, 0.0, 0.0)  # q(z) = 1
        est = DrEvaluation.of(data, basis, basis, mean_moment(),
                              outcome_moment()).estimate(
            zero_fit(basis.n_funcs), q)
        assert est.theta_hat == pytest.approx(float(data.y.mean()), abs=1e-12)

    def test_components_recompose_theta(self):
        data, truth = npiv_data(3, n=200)
        basis = truth.basis
        rng = stream_rng(7)
        h = FitResult(rng.normal(size=basis.n_funcs), 0.1, 0.0, 0.0)
        q = FitResult(rng.normal(size=basis.n_funcs), 0.1, 0.0, 0.0)
        est = DrEvaluation.of(data, basis, basis, mean_moment(),
                              outcome_moment()).estimate(h, q)
        c = est.components
        recombined = (c["target_moment"] + c["outcome_moment"] - c["cross"]).mean()
        assert est.theta_hat == pytest.approx(float(recombined), abs=1e-12)
        # independent per-record recomputation
        hx = basis.evaluate(data.x) @ h.coeffs
        qz = basis.evaluate(data.z) @ q.coeffs
        manual = hx + data.y * qz - qz * hx
        assert est.theta_hat == pytest.approx(float(manual.mean()), abs=1e-10)
        assert np.allclose(c["influence"], manual, atol=1e-12)

    def test_ci_contains_point_and_scales_with_level(self):
        data, truth = npiv_data(4)
        basis = truth.basis
        h = FitResult(np.asarray(truth.h0_coeffs), 0.1, 0.0, 0.0)
        q = FitResult(np.eye(basis.n_funcs)[0], 0.1, 0.0, 0.0)
        evaluation = DrEvaluation.of(data, basis, basis, mean_moment(),
                                     outcome_moment())
        wide = evaluation.estimate(h, q, level=0.99)
        narrow = evaluation.estimate(h, q, level=0.5)
        assert wide.ci_low <= wide.theta_hat <= wide.ci_high
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_translation_equivariance(self):
        data, truth = npiv_data(5, n=300)
        basis = truth.basis
        rng = stream_rng(8)
        h = FitResult(rng.normal(size=basis.n_funcs), 0.1, 0.0, 0.0)
        q = FitResult(rng.normal(size=basis.n_funcs), 0.1, 0.0, 0.0)
        base = DrEvaluation.of(data, basis, basis, mean_moment(),
                               outcome_moment()).estimate(h, q)
        shifted_data = Dataset(data.x, data.z, data.y + 2.5)
        shifted = DrEvaluation.of(shifted_data, basis, basis, mean_moment(),
                                  outcome_moment()).estimate(h, q)
        # only the outcome-moment component moves, by 2.5 * mean(q)
        qz = basis.evaluate(data.z) @ q.coeffs
        assert shifted.theta_hat - base.theta_hat == pytest.approx(
            2.5 * float(qz.mean()), abs=1e-12
        )
        np.testing.assert_allclose(
            shifted.components["outcome_moment"] - base.components["outcome_moment"],
            2.5 * qz, atol=1e-12,
        )
        np.testing.assert_array_equal(shifted.components["cross"],
                                      base.components["cross"])


class TestAdaptivePipeline:
    def test_cross_fitting_hygiene(self):
        data, _ = npiv_data(6, n=50)
        marked = Dataset(data.x, data.z, np.arange(50.0))
        fit_fold, eval_fold = split(marked, SplitPlan(11))
        assert not set(fit_fold.y.tolist()) & set(eval_fold.y.tolist())

    def test_deterministic_given_seed(self):
        data, truth = npiv_data(7, n=300)
        config = pipeline_config(truth.basis, split_seed=2)
        r1 = adaptive_dr_pipeline(data, config)
        r2 = adaptive_dr_pipeline(data, config)
        assert r1.estimate.theta_hat == r2.estimate.theta_hat
        assert r1.dp_primal.lambda_dp == r2.dp_primal.lambda_dp
        assert r1.dp_dual.lambda_dp == r2.dp_dual.lambda_dp

    def test_fixed_lambda_bypasses_search(self):
        data, truth = npiv_data(8, n=300)
        config = pipeline_config(truth.basis)
        result = run_split(data, config, 0.05)
        assert result.dp_primal is None and result.dp_dual is None
        fit_fold, _ = split(data, config.split_plan)
        direct_h = trae_fit(fit_fold, outcome_moment(), truth.basis,
                            truth.basis, 0.05)
        direct_q = trae_dual_fit(fit_fold, mean_moment(), truth.basis,
                                 truth.basis, 0.05)
        assert np.array_equal(result.h_fit.coeffs, direct_h.coeffs)
        assert np.array_equal(result.q_fit.coeffs, direct_q.coeffs)

    def test_primal_reads_its_own_moment(self):
        # a primal moment other than the outcome one gets its own adversary
        # mean, as in trae_fit, not the outcome's Phi'y/n from the Gram
        data, truth = npiv_data(8, n=300)
        config = pipeline_config(truth.basis, outcome_moment=mean_moment())
        result = run_split(data, config, 0.05)
        fit_fold, _ = split(data, config.split_plan)
        direct = trae_fit(fit_fold, mean_moment(), truth.basis, truth.basis,
                          0.05)
        assert np.array_equal(result.h_fit.coeffs, direct.coeffs)

    @pytest.mark.parametrize("shared", [True, False])
    def test_fixed_lambda_estimate_equals_the_public_steps(self, shared):
        data, truth = npiv_data(8, n=300)
        bases = four_bases(truth.basis, shared)
        config = pipeline_config(truth.basis, **bases)
        result = run_split(data, config, 0.05)
        fit_fold, eval_fold = split(data, config.split_plan)
        h_fit = trae_fit(fit_fold, outcome_moment(), bases["basis_h"],
                         bases["basis_f"], 0.05)
        q_fit = trae_dual_fit(fit_fold, mean_moment(), bases["basis_q"],
                              bases["basis_s"], 0.05)
        direct = DrEvaluation.of(eval_fold, bases["basis_h"], bases["basis_q"],
                                 mean_moment(), outcome_moment()).estimate(
            h_fit, q_fit)
        assert result.estimate.to_record() == direct.to_record()
        for key, values in direct.components.items():
            np.testing.assert_array_equal(result.estimate.components[key], values)

    @pytest.mark.parametrize("shared, fit_evaluations", [(True, 2), (False, 4)])
    def test_each_basis_is_evaluated_once_per_fold(self, monkeypatch, shared,
                                                   fit_evaluations):
        # basis_h(x) and basis_f(z), plus basis_s(x) and basis_q(z) when
        # they are other objects, on the fit fold; then basis_h(x) and
        # basis_q(z) on the eval fold, and nothing else
        data, truth = npiv_data(11, n=300)
        rows = []
        evaluate = SieveBasis.evaluate

        def counting(self, points):
            rows.append(len(points))
            return evaluate(self, points)

        config = pipeline_config(truth.basis, **four_bases(truth.basis, shared))
        monkeypatch.setattr(SieveBasis, "evaluate", counting)
        adaptive_dr_pipeline(data, config)
        assert rows == [150] * (fit_evaluations + 2)

    def test_symmetric_data_gives_mirrored_lambdas(self):
        # X = Z and symmetric moments make the primal and dual problems
        # identical, so the two searches must select the same lambda
        params = NpivParams(smoothing=0.0, endogeneity=0.0, noise_sd=0.4)
        data, truth = gen_npiv(params, 600, stream_rng(9))
        config = pipeline_config(truth.basis, split_seed=4,
                                 target_moment=outcome_moment())
        result = adaptive_dr_pipeline(data, config)
        assert result.dp_primal.lambda_dp == result.dp_dual.lambda_dp
        np.testing.assert_allclose(result.h_fit.coeffs, result.q_fit.coeffs,
                                   atol=1e-10)

    def test_dp_iterations_within_cap(self):
        data, truth = npiv_data(10, n=400)
        config = pipeline_config(truth.basis)
        result = adaptive_dr_pipeline(data, config)
        assert result.dp_primal.iterations <= 20
        assert result.dp_dual.iterations <= 20


def _columns(basis):
    return [lambda p, k=k: basis.evaluate(p)[:, k] for k in range(basis.n_funcs)]


class TestDegenerateSieves:
    """Degenerate sieves give finite estimates, never NaN."""

    @pytest.mark.parametrize("lam", [None, 0.0, 0.05])
    def test_duplicated_column_changes_nothing(self, lam):
        # the G-norm penalty sees functions, not coefficients, so a
        # repeated column leaves the fits and the estimate as they were;
        # only the inner ridge, scaled by the mean Gram eigenvalue, moves
        data, truth = npiv_data(3, n=400)
        columns = _columns(truth.basis)
        doubled = custom_basis(columns + [columns[1]], 1)
        strategy = "dp" if lam is None else lam
        plain = run_split(data, pipeline_config(truth.basis), strategy)
        result = run_split(data, pipeline_config(doubled), strategy)
        assert (result.h_fit.lam, result.q_fit.lam) == (plain.h_fit.lam,
                                                        plain.q_fit.lam)
        assert result.estimate.theta_hat == pytest.approx(
            plain.estimate.theta_hat, abs=1e-8)
        assert result.estimate.se == pytest.approx(plain.estimate.se, rel=1e-6)

    @pytest.mark.parametrize("lam", [None, 0.0, 0.05])
    def test_more_functions_than_fit_records(self, lam):
        data, _ = npiv_data(3, n=40)
        wide = custom_basis(
            [lambda p, k=k: np.cos(k * p[:, 0]) for k in range(30)], 1)
        config = pipeline_config(wide)
        fit_fold, _ = split(data, config.split_plan)
        assert fit_fold.n < wide.n_funcs
        result = run_split(data, config, "dp" if lam is None else lam)
        est = result.estimate
        assert np.all(np.isfinite([est.theta_hat, est.se, est.ci_low, est.ci_high]))
        assert np.all(np.isfinite(result.h_fit.coeffs))
        assert np.all(np.isfinite(result.q_fit.coeffs))


class TestCoverage:
    def test_single_rep_is_zero_or_one(self):
        params = NpivParams()
        basis = params.basis()

        def dgp(n, rng):
            data, truth = gen_npiv(params, n, rng)
            return data, truth.theta0

        result = coverage_experiment(
            dgp, lambda rep: pipeline_config(basis, split_seed=rep),
            n=300, reps=1, level=0.95, seed=1,
        )
        assert result.coverage in (0.0, 1.0)
        assert result.mean_width > 0.0

    def test_half_level_coverage_near_half(self):
        params = NpivParams()
        basis = params.basis()
        dp = DpConfig(NoiseSchedule("trae_squared", 2.0))

        def dgp(n, rng):
            data, truth = gen_npiv(params, n, rng)
            return data, truth.theta0

        result = coverage_experiment(
            dgp,
            lambda rep: pipeline_config(basis, split_seed=rep, dp_primal=dp,
                                        dp_dual=dp),
            n=1000, reps=60, level=0.5, seed=2,
        )
        assert 0.3 <= result.coverage <= 0.7
