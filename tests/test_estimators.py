import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import grid_inner_max, nested_grid_trae_objective, trae_mats

from adaptik.estimators import (
    NumericalError,
    RdivEstimator,
    TraeDualEstimator,
    TraeEstimator,
    ate_moment,
    mean_moment,
    outcome_moment,
    rdiv_fit,
    rdiv_loss,
    rdiv_stage1,
    trae_dual_fit,
    trae_fit,
    trae_inner_max,
)
from adaptik.sieve import (
    Dataset,
    custom_basis,
    empirical_gram,
    polynomial_basis,
)


def small_data(rng, n=12, scale=0.8):
    x = rng.normal(size=(n, 1))
    z = 0.7 * x + 0.5 * rng.normal(size=(n, 1))
    y = scale * rng.normal(size=n)
    return Dataset(x, z, y)


class TestRdivStage1:
    def test_identity_when_x_equals_z(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 1))
        data = Dataset(pts, pts, np.zeros(40))
        basis = polynomial_basis(1, 2)
        op = rdiv_stage1(data, basis, basis, ridge_stage1=0.0)
        np.testing.assert_allclose(op.b, np.eye(3), atol=1e-8)

    def test_near_zero_under_independence(self):
        rng = np.random.default_rng(1)
        n = 20000
        x = rng.normal(size=(n, 1))
        z = rng.normal(size=(n, 1))
        data = Dataset(x, z, np.zeros(n))
        centered = custom_basis(
            [lambda p: p[:, 0], lambda p: p[:, 0] ** 2 - 1.0], 1
        )
        op = rdiv_stage1(data, centered, centered, ridge_stage1=0.0)
        assert np.abs(op.b).max() < 6.0 / np.sqrt(n) * 10

    def test_matches_hand_built_normal_equations(self):
        rng = np.random.default_rng(2)
        data = small_data(rng, n=6)
        bx = polynomial_basis(1, 1)
        bz = polynomial_basis(1, 1)
        psi = bx.evaluate(data.x)
        phi = bz.evaluate(data.z)
        gz = np.zeros((2, 2))
        cross = np.zeros((2, 2))
        for i in range(6):
            gz += np.outer(phi[i], phi[i]) / 6.0
            cross += np.outer(phi[i], psi[i]) / 6.0
        oracle = np.linalg.solve(gz, cross)
        op = rdiv_stage1(data, bx, bz, ridge_stage1=0.0)
        np.testing.assert_allclose(op.b, oracle, atol=1e-10)

    def test_singular_gram_with_zero_ridge_raises(self):
        rng = np.random.default_rng(3)
        data = small_data(rng, n=8)
        dup = custom_basis([lambda p: p[:, 0], lambda p: p[:, 0]], 1)
        with pytest.raises(NumericalError, match="condition estimate"):
            rdiv_stage1(data, polynomial_basis(1, 1), dup, ridge_stage1=0.0)


class TestRdivFit:
    def test_zero_outcome_gives_zero_fit(self):
        rng = np.random.default_rng(4)
        data = small_data(rng, n=10, scale=0.0)
        op = rdiv_stage1(data, polynomial_basis(1, 1), polynomial_basis(1, 1))
        fit = rdiv_fit(data, op, 0.5)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-14)
        assert fit.empirical_loss == pytest.approx(0.0, abs=1e-20)

    def test_huge_lambda_kills_coefficients(self):
        rng = np.random.default_rng(5)
        data = small_data(rng, n=20)
        op = rdiv_stage1(data, polynomial_basis(1, 1), polynomial_basis(1, 1))
        big = rdiv_fit(data, op, 1e8)
        ref = rdiv_fit(data, op, 1.0)
        assert np.linalg.norm(big.coeffs) <= 1e-4 * np.linalg.norm(ref.coeffs)
        assert big.empirical_loss == pytest.approx(np.mean(data.y**2), rel=1e-3)

    def test_objective_matches_grid_plus_polish_oracle(self):
        rng = np.random.default_rng(6)
        data = small_data(rng, n=8)
        bx = polynomial_basis(1, 1)
        bz = polynomial_basis(1, 1)
        op = rdiv_stage1(data, bx, bz, ridge_stage1=0.0)
        lam = 0.3
        gram_x = empirical_gram(bx.evaluate(data.x))

        def objective(c):
            return rdiv_loss(data, op, c) + lam * float(c @ gram_x @ c)

        coarse = [
            np.array([a, b])
            for a in np.linspace(-2, 2, 21)
            for b in np.linspace(-2, 2, 21)
        ]
        start = min(coarse, key=objective)
        polished = minimize(objective, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12}).fun
        fit = rdiv_fit(data, op, lam)
        assert objective(fit.coeffs) <= polished + 1e-8

    def test_loss_examples(self):
        rng = np.random.default_rng(7)
        data = small_data(rng, n=9)
        bx = polynomial_basis(1, 1)
        bz = polynomial_basis(1, 2)
        op = rdiv_stage1(data, bx, bz)
        # c = 0 -> mean of y^2
        assert rdiv_loss(data, op, np.zeros(2)) == pytest.approx(
            np.mean(data.y**2), rel=1e-12
        )
        # perfect synthetic fit: y generated as Phi B c*
        c_star = np.array([0.4, -0.7])
        phi = bz.evaluate(data.z)
        synthetic = Dataset(data.x, data.z, phi @ (op.b @ c_star))
        op2 = rdiv_stage1(synthetic, bx, bz)
        # the operator refit is on the same features, so B is unchanged
        np.testing.assert_allclose(op2.b, op.b, atol=1e-12)
        assert rdiv_loss(synthetic, op2, c_star) == pytest.approx(0.0, abs=1e-16)

    def test_loss_matches_per_record_loop(self):
        rng = np.random.default_rng(8)
        data = small_data(rng, n=11)
        op = rdiv_stage1(data, polynomial_basis(1, 2), polynomial_basis(1, 2))
        c = rng.normal(size=3)
        phi = polynomial_basis(1, 2).evaluate(data.z)
        slow = sum(
            (data.y[i] - float(phi[i] @ op.b @ c)) ** 2 for i in range(11)
        ) / 11.0
        assert rdiv_loss(data, op, c) == pytest.approx(slow, rel=1e-12)


class TestTraeInnerMax:
    def test_matched_moments_give_zero(self):
        rng = np.random.default_rng(9)
        data = small_data(rng, n=15)
        bh = polynomial_basis(1, 1)
        bf = polynomial_basis(1, 1)
        m, g, b, _ = trae_mats(data, outcome_moment(), bh, bf)
        coeffs_h = np.linalg.solve(b, g)  # makes g - B h = 0 exactly
        f, value = trae_inner_max(data, outcome_moment(), bh, bf, coeffs_h,
                                  ridge_inner=0.0)
        np.testing.assert_allclose(f, 0.0, atol=1e-10)
        assert abs(value) <= 1e-12

    def test_scalar_constant_adversary(self):
        rng = np.random.default_rng(10)
        data = small_data(rng, n=10)
        bh = polynomial_basis(1, 1)
        const = polynomial_basis(1, 0)  # single function, identically 1
        c_h = rng.normal(size=2)
        h_bar = float(bh.evaluate(data.x).mean(axis=0) @ c_h)
        _, value = trae_inner_max(data, outcome_moment(), bh, const, c_h,
                                  ridge_inner=0.0)
        assert value == pytest.approx((data.y.mean() - h_bar) ** 2, rel=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(11)
        data = small_data(rng, n=10)
        bh = polynomial_basis(1, 1)
        bf = polynomial_basis(1, 1)
        c_h = 0.3 * rng.normal(size=2)
        m, g, b, _ = trae_mats(data, outcome_moment(), bh, bf)
        _, grid_val = grid_inner_max(g, b @ c_h, m, step=2e-3)
        _, value = trae_inner_max(data, outcome_moment(), bh, bf, c_h,
                                  ridge_inner=0.0)
        assert value == pytest.approx(grid_val, abs=5e-3)

    def test_singular_gram_zero_ridge_raises(self):
        rng = np.random.default_rng(12)
        data = small_data(rng, n=8)
        dup = custom_basis([lambda p: p[:, 0], lambda p: p[:, 0]], 1)
        with pytest.raises(NumericalError, match="singular"):
            trae_inner_max(data, outcome_moment(), polynomial_basis(1, 1), dup,
                           np.zeros(2), ridge_inner=0.0)


class TestTraeFit:
    def test_zero_outcome(self):
        rng = np.random.default_rng(13)
        data = small_data(rng, n=10, scale=0.0)
        fit = trae_fit(data, outcome_moment(), polynomial_basis(1, 1),
                       polynomial_basis(1, 1), 0.5)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-12)
        assert fit.empirical_loss == pytest.approx(0.0, abs=1e-18)

    def test_huge_lambda(self):
        rng = np.random.default_rng(14)
        data = small_data(rng, n=12)
        bh, bf = polynomial_basis(1, 1), polynomial_basis(1, 1)
        fit = trae_fit(data, outcome_moment(), bh, bf, 1e8, ridge_inner=0.0)
        m, g, _, _ = trae_mats(data, outcome_moment(), bh, bf)
        assert np.linalg.norm(fit.coeffs) < 1e-6
        assert fit.empirical_loss == pytest.approx(
            float(g @ np.linalg.solve(m, g)), rel=1e-4
        )

    def test_beats_nested_grid(self):
        rng = np.random.default_rng(15)
        data = small_data(rng, n=10)
        bh, bf = polynomial_basis(1, 1), polynomial_basis(1, 1)
        lam = 0.2
        fit = trae_fit(data, outcome_moment(), bh, bf, lam, ridge_inner=0.0)
        gram_h = empirical_gram(bh.evaluate(data.x))
        closed_obj = fit.empirical_loss + lam * float(
            fit.coeffs @ gram_h @ fit.coeffs
        )
        grid_obj, _ = nested_grid_trae_objective(
            data, outcome_moment(), bh, bf, lam
        )
        assert closed_obj <= grid_obj + 5e-3

    def test_dual_mirrors_primal_bit_for_bit(self):
        rng = np.random.default_rng(16)
        data = small_data(rng, n=14)
        swapped = Dataset(data.z, data.x, data.y)
        bh, bf = polynomial_basis(1, 2), polynomial_basis(1, 1)
        primal = trae_fit(data, outcome_moment(), bh, bf, 0.3)
        dual = trae_dual_fit(swapped, outcome_moment(), bh, bf, 0.3)
        assert np.array_equal(primal.coeffs, dual.coeffs)
        assert primal.empirical_loss == dual.empirical_loss
        assert np.array_equal(primal.inner_adversary, dual.inner_adversary)

    def test_dual_fit_zero_outcome_with_ate_moment(self):
        rng = np.random.default_rng(17)
        n = 12
        x = np.column_stack([rng.integers(0, 2, n).astype(float),
                             rng.normal(size=n)])
        data = Dataset(x, rng.normal(size=(n, 1)), rng.normal(size=n))
        # target moment of the constant-in-treatment basis is zero, so q = 0
        bq = polynomial_basis(1, 1)
        bs = custom_basis([lambda p: np.ones(len(p)), lambda p: p[:, 1]], 2)
        fit = trae_dual_fit(data, ate_moment(0), bq, bs, 0.5)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-10)


class TestClosedFormLoss:
    def test_matches_direct_evaluators_at_fitted_coefficients(self):
        # the system's loss const - sum w^2 (mu + 2 lam) against the direct
        # residual and inner-maximum evaluations, relative to the larger of
        # the direct value and the loss at c = 0
        rng = np.random.default_rng(18)
        bx, bz = polynomial_basis(1, 2), polynomial_basis(1, 1)
        for lam in (0.0, 1e-3, 0.4):
            data = small_data(rng, n=16)
            swapped = Dataset(data.z, data.x, data.y)
            rdiv = RdivEstimator(bx, bz)
            op = rdiv.stage1(data)
            fit = rdiv.system(data).solve(lam)
            direct = rdiv_loss(data, op, fit.coeffs)
            scale = max(direct, rdiv_loss(data, op, np.zeros(3)))
            assert abs(fit.empirical_loss - direct) <= 1e-12 * scale
            # the dual's inner maximum is the primal one on the records with
            # X and Z swapped
            for est, records, moment, bh, bf in (
                (TraeEstimator(outcome_moment(), bx, bz), data,
                 outcome_moment(), bx, bz),
                (TraeDualEstimator(mean_moment(), bz, bx), swapped,
                 mean_moment(), bz, bx),
            ):
                fit = est.system(data).solve(lam)
                _, direct = trae_inner_max(records, moment, bh, bf, fit.coeffs)
                _, at_zero = trae_inner_max(records, moment, bh, bf,
                                            np.zeros(bh.n_funcs))
                scale = max(direct, at_zero)
                assert abs(fit.empirical_loss - direct) <= 1e-12 * scale


class TestProperties:
    def test_penalized_objective_optimality(self):
        rng = np.random.default_rng(20)
        data = small_data(rng, n=18)
        bx, bz = polynomial_basis(1, 2), polynomial_basis(1, 2)
        gram_x = empirical_gram(bx.evaluate(data.x))
        lam = 0.15
        rdiv = RdivEstimator(bx, bz)
        op = rdiv.stage1(data)
        trae = TraeEstimator(outcome_moment(), bx, bz)
        for est, loss in (
            (rdiv, lambda c: rdiv_loss(data, op, c)),
            (trae, lambda c: trae_inner_max(data, outcome_moment(), bx, bz, c)[1]),
        ):
            fit = est.system(data).solve(lam)
            base = loss(fit.coeffs) + lam * float(fit.coeffs @ gram_x @ fit.coeffs)
            for _ in range(20):
                c = fit.coeffs + rng.normal(scale=0.3, size=fit.coeffs.size)
                obj = loss(c) + lam * float(c @ gram_x @ c)
                assert obj >= base - 1e-9

    def test_inner_value_equals_projected_residual_norm(self):
        # representable conditional means: the inner-max value must equal
        # the empirical norm of the Z-projection of the residual
        rng = np.random.default_rng(21)
        data = small_data(rng, n=40)
        bh, bf = polynomial_basis(1, 2), polynomial_basis(1, 2)
        c = rng.normal(size=3)
        _, value = trae_inner_max(data, outcome_moment(), bh, bf, c,
                                  ridge_inner=0.0)
        phi = bf.evaluate(data.z)
        resid = data.y - bh.evaluate(data.x) @ c
        proj = phi @ np.linalg.lstsq(phi, resid, rcond=None)[0]
        assert value == pytest.approx(float(np.mean(proj**2)), rel=1e-8)

    def test_moment_linearity(self):
        rng = np.random.default_rng(22)
        n = 25
        x = np.column_stack([rng.integers(0, 2, n).astype(float),
                             rng.normal(size=n)])
        data = Dataset(x, rng.normal(size=(n, 2)), rng.normal(size=n))
        basis = polynomial_basis(2, 2)
        for moment, arg in ((outcome_moment(), "z"), (ate_moment(0), "x"),
                            (mean_moment(), "x")):
            mat = moment.matrix(data, basis, arg)
            cf = rng.normal(size=basis.n_funcs)
            cg = rng.normal(size=basis.n_funcs)
            alpha = 1.7
            lhs = np.mean(mat @ (alpha * cf + cg))
            rhs = alpha * np.mean(mat @ cf) + np.mean(mat @ cg)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_fit_result_serializes(self):
        rng = np.random.default_rng(23)
        data = small_data(rng, n=10)
        fit = trae_fit(data, outcome_moment(), polynomial_basis(1, 1),
                       polynomial_basis(1, 1), 0.5)
        rec = fit.to_record()
        assert set(rec) == {"coeffs", "lambda", "empirical_loss",
                            "norm_penalty", "inner_adversary"}
