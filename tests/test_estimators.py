import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from folds import fold_gram, fold_system, inner_maximizer
from oracles import (
    dense_inner_max,
    dense_tikhonov,
    grid_inner_max,
    inner_objective,
    nested_grid_trae_objective,
    rdiv_loss,
    rdiv_reference_system,
    trae_mats,
    trae_reference_system,
)

from adaptik.estimators import (
    NumericalError,
    RdivEstimator,
    TikhonovSystem,
    TraeEstimator,
    ate_moment,
    mean_moment,
    outcome_moment,
    rdiv_stage1,
    trae_dual_fit,
    trae_fit,
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
        b = rdiv_stage1(fold_gram(data, basis, basis), 3, ridge_stage1=0.0)
        np.testing.assert_allclose(b, np.eye(3), atol=1e-8)

    def test_near_zero_under_independence(self):
        rng = np.random.default_rng(1)
        n = 20000
        x = rng.normal(size=(n, 1))
        z = rng.normal(size=(n, 1))
        data = Dataset(x, z, np.zeros(n))
        centered = custom_basis(
            [lambda p: p[:, 0], lambda p: p[:, 0] ** 2 - 1.0], 1
        )
        b = rdiv_stage1(fold_gram(data, centered, centered), 2,
                        ridge_stage1=0.0)
        assert np.abs(b).max() < 6.0 / np.sqrt(n) * 10

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
        b = rdiv_stage1(fold_gram(data, bx, bz), 2, ridge_stage1=0.0)
        np.testing.assert_allclose(b, oracle, atol=1e-10)

    def test_singular_gram_with_zero_ridge_raises(self):
        rng = np.random.default_rng(3)
        data = small_data(rng, n=8)
        dup = custom_basis([lambda p: p[:, 0], lambda p: p[:, 0]], 1)
        with pytest.raises(NumericalError, match="condition estimate"):
            rdiv_stage1(fold_gram(data, polynomial_basis(1, 1), dup), 2,
                        ridge_stage1=0.0)


class TestRdivFit:
    def test_zero_outcome_gives_zero_fit(self):
        rng = np.random.default_rng(4)
        data = small_data(rng, n=10, scale=0.0)
        rdiv = RdivEstimator(polynomial_basis(1, 1))
        fit = fold_system(rdiv, data, polynomial_basis(1, 1)).solve(0.5)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-14)
        assert fit.empirical_loss == pytest.approx(0.0, abs=1e-20)

    def test_huge_lambda_kills_coefficients(self):
        rng = np.random.default_rng(5)
        data = small_data(rng, n=20)
        system = fold_system(RdivEstimator(polynomial_basis(1, 1)), data,
                             polynomial_basis(1, 1))
        big = system.solve(1e8)
        ref = system.solve(1.0)
        assert np.linalg.norm(big.coeffs) <= 1e-4 * np.linalg.norm(ref.coeffs)
        assert big.empirical_loss == pytest.approx(np.mean(data.y**2), rel=1e-3)

    def test_objective_matches_grid_plus_polish_oracle(self):
        rng = np.random.default_rng(6)
        data = small_data(rng, n=8)
        bx = polynomial_basis(1, 1)
        bz = polynomial_basis(1, 1)
        gram = fold_gram(data, bx, bz)
        b = rdiv_stage1(gram, 2, ridge_stage1=0.0)
        lam = 0.3
        gram_x = empirical_gram(bx.evaluate(data.x))

        def objective(c):
            return rdiv_loss(data, b, bz, c) + lam * float(c @ gram_x @ c)

        coarse = [
            np.array([a, b])
            for a in np.linspace(-2, 2, 21)
            for b in np.linspace(-2, 2, 21)
        ]
        start = min(coarse, key=objective)
        polished = minimize(objective, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12}).fun
        fit = RdivEstimator(bx, ridge_stage1=0.0).system_from(gram).solve(lam)
        assert objective(fit.coeffs) <= polished + 1e-8

    def test_loss_examples(self):
        rng = np.random.default_rng(7)
        data = small_data(rng, n=9)
        bx = polynomial_basis(1, 1)
        bz = polynomial_basis(1, 2)
        b = rdiv_stage1(fold_gram(data, bx, bz), 2)
        # c = 0 -> mean of y^2
        assert rdiv_loss(data, b, bz, np.zeros(2)) == pytest.approx(
            np.mean(data.y**2), rel=1e-12
        )
        # perfect synthetic fit: y generated as Phi B c*
        c_star = np.array([0.4, -0.7])
        phi = bz.evaluate(data.z)
        synthetic = Dataset(data.x, data.z, phi @ (b @ c_star))
        b2 = rdiv_stage1(fold_gram(synthetic, bx, bz), 2)
        # the operator refit is on the same features, so B is unchanged
        np.testing.assert_allclose(b2, b, atol=1e-12)
        assert rdiv_loss(synthetic, b2, bz, c_star) == pytest.approx(0.0,
                                                                     abs=1e-16)

    def test_loss_matches_per_record_loop(self):
        # the reference rdiv_loss at any c, and the system's own loss at
        # its fitted coefficients, against a loop over the records
        rng = np.random.default_rng(8)
        data = small_data(rng, n=11)
        basis = polynomial_basis(1, 2)
        gram = fold_gram(data, basis, basis)
        b = rdiv_stage1(gram, 3)
        c = rng.normal(size=3)
        phi = basis.evaluate(data.z)

        def slow(c):
            return sum(
                (data.y[i] - float(phi[i] @ b @ c)) ** 2 for i in range(11)
            ) / 11.0
        assert rdiv_loss(data, b, basis, c) == pytest.approx(slow(c), rel=1e-12)
        fit = RdivEstimator(basis).system_from(gram).solve(0.1)
        assert fit.empirical_loss == pytest.approx(slow(fit.coeffs), rel=1e-12)


class TestTraeInnerMax:
    """The inner maximizer a TRAE system carries, against references
    built from the records."""

    def test_matched_moments_give_zero(self):
        rng = np.random.default_rng(9)
        data = small_data(rng, n=15)
        bh = polynomial_basis(1, 1)
        bf = polynomial_basis(1, 1)
        m, g, b, _ = trae_mats(data, outcome_moment(), bh, bf)
        coeffs_h = np.linalg.solve(b, g)  # makes g - B h = 0 exactly
        f = inner_maximizer(data, bh, bf, coeffs_h)
        np.testing.assert_allclose(f, 0.0, atol=1e-10)
        assert abs(inner_objective(f, g, b @ coeffs_h, m)) <= 1e-12

    def test_scalar_constant_adversary(self):
        # f = E_n[y] - E_n[h(X)] against the constant function, whose
        # inner value is its square
        rng = np.random.default_rng(10)
        data = small_data(rng, n=10)
        bh = polynomial_basis(1, 1)
        const = polynomial_basis(1, 0)  # single function, identically 1
        c_h = rng.normal(size=2)
        h_bar = float(bh.evaluate(data.x).mean(axis=0) @ c_h)
        f = inner_maximizer(data, bh, const, c_h)
        assert f[0] ** 2 == pytest.approx((data.y.mean() - h_bar) ** 2,
                                          rel=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(11)
        data = small_data(rng, n=10)
        bh = polynomial_basis(1, 1)
        bf = polynomial_basis(1, 1)
        c_h = 0.3 * rng.normal(size=2)
        m, g, b, _ = trae_mats(data, outcome_moment(), bh, bf)
        _, grid_val = grid_inner_max(g, b @ c_h, m, step=2e-3)
        f = inner_maximizer(data, bh, bf, c_h)
        value = inner_objective(f, g, b @ c_h, m)
        assert value == pytest.approx(grid_val, abs=5e-3)

    def test_singular_gram_zero_ridge_raises(self):
        rng = np.random.default_rng(12)
        data = small_data(rng, n=8)
        dup = custom_basis([lambda p: p[:, 0], lambda p: p[:, 0]], 1)
        with pytest.raises(NumericalError, match="singular"):
            inner_maximizer(data, polynomial_basis(1, 1), dup, np.zeros(2))


_RIDGE_ENTRY_POINTS = {
    "rdiv_stage1": lambda data, b, adv, ridge: rdiv_stage1(
        fold_gram(data, b, adv), b.n_funcs, ridge),
    "trae_fit": lambda data, b, adv, ridge: trae_fit(
        data, outcome_moment(), b, adv, 0.1, ridge),
    "TraeEstimator.system_from": lambda data, b, adv, ridge: fold_system(
        TraeEstimator(outcome_moment(), b, adv, ridge), data),
}


@pytest.mark.parametrize("entry", sorted(_RIDGE_ENTRY_POINTS))
def test_every_gram_solve_keeps_one_ridge_rule(entry):
    """A negative ridge is a ValueError and a zero ridge on a nearly
    collinear instrument basis (condition ~5e14) a NumericalError, at
    every entry point that inverts the instrument Gram."""
    rng = np.random.default_rng(31)
    data = small_data(rng, n=200)
    near = custom_basis([lambda p: p[:, 0],
                         lambda p: p[:, 0] + 1e-7 * np.sin(37.0 * p[:, 0])], 1)
    call = _RIDGE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="nonnegative"):
        call(data, polynomial_basis(1, 1), polynomial_basis(1, 1), -1.0)
    with pytest.raises(NumericalError, match="condition estimate"):
        call(data, polynomial_basis(1, 1), near, 0.0)


@pytest.mark.parametrize("handle", [
    RdivEstimator(polynomial_basis(1, 1), ridge_stage1=0.0),
    TraeEstimator(outcome_moment(), polynomial_basis(1, 1),
                  polynomial_basis(1, 1), 0.0)], ids=["rdiv", "trae"])
def test_indefinite_gram_is_numerical_error(handle):
    """An instrument Gram diag(1, -1) is well conditioned, so at zero
    ridge only the Cholesky check can reject it, as a NumericalError."""
    gram = np.eye(5)  # [hypothesis (2) | instrument (2) | y]
    gram[3, 3] = -1.0
    with pytest.raises(NumericalError, match="not positive definite"):
        handle.system_from(gram)


@pytest.mark.parametrize("entry", ["gram", "a"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_is_numerical_error(entry, bad):
    # an overflowing Gram would otherwise lose its directions to the cutoff
    # and solve to silent zeros
    mats = {"gram": np.eye(2), "a": np.eye(2)}
    mats[entry][0, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        TikhonovSystem.factor(mats["a"], np.ones(2), 1.0, mats["gram"])


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

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        data = small_data(np.random.default_rng(13), n=10)
        system = fold_system(TraeEstimator(outcome_moment(),
                                           polynomial_basis(1, 1),
                                           polynomial_basis(1, 1)), data)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            system.solve(lam)

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
        # the system's loss L_min + lam^2 sum_P w^2/mu against the residual
        # and exact inner-maximum references of tests/oracles.py (TRAE at
        # zero inner ridge), relative to the larger of the reference value
        # and the loss at c = 0
        rng = np.random.default_rng(18)
        bx, bz = polynomial_basis(1, 2), polynomial_basis(1, 1)
        for lam in (0.0, 1e-3, 0.4):
            data = small_data(rng, n=16)
            swapped = Dataset(data.z, data.x, data.y)
            gram = fold_gram(data, bx, bz)
            b = rdiv_stage1(gram, 3)
            fit = RdivEstimator(bx).system_from(gram).solve(lam)
            direct = rdiv_loss(data, b, bz, fit.coeffs)
            scale = max(direct, rdiv_loss(data, b, bz, np.zeros(3)))
            assert abs(fit.empirical_loss - direct) <= 1e-12 * scale
            # the dual's inner maximum is the primal one on the records with
            # X and Z swapped
            for fit, records, moment, bh, bf in (
                (trae_fit(data, outcome_moment(), bx, bz, lam, 0.0), data,
                 outcome_moment(), bx, bz),
                (trae_dual_fit(data, mean_moment(), bz, bx, lam, 0.0), swapped,
                 mean_moment(), bz, bx),
            ):
                direct = dense_inner_max(records, moment, bh, bf, fit.coeffs)
                at_zero = dense_inner_max(records, moment, bh, bf,
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
        rdiv = RdivEstimator(bx)
        b = rdiv_stage1(fold_gram(data, bx, bz), 3)
        trae = TraeEstimator(outcome_moment(), bx, bz)
        for est, loss in (
            (rdiv, lambda c: rdiv_loss(data, b, bz, c)),
            (trae, lambda c: dense_inner_max(data, outcome_moment(), bx, bz, c)),
        ):
            fit = fold_system(est, data, bz).solve(lam)
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
        f = inner_maximizer(data, bh, bf, c)
        phi = bf.evaluate(data.z)
        # at the maximizer the value (g - B c)'f is f'M f, the mean of
        # the adversary's square
        value = float(np.mean((phi @ f) ** 2))
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
        for moment, block in ((outcome_moment(), data.z), (ate_moment(0), data.x),
                              (mean_moment(), data.x)):
            mat = moment.matrix(block, data.y, basis)
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


def oracle_data(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    z = 0.8 * x + 0.2 * rng.uniform(-1.0, 1.0, size=(n, 1))
    y = np.sin(2.0 * x[:, 0]) + 0.3 * rng.normal(size=n)
    return Dataset(x, z, y)


def assert_matches_reference(fit, system, lam):
    coeffs, loss = dense_tikhonov(system, lam)
    np.testing.assert_allclose(fit.coeffs, coeffs, rtol=1e-9,
                               atol=1e-9 * float(np.abs(coeffs).max()))
    assert fit.empirical_loss == pytest.approx(loss, rel=1e-9,
                                               abs=1e-9 * system[2])


oracle_cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 400),
                    k=st.integers(1, 4), extra=st.integers(0, 2),
                    lam=st.sampled_from([0.0, 1e-3, 0.1]))


class TestGramOnlySystems:
    """Systems built from a stacked Gram alone solve the same quadratic as
    the n-row reference systems in tests/oracles.py."""

    @settings(max_examples=40, deadline=None)
    @given(**oracle_cases)
    def test_rdiv_matches_the_phi_b_reference(self, seed, n, k, extra, lam):
        data = oracle_data(seed, n)
        bx, bz = polynomial_basis(1, k - 1), polynomial_basis(1, k - 1 + extra)
        gram = fold_gram(data, bx, bz)
        fit = RdivEstimator(bx).system_from(gram).solve(lam)
        b = rdiv_stage1(gram, k)
        assert_matches_reference(fit, rdiv_reference_system(data, b, bx, bz),
                                 lam)

    @pytest.mark.parametrize("moment", [outcome_moment(), mean_moment()],
                             ids=["outcome", "mean"])
    @settings(max_examples=40, deadline=None)
    @given(**oracle_cases)
    def test_trae_matches_the_mean_and_cross_product_reference(
            self, moment, seed, n, k, extra, lam):
        data = oracle_data(seed, n)
        bh, bf = polynomial_basis(1, k - 1), polynomial_basis(1, k - 1 + extra)
        fit = fold_system(TraeEstimator(moment, bh, bf, ridge_inner=0.0),
                          data).solve(lam)
        assert_matches_reference(
            fit, trae_reference_system(data, moment, bh, bf, 0.0), lam)
