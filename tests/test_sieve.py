import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptik.sieve import (
    Dataset,
    additive_basis,
    custom_basis,
    empirical_gram,
    empirical_norm,
    load_dataset_csv,
    normalize_basis,
    piecewise_basis,
    polynomial_basis,
    save_dataset_csv,
    trigonometric_basis,
)


class TestEvaluate:
    def test_polynomial_degree2_at_origin(self):
        basis = polynomial_basis(1, 2)
        np.testing.assert_array_equal(basis.evaluate([[0.0]]), [[1.0, 0.0, 0.0]])

    def test_trigonometric_at_zero(self):
        basis = trigonometric_basis(3)
        vals = basis.evaluate([[0.0]])
        np.testing.assert_allclose(vals, [[1.0, 0.0, np.sqrt(2.0)]])

    def test_matrix_matches_pointwise_loop(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 1))
        basis = polynomial_basis(1, 3)
        full = basis.evaluate(pts)
        for i in range(5):
            row = basis.evaluate(pts[i : i + 1])
            np.testing.assert_array_equal(full[i], row[0])

    def test_tensor_polynomial_counts(self):
        basis = polynomial_basis(2, 3)
        assert basis.n_funcs == 10  # C(2+3, 3)
        vals = basis.evaluate([[1.0, 1.0]])
        np.testing.assert_allclose(vals, np.ones((1, 10)))

    def test_piecewise_one_hot(self):
        basis = piecewise_basis(4, -1.0, 1.0)
        vals = basis.evaluate([[-0.9], [0.9], [5.0]])
        assert vals.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
        assert vals[0, 0] == 1.0 and vals[1, 3] == 1.0 and vals[2, 3] == 1.0

    def test_custom_dictionary(self):
        basis = custom_basis([lambda p: p[:, 0], lambda p: np.abs(p[:, 0])], 1)
        np.testing.assert_array_equal(
            basis.evaluate([[-2.0]]), [[-2.0, 2.0]]
        )

    def test_additive_layout(self):
        basis = additive_basis(3, powers=2, treat_col=0, interact_cols=(1,))
        # [1, A, x1, x1^2, x2, x2^2, A*x1]
        assert basis.n_funcs == 7
        vals = basis.evaluate([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(vals, [[1.0, 1.0, 2.0, 4.0, 3.0, 9.0, 2.0]])

    def test_additive_explicit_powers(self):
        basis = additive_basis(2, powers=(1, 3), treat_col=0)
        # [1, A, x1, x1^3]
        assert basis.n_funcs == 4
        vals = basis.evaluate([[1.0, 2.0]])
        np.testing.assert_allclose(vals, [[1.0, 1.0, 2.0, 8.0]])

    def test_dimension_mismatch(self):
        basis = polynomial_basis(2, 1)
        with pytest.raises(ValueError, match="points"):
            basis.evaluate(np.zeros((3, 3)))

    def test_normalize_gives_unit_second_moment(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(200, 1)) * 3.0
        basis = normalize_basis(polynomial_basis(1, 3), sample)
        vals = basis.evaluate(sample)
        np.testing.assert_allclose(np.mean(vals**2, axis=0), 1.0, rtol=1e-10)


class TestGram:
    def test_one_hot_rows(self):
        m = np.eye(4)
        np.testing.assert_allclose(empirical_gram(m), np.eye(4) / 4.0)

    def test_constant_column(self):
        assert empirical_gram(np.ones((3, 1))).tolist() == [[1.0]]

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(7, 3))
        slow = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                slow[a, b] = sum(m[i, a] * m[i, b] for i in range(7)) / 7.0
        np.testing.assert_allclose(empirical_gram(m), slow, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), k=st.integers(1, 6))
    def test_symmetric_psd(self, seed, n, k):
        m = np.random.default_rng(seed).normal(size=(n, k))
        g = empirical_gram(m)
        assert np.array_equal(g, g.T)
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-10 * max(np.trace(g), 1.0)


class TestEmpiricalNorm:
    def test_zero_coeffs(self):
        assert empirical_norm(np.zeros(3), np.eye(3)) == 0.0

    def test_one_hot_identity(self):
        assert empirical_norm(np.array([0.0, 1.0]), np.eye(2)) == 1.0

    def test_matches_pointwise_rms(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(50, 4))
        c = rng.normal(size=4)
        gram = empirical_gram(m)
        direct = np.sqrt(np.mean((m @ c) ** 2))
        assert empirical_norm(c, gram) == pytest.approx(direct, rel=1e-10)

    def test_rejects_negative_form(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_norm(np.array([1.0]), np.array([[-1.0]]))


class TestDataset:
    def test_validates_shapes_and_finiteness(self):
        with pytest.raises(ValueError, match="at least 2"):
            Dataset(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="row mismatch"):
            Dataset(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError, match="NaN"):
            Dataset(np.full((2, 1), np.nan), np.zeros((2, 1)), np.zeros(2))

    def test_take_preserves_extras(self):
        data = Dataset(
            np.arange(6.0).reshape(3, 2), np.zeros((3, 1)), np.zeros(3),
            {"t": np.array([1.0, 2.0, 3.0])},
        )
        sub = data.take([2, 0])
        assert sub.w_extra["t"].tolist() == [3.0, 1.0]
        assert sub.x[0].tolist() == [4.0, 5.0]


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(
            rng.normal(size=(10, 2)),
            rng.normal(size=(10, 3)),
            rng.normal(size=10),
            {"treatment": rng.integers(0, 2, 10).astype(float),
             "latent": rng.normal(size=(10, 2))},
        )
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.z, data.z)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.w_extra["treatment"], data.w_extra["treatment"])
        assert np.array_equal(back.w_extra["latent"], data.w_extra["latent"])

    def test_non_numeric_cell_is_addressed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_0,z_0,y\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(ValueError, match=r"line 3, column 'z_0'"):
            load_dataset_csv(path)

    def test_short_row_is_addressed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_0,z_0,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset_csv(path)

    def test_missing_required_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset_csv(path)
