import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import row_major_evaluate

from adaptik.sieve import (
    Dataset,
    additive_basis,
    custom_basis,
    empirical_gram,
    normalize_basis,
    polynomial_basis,
    save_dataset_csv,
    scale_gram,
    stacked_gram,
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 41, 101])
    def test_fourier_rows_match_libm(self, k):
        # rows f > 1 come from sin x and cos x by angle addition; each
        # step adds a few roundings, so the error grows with K but stays
        # below 4 K eps.  The reference rounds f x once, which moves its
        # value by up to |f x| eps_ref; in long double (64-bit mantissa)
        # f x is exact for f <= 50.
        x = np.random.default_rng(k).uniform(-1e3, 1e3, size=2000)
        x[:3] = (0.0, -1e3, 1e3)
        vals = trigonometric_basis(k, scale=1.0).evaluate(x)
        freq = np.arange(k) // 2 + np.arange(k) % 2  # 0, 1, 1, 2, 2, ...
        fx = freq * x.astype(np.longdouble)[:, None]
        ref = np.where(np.arange(k) % 2 == 1, np.sin(fx), np.cos(fx))
        eps, eps_ref = np.finfo(np.float64).eps, np.finfo(np.longdouble).eps
        bound = 4 * k * eps + eps_ref * (np.abs(fx) + 1)
        assert np.all(np.abs(vals - ref) <= bound)

    @pytest.mark.parametrize("k", [0, -2])
    def test_fourier_needs_a_function(self, k):
        with pytest.raises(ValueError, match="at least one function"):
            trigonometric_basis(k)

    def test_unscaled_is_built_once(self):
        basis = trigonometric_basis(5)
        assert basis.unscaled() is basis.unscaled()
        assert np.array_equal(basis.unscaled().normalization, np.ones(5))

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

    @pytest.mark.parametrize("d, powers, treat_col, interact_cols", [
        (5, (1, 2, 3), 0, (1, 2, 4)),
        (4, (1, 2, 3), 2, (0, 3)),
        (4, (1, 3), 0, ()),
        (3, (1, 2), None, ()),
        (1, (1, 2, 3), None, ()),
    ])
    def test_additive_matches_float_power_reference(self, d, powers, treat_col,
                                                    interact_cols):
        pts = np.random.default_rng(d).normal(size=(257, d)) * 2.0
        if treat_col is not None:
            pts[:, treat_col] = pts[:, treat_col] > 0.0
        # the layout: 1, treatment, each other coordinate's powers in the
        # given order, then treatment x coordinate interactions
        ref = [np.ones(len(pts))]
        if treat_col is not None:
            ref.append(pts[:, treat_col])
        for j in range(d):
            if j != treat_col:
                ref.extend(pts[:, j] ** e for e in powers)
        ref.extend(pts[:, treat_col] * pts[:, j] for j in interact_cols)
        ref = np.column_stack(ref)
        basis = additive_basis(d, powers=powers, treat_col=treat_col,
                               interact_cols=interact_cols)
        assert basis.n_funcs == ref.shape[1]
        np.testing.assert_allclose(basis.evaluate(pts), ref, rtol=1e-14, atol=0.0)

    def test_dimension_mismatch(self):
        basis = polynomial_basis(2, 1)
        with pytest.raises(ValueError, match="points"):
            basis.evaluate(np.zeros((3, 3)))

    def test_normalize_gives_unit_second_moment(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(200, 1)) * 3.0
        basis = polynomial_basis(1, 3)
        moments = np.diag(empirical_gram(basis.evaluate(sample)))
        vals = normalize_basis(basis, moments).evaluate(sample)
        np.testing.assert_allclose(np.mean(vals**2, axis=0), 1.0, rtol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, np.sqrt(2.0)])
    def test_normalize_rescales_the_gram_of_its_basis(self, scale):
        # the normalized basis has unit second moments and its stacked
        # Gram matches its values', also when the input basis is already
        # scaled and for a function whose RMS is below 1e-12, which keeps
        # its scale
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(300, 1)) * 3.0
        y = rng.normal(size=300)
        funcs = [lambda p: p[:, 0], lambda p: 1e-14 * p[:, 0] ** 2,
                 lambda p: np.cos(p[:, 0])]
        basis = custom_basis(funcs, 1)
        basis = type(basis)(basis.kind, 1, 3, np.array([1.0, scale, scale]),
                            basis.params)
        unscaled = (basis.unscaled().evaluate(sample),)
        out = normalize_basis(basis, np.diag(stacked_gram(unscaled, y, (basis,)))[:-1])
        assert out.normalization[1] == scale
        gram = stacked_gram(unscaled, y, (out,))
        direct = empirical_gram(np.column_stack([out.evaluate(sample), y]))
        np.testing.assert_allclose(gram, direct, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(np.diag(gram)[[0, 2]], 1.0, rtol=1e-12)


class TestColumnMajor:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
           kind=st.sampled_from(["polynomial", "trigonometric", "additive"]))
    def test_equals_the_row_major_reference_bit_for_bit(self, seed, m, kind):
        rng = np.random.default_rng(seed)
        if kind == "polynomial":
            basis, pts = polynomial_basis(2, 3), rng.normal(size=(m, 2)) * 2.0
        elif kind == "trigonometric":
            basis = trigonometric_basis(9)
            pts = rng.uniform(-np.pi, np.pi, size=(m, 1))
        else:
            basis = additive_basis(4, powers=(1, 3), treat_col=0,
                                   interact_cols=(1, 3))
            pts = rng.normal(size=(m, 4))
            pts[:, 0] = rng.integers(0, 2, size=m)
        scaled = type(basis)(basis.kind, basis.input_dim, basis.n_funcs,
                             rng.uniform(0.5, 2.0, size=basis.n_funcs),
                             basis.params)
        for b in (basis, scaled):
            vals = b.evaluate(pts)
            assert vals.shape == (m, b.n_funcs) and vals.flags.f_contiguous
            assert (np.ascontiguousarray(vals).tobytes()
                    == row_major_evaluate(b, pts).tobytes())


class TestStackedGram:
    def test_equals_the_gram_of_the_scaled_values(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-np.pi, np.pi, size=(50, 1))
        z, y = rng.normal(size=(50, 2)), rng.normal(size=50)
        bx, bz = trigonometric_basis(5), polynomial_basis(2, 2)
        gram = stacked_gram((bx.unscaled().evaluate(x), bz.unscaled().evaluate(z)),
                            y, (bx, bz))
        direct = empirical_gram(np.column_stack([bx.evaluate(x), bz.evaluate(z), y]))
        np.testing.assert_allclose(gram, direct, rtol=1e-13)
        assert np.array_equal(gram, gram.T)

    def test_rescaling_later_gives_the_same_bits(self):
        # normalizing computes the normalization from a unit-scale Gram and
        # rescales it; that must equal stacking under the normalization
        sample = np.random.default_rng(4).normal(size=(40, 1))
        y = np.cos(sample[:, 0])
        basis = trigonometric_basis(5)
        vals = (basis.unscaled().evaluate(sample),)
        unit = stacked_gram(vals, y, (basis.unscaled(),))
        assert np.array_equal(scale_gram(unit, (basis,)),
                              stacked_gram(vals, y, (basis,)))


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           m=st.integers(2, 20), extras=st.booleans())
    def test_take_equals_a_dataset_of_the_rows(self, seed, n, m, extras):
        rng = np.random.default_rng(seed)
        cols = {"t": rng.normal(size=n), "u": rng.normal(size=(n, 2))}
        data = Dataset(rng.normal(size=(n, 2)), rng.normal(size=(n, 1)),
                       rng.normal(size=n), cols if extras else None)
        idx = rng.integers(-n, n, size=m)
        sub = data.take(idx)
        ref = Dataset(data.x[idx], data.z[idx], data.y[idx], data.w_extra and
                      {k: v[idx] for k, v in data.w_extra.items()})
        assert (sub.w_extra is None) == (ref.w_extra is None)
        assert (sub.w_extra or {}).keys() == (ref.w_extra or {}).keys()
        arrays = [(sub.x, ref.x), (sub.z, ref.z), (sub.y, ref.y)]
        arrays += [(sub.w_extra[k], ref.w_extra[k]) for k in ref.w_extra or ()]
        for got, want in arrays:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        assert sub.n == m

    @pytest.mark.parametrize("indices", [
        [False, False, True, True, True, False],  # a mask is not row numbers
        [0.5, 2.7],  # nor are floats, truncated
        [[0, 1], [2, 3]],
        [], [3], np.array([], dtype=int),  # fewer than 2 records
    ])
    def test_take_rejects_bad_indices(self, indices):
        data = Dataset(np.arange(6.0), np.arange(6.0), np.arange(6.0))
        with pytest.raises(ValueError, match="1-d array of at least 2 integers"):
            data.take(indices)

    def test_swapped_exchanges_x_and_z(self):
        data = Dataset(np.zeros((3, 2)), np.ones((3, 1)), np.arange(3.0),
                       {"t": np.array([1.0, 2.0, 3.0])})
        swapped = data.swapped()
        assert np.array_equal(swapped.x, data.z)
        assert np.array_equal(swapped.z, data.x)
        assert np.array_equal(swapped.y, data.y)
        assert swapped.w_extra["t"].tolist() == [1.0, 2.0, 3.0]


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
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["x_0", "x_1", "z_0", "z_1", "z_2", "y",
                          "latent_0", "latent_1", "treatment"]
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, np.hstack([
            data.x, data.z, data.y[:, None], data.w_extra["latent"],
            data.w_extra["treatment"][:, None]]))
