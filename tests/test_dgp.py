import dataclasses

import numpy as np
import pytest

from adaptik.dgp import (
    NpivParams,
    ProxyNcParams,
    gen_npiv,
    gen_proxy_nc,
    treatment_rate,
    true_ate,
)
from adaptik.util import stream_rng


def degenerate_params(**overrides):
    """No confounding at all: Y = A + sum(S') + eps exactly."""
    d_s, d_q, d_w = 15, 15, 1
    base = dict(
        d_s=d_s, d_q=d_q, d_w=d_w,
        mu_0=np.zeros(d_w), kappa_0=np.zeros(d_w), kappa_a=np.zeros(d_w),
        mu_s=np.zeros((d_s, d_w)), kappa_s=np.zeros((d_s, d_w)),
        gamma_w=np.zeros((d_w, d_w)),
        b_q=np.zeros((d_s, d_q)), c_q=np.zeros((d_w, d_q)),
        sigma_u=np.zeros((d_w, d_w)), sigma_w=np.zeros((d_w, d_w)),
        sigma_q=np.zeros((d_q, d_q)),
        transform="identity", emit_latents=True,
    )
    base.update(overrides)
    return ProxyNcParams(**base)


class TestProxyNc:
    def test_degenerate_case_outcome_equation(self):
        params = degenerate_params()
        data, theta0 = gen_proxy_nc(params, 500, stream_rng(0))
        assert theta0 == 1.0
        a = data.w_extra["treatment"]
        s_sum = data.w_extra["s_lat"].sum(axis=1)
        eps_y = data.w_extra["eps_y"]
        np.testing.assert_allclose(data.y, a + s_sum + eps_y, atol=1e-12)

    def test_latent_replay_of_structural_equations(self):
        params = dataclasses.replace(
            ProxyNcParams.default(3, emit_latents=True), transform="identity"
        )
        data, _ = gen_proxy_nc(params, 200, stream_rng(1))
        ex = data.w_extra
        a = ex["treatment"][:, None]
        u = ex["u"]
        np.testing.assert_allclose(
            u, params.kappa_0 + ex["s_lat"] @ params.kappa_s
            + a * params.kappa_a + ex["eps_u"], atol=1e-12,
        )
        np.testing.assert_allclose(
            ex["q_lat"], 0.2 + ex["s_lat"] @ params.b_q + a
            + u @ params.c_q + ex["eps_q"], atol=1e-12,
        )
        np.testing.assert_allclose(
            ex["w_lat"], params.mu_0 + ex["s_lat"] @ params.mu_s
            + u @ params.gamma_w.T + ex["eps_w"], atol=1e-12,
        )
        np.testing.assert_allclose(
            data.y, ex["treatment"] + ex["s_lat"].sum(1) + u.sum(1)
            + ex["w_lat"].sum(1) + ex["eps_y"], atol=1e-12,
        )
        # with the identity transform the packed features are the latents
        np.testing.assert_array_equal(data.x[:, 1:2], ex["w_lat"])
        np.testing.assert_array_equal(data.z[:, 1:16], ex["q_lat"])

    def test_feature_packing_dimensions(self):
        params = ProxyNcParams.default(0)
        data, _ = gen_proxy_nc(params, 50, stream_rng(2))
        assert data.x.shape == (50, 1 + 1 + 15)
        assert data.z.shape == (50, 1 + 15 + 15)
        assert set(np.unique(data.x[:, 0])) <= {0.0, 1.0}

    def test_true_ate_cases(self):
        assert true_ate(degenerate_params()) == 1.0
        base = ProxyNcParams.default(0)
        p = dataclasses.replace(base, gamma_w=np.array([[0.5]]),
                                kappa_a=np.array([0.4]))
        assert true_ate(p) == pytest.approx(1.6, abs=1e-15)
        flipped = dataclasses.replace(p, kappa_a=np.array([-0.4]))
        assert true_ate(flipped) == pytest.approx(0.4, abs=1e-15)

    def test_true_ate_matches_potential_outcome_mc(self):
        # the potential-outcome difference is deterministic given the draw,
        # so even a modest sample pins the closed form to float precision
        params = ProxyNcParams.default(7)
        rng = stream_rng(11)
        n = 20000
        s = rng.normal(0, np.sqrt(0.5), (n, params.d_s))
        eps_u = rng.standard_normal((n, params.d_w)) * 0.5
        eps_w = rng.standard_normal((n, params.d_w)) * 0.5
        eps_y = rng.standard_normal(n)

        def pot(a):
            u = params.kappa_0 + s @ params.kappa_s + a * params.kappa_a + eps_u
            w = params.mu_0 + s @ params.mu_s + u @ params.gamma_w.T + eps_w
            return a + s.sum(1) + u.sum(1) + w.sum(1) + eps_y

        assert np.mean(pot(1.0) - pot(0.0)) == pytest.approx(
            true_ate(params), abs=1e-10
        )

    def test_seed_determinism(self):
        params = ProxyNcParams.default(0)
        d1, _ = gen_proxy_nc(params, 100, stream_rng(5))
        d2, _ = gen_proxy_nc(params, 100, stream_rng(5))
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.z, d2.z)
        assert np.array_equal(d1.y, d2.y)

    def test_cbrt_is_a_bijection(self):
        x = np.linspace(-8.0, 8.0, 1001)
        back = np.cbrt(x) ** 3
        np.testing.assert_allclose(back, x, atol=1e-12)
        assert np.cbrt(np.array([-8.0]))[0] == pytest.approx(-2.0)

    def test_moment_sanity_at_large_n(self):
        params = ProxyNcParams.default(0)
        n = 100_000
        data, _ = gen_proxy_nc(params, n, stream_rng(6))
        s_lat = data.x[:, 2:] ** 3  # invert the cube root
        se = np.sqrt(0.5 / n)
        assert np.abs(s_lat.mean(axis=0)).max() <= 3 * se * np.sqrt(10)
        rate = treatment_rate(params)
        a = data.x[:, 0]
        assert abs(a.mean() - rate) <= 3 * np.sqrt(rate * (1 - rate) / n)

    def test_conditional_moment_identity_linear_case(self):
        # with the identity transform a latent-linear bridge exists; its
        # residual must be empirically uncorrelated with the Z features
        master = 3
        params = dataclasses.replace(ProxyNcParams.default(master),
                                     transform="identity")
        gamma = params.gamma_w[0, 0]
        assert abs(gamma) > 0.05
        n = 100_000
        data, _ = gen_proxy_nc(params, n, stream_rng(8))
        b_w = 1.0 + 1.0 / gamma
        coef_s = 1.0 - params.mu_s[:, 0] / gamma
        c0 = -params.mu_0[0] / gamma
        h_vals = (data.x[:, 0] + b_w * data.x[:, 1]
                  + data.x[:, 2:] @ coef_s + c0)
        resid = data.y - h_vals
        phi = np.column_stack([np.ones(n), data.z])
        corr = np.abs(phi.T @ resid / n)
        scale = np.sqrt(np.mean(resid**2) * np.mean(phi**2, axis=0) / n)
        assert np.all(corr <= 5 * scale)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            degenerate_params(sigma_u=np.array([[-1.0]]))


class TestNpiv:
    def test_identity_map_reduces_to_regression(self):
        params = NpivParams(smoothing=0.0, endogeneity=0.0, noise_sd=0.3)
        data, truth = gen_npiv(params, 5000, stream_rng(0))
        np.testing.assert_array_equal(data.x, data.z)
        # regression of y on the dictionary recovers h0
        phi = truth.basis.evaluate(data.x)
        coef = np.linalg.lstsq(phi, data.y, rcond=None)[0]
        np.testing.assert_allclose(coef, truth.h0_coeffs, atol=0.05)

    def test_zero_h0_means_zero_conditional_mean(self):
        params = NpivParams(h0_coeffs=(0.0, 0.0, 0.0))
        data, truth = gen_npiv(params, 50_000, stream_rng(1))
        phi = truth.basis.evaluate(data.z)
        corr = np.abs(phi.T @ data.y / data.n)
        assert corr.max() <= 5 * params.noise_sd / np.sqrt(data.n) * np.sqrt(2)

    def test_spectrum_matches_configuration(self):
        params = NpivParams()
        data, truth = gen_npiv(params, 100_000, stream_rng(2))
        ez = truth.basis.evaluate(data.z)
        ex = truth.basis.evaluate(data.x)
        cross = ez.T @ ex / data.n
        np.testing.assert_allclose(np.diag(cross), truth.sigmas, atol=0.02)
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() <= 0.02

    def test_uniform_marginal_and_theta0(self):
        params = NpivParams()
        data, truth = gen_npiv(params, 100_000, stream_rng(3))
        assert truth.theta0 == params.h0_coeffs[0]
        assert truth.h0(data.x).mean() == pytest.approx(truth.theta0, abs=0.02)
        hist, _ = np.histogram(data.x[:, 0], bins=8, range=(-np.pi, np.pi))
        assert hist.min() > 0.9 * data.n / 8

    def test_strong_weak_scores(self):
        params = NpivParams()
        _, truth = gen_npiv(params, 10, stream_rng(4))
        c = np.array(params.h0_coeffs)
        assert truth.strong_sq(c) == 0.0 and truth.weak_sq(c) == 0.0
        c2 = c + np.eye(len(c))[1]
        assert truth.strong_sq(c2) == pytest.approx(1.0)
        assert truth.weak_sq(c2) == pytest.approx(truth.sigmas[1] ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NpivParams(decay_p=0.0)
        with pytest.raises(ValueError):
            NpivParams(endogeneity=1.0)
        with pytest.raises(ValueError):
            NpivParams(smoothing=0.0, endogeneity=0.3)

    def test_seed_determinism(self):
        params = NpivParams()
        d1, _ = gen_npiv(params, 200, stream_rng(9))
        d2, _ = gen_npiv(params, 200, stream_rng(9))
        assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.x, d2.x)
