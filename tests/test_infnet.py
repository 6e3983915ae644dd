"""Structured posterior networks: product of a recognition-net Gaussian factor
and a mixture or linear-dynamics factor.

Oracles, written before the implementation and frozen here:
  - trapezoid quadrature of the d=1 unnormalized product,
  - a dense joint-Gaussian evaluation of the sequence normalizer and posterior,
  - central finite differences over every parameter coordinate,
  - Monte Carlo moment checks with exact standard errors.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from structvi import baselines, infnet, linalg, models, nnet
from structvi.errors import ContractError, InvalidParameterError

import lds_reference


def make_gmm_net(rng, k=2, d=1, data_dim=2, hidden=(4,)):
    net = infnet.init_gmm_net(k, d, data_dim, hidden=hidden, rng=rng)
    net.mixture = dataclasses.replace(
        net.mixture,
        logits=rng.standard_normal(k) * 0.4,
        means=rng.standard_normal((k, d)) * 1.5,
        chol_raw=rng.standard_normal((k, linalg.tril_size(d))) * 0.3,
    )
    return net


def pathwise_grad(net, y, z, eps, grad_x):
    """Phi-layout adjoint of the draw x*(phi) at fixed indicators (None for
    dynamics) and noise, from one prepared pass."""
    prep = net.prepare(y)
    drawn = net.replay(prep, z, eps)
    return net.phi_grad(prep, *net.pathwise_vjp(prep, drawn, grad_x))


def make_lds_net(rng, d=1, data_dim=3, hidden=(4,)):
    net = infnet.init_lds_net(d, data_dim, hidden=hidden, rng=rng)
    net.dynamics = dataclasses.replace(
        net.dynamics,
        trans=0.7 * np.eye(d) + 0.15 * rng.standard_normal((d, d)),
        noise_raw=rng.standard_normal(linalg.tril_size(d)) * 0.3,
        init_mean=rng.standard_normal(d) * 0.5,
        init_raw=rng.standard_normal(linalg.tril_size(d)) * 0.3,
    )
    return net


def dense_sequence_oracle(dyn, m, v):
    """Normalizer and posterior of the dynamics factor times a diagonal factor.

    Builds the (T+1)d-dimensional joint Gaussian of the dynamics by recursion,
    treats (m, v) as observations of rows 1..T, and conditions in one shot.
    """
    t_len, d = m.shape
    dim = (t_len + 1) * d
    a, q = dyn.trans, dyn.noise_cov
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    mean[:d] = dyn.init_mean
    cov[:d, :d] = dyn.init_cov
    for t in range(1, t_len + 1):
        mean[t * d : (t + 1) * d] = a @ mean[(t - 1) * d : t * d]
        for s in range(t):
            prev = cov[s * d : (s + 1) * d, (t - 1) * d : t * d]
            cov[s * d : (s + 1) * d, t * d : (t + 1) * d] = prev @ a.T
            cov[t * d : (t + 1) * d, s * d : (s + 1) * d] = (prev @ a.T).T
        cov[t * d : (t + 1) * d, t * d : (t + 1) * d] = (
            a @ cov[(t - 1) * d : t * d, (t - 1) * d : t * d] @ a.T + q
        )
    h = np.zeros((t_len * d, dim))
    h[:, d:] = np.eye(t_len * d)
    r = np.diag(v.ravel())
    obs_cov = h @ cov @ h.T + r
    log_z = stats.multivariate_normal.logpdf(m.ravel(), h @ mean, obs_cov)
    gain = cov @ h.T @ np.linalg.inv(obs_cov)
    post_mean = mean + gain @ (m.ravel() - h @ mean)
    post_cov = cov - gain @ obs_cov @ gain.T
    return log_z, post_mean, post_cov


class TestGmmLogZ:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        net = make_gmm_net(rng, k=1, d=2, data_dim=3)
        y = rng.standard_normal((4, 3))
        m, v = infnet.encode(net, y)
        log_z, resp = infnet.gmm_log_z(net, y)
        expect = sum(
            stats.multivariate_normal.logpdf(
                m[i], net.mixture.means[0], np.diag(v[i]) + net.mixture.covs[0]
            )
            for i in range(4)
        )
        assert log_z == pytest.approx(expect, rel=1e-10)
        np.testing.assert_allclose(resp, 1.0)

    def test_quadrature_oracle(self):
        """d=1, K=2 per-datum normalizer vs trapezoid on [-30, 30], 1e5 nodes."""
        rng = np.random.default_rng(1)
        net = make_gmm_net(rng, k=2, d=1, data_dim=2)
        y = rng.standard_normal((5, 2))
        m, v = infnet.encode(net, y)
        _, per_datum, _ = infnet.gmm_log_z_parts(net.mixture, m, v)
        grid = np.linspace(-30.0, 30.0, 100_000)
        w = net.mixture.weights
        mu = net.mixture.means[:, 0]
        var = net.mixture.covs[:, 0, 0]
        for i in range(5):
            dnn = stats.norm.pdf(grid, m[i, 0], np.sqrt(v[i, 0]))
            pgm = sum(
                w[j] * stats.norm.pdf(grid, mu[j], np.sqrt(var[j])) for j in range(2)
            )
            val = np.log(trapezoid(dnn * pgm, grid))
            assert per_datum[i] == pytest.approx(val, abs=1e-6)

    def test_symmetric_components_equal_responsibilities(self):
        rng = np.random.default_rng(2)
        net = make_gmm_net(rng, k=2, d=1, data_dim=2)
        net.mixture = dataclasses.replace(
            net.mixture,
            logits=np.zeros(2), means=np.array([[1.3], [-1.3]]), chol_raw=np.zeros((2, 1)),
        )
        m = np.zeros((3, 1))
        v = np.full((3, 1), 0.7)
        _, _, resp = infnet.gmm_log_z_parts(net.mixture, m, v)
        np.testing.assert_allclose(resp, 0.5, atol=1e-12)

    def test_logsumexp_shift_stability(self):
        rng = np.random.default_rng(3)
        net = make_gmm_net(rng, k=3, d=2, data_dim=2)
        y = rng.standard_normal((6, 2))
        m, v = infnet.encode(net, y)
        scores = infnet.gmm_scores(net.mixture, m, v)
        log_z, _, resp = models.normalized(scores)
        log_z2, _, resp2 = models.normalized(scores + 1000.0)
        assert log_z2 - log_z == pytest.approx(6 * 1000.0, abs=1e-9)
        np.testing.assert_allclose(resp2, resp, atol=1e-12)

    def test_nonfinite_factor_rejected(self):
        rng = np.random.default_rng(4)
        net = make_gmm_net(rng, k=2, d=1, data_dim=2)
        net.mixture = dataclasses.replace(
            net.mixture, chol_raw=np.array([[800.0], [0.0]])  # exp overflow
        )
        y = rng.standard_normal((3, 2))
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError):
            infnet.gmm_log_z(net, y)

    @pytest.mark.parametrize("log_diag", [800.0, -800.0], ids=["overflow", "singular"])
    def test_diverged_factor_fails_without_warning(self, log_diag):
        """A raw log-diagonal of +800 overflows a component covariance and
        -800 makes it singular: a draw raises InvalidParameterError and no
        floating-point warning escapes."""
        rng = np.random.default_rng(9)
        net = make_gmm_net(rng, k=2, d=2, data_dim=2)
        net.mixture.chol_raw[0, [0, 2]] = log_diag  # the two diagonal slots
        y = rng.standard_normal((4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                net.draw(net.prepare(y), np.random.default_rng(0))

    def test_indefinite_draw_covariance_fails_without_warning(self):
        """A conditional covariance that is not positive definite (here from
        a negative encoder variance) raises InvalidParameterError, not
        LinAlgError, and no floating-point warning escapes."""
        mix = models.GaussianMixture(
            logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="not positive definite"):
                infnet.gmm_draw_factors(mix, np.zeros((3, 2)), np.full((3, 2), -0.5), np.zeros(3))

    def test_encoder_dim_mismatch(self):
        rng = np.random.default_rng(5)
        net = make_gmm_net(rng, k=2, d=2, data_dim=2)
        net.mixture = dataclasses.replace(
            net.mixture,
            means=rng.standard_normal((2, 3)),  # latent dim now 3
            chol_raw=np.zeros((2, 6)),
        )
        with pytest.raises(ContractError):
            infnet.gmm_log_z(net, rng.standard_normal((3, 2)))


class TestGmmSampling:
    def test_tight_dnn_factor_pins_sample(self):
        rng = np.random.default_rng(6)
        net = make_gmm_net(rng, k=2, d=2, data_dim=2)
        m = rng.standard_normal((4, 2))
        v = np.full((4, 2), 1e-10)
        _, _, resp = infnet.gmm_log_z_parts(net.mixture, m, v)
        z = np.array([0, 1, 0, 1])
        eps = rng.standard_normal((4, 2))
        x = infnet.gmm_reconstruct(net.mixture, m, v, z, eps)
        np.testing.assert_allclose(x, m, atol=1e-4)

    def test_flat_structured_factor_recovers_dnn_mean(self):
        rng = np.random.default_rng(7)
        net = make_gmm_net(rng, k=2, d=2, data_dim=2)
        net.mixture = dataclasses.replace(
            net.mixture, chol_raw=np.tile(linalg.raw_from_spd(1e8 * np.eye(2)), (2, 1))
        )
        m = rng.standard_normal((3, 2))
        v = np.full((3, 2), 0.5)
        z = np.zeros(3, dtype=int)
        mu_cond = infnet.gmm_reconstruct(net.mixture, m, v, z, np.zeros((3, 2)))
        np.testing.assert_allclose(mu_cond, m, atol=1e-6)

    def test_conditional_moments_against_formula(self):
        """1e5 fixed-z draws reproduce the conditional mean and covariance."""
        rng = np.random.default_rng(8)
        net = make_gmm_net(rng, k=2, d=2, data_dim=2)
        m = np.array([[0.4, -0.2]])
        v = np.array([[0.6, 1.1]])
        z = np.array([1])
        n = 100_000
        eps = rng.standard_normal((n, 2))
        x = infnet.gmm_reconstruct(
            net.mixture, np.repeat(m, n, 0), np.repeat(v, n, 0), np.ones(n, dtype=int), eps
        )
        prec = np.diag(1.0 / v[0]) + np.linalg.inv(net.mixture.covs[1])
        cov = np.linalg.inv(prec)
        mean = cov @ (m[0] / v[0] + np.linalg.inv(net.mixture.covs[1]) @ net.mixture.means[1])
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(x.mean(0) - mean) < 3 * se_mean)
        emp_cov = np.cov(x.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
        )
        assert np.all(np.abs(emp_cov - cov) < 3 * se_cov)

    def test_indicator_histogram_matches_responsibilities(self):
        """Chi-square on z* counts vs responsibilities, p > 0.01."""
        rng = np.random.default_rng(9)
        net = make_gmm_net(rng, k=3, d=1, data_dim=2)
        y = np.array([[0.3, -0.5]])
        n = 100_000
        sample = net.draw(net.prepare(np.repeat(y, n, 0)), np.random.default_rng(10))
        _, resp = infnet.gmm_log_z(net, y)
        counts = np.bincount(sample.z_star, minlength=3)
        result = stats.chisquare(counts, f_exp=n * resp[0])
        assert result.pvalue > 0.01

    def test_sample_reconstructs_from_noise(self):
        rng = np.random.default_rng(11)
        net = make_gmm_net(rng, k=2, d=2, data_dim=3)
        y = rng.standard_normal((6, 3))
        sample = net.draw(net.prepare(y), np.random.default_rng(12))
        m, v = infnet.encode(net, y)
        x = infnet.gmm_reconstruct(net.mixture, m, v, sample.z_star, sample.eps)
        np.testing.assert_array_equal(x, sample.x_star)
        want = infnet.gmm_draw_factors(net.mixture, m, v, sample.z_star)
        for got, factor in zip(sample.factors, want, strict=True):
            np.testing.assert_array_equal(got, factor)


class TestGmmGradients:
    def test_log_z_grads_match_fd(self):
        """20 random instances, every parameter coordinate, 1e-4 relative."""
        rng = np.random.default_rng(13)
        for trial in range(20):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            net = make_gmm_net(rng, k=k, d=d, data_dim=2, hidden=(3,))
            y = rng.standard_normal((3, 2))
            grad = infnet.grad_log_z(net, y)
            phi = net.phi_vector()
            h = 1e-5
            for i in range(phi.size):
                up, dn = phi.copy(), phi.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    infnet.gmm_log_z(net.with_phi_vector(up), y)[0]
                    - infnet.gmm_log_z(net.with_phi_vector(dn), y)[0]
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                    f"trial {trial} coord {i}"
                )

    def test_symmetric_instance_symmetric_weight_grads(self):
        rng = np.random.default_rng(14)
        net = make_gmm_net(rng, k=2, d=1, data_dim=2)
        net.mixture = dataclasses.replace(
            net.mixture,
            logits=np.zeros(2), means=np.array([[0.9], [-0.9]]), chol_raw=np.zeros((2, 1)),
        )
        # encoder replaced by a zero map: m = 0, v fixed
        net.encoder = nnet.set_param_vector(
            net.encoder, np.zeros(nnet.num_params(net.encoder))
        )
        y = np.zeros((4, 2))
        grad = infnet.grad_log_z(net, y)
        n_enc = nnet.num_params(net.encoder)
        logit_grads = grad[n_enc : n_enc + 2]
        assert logit_grads[0] == pytest.approx(logit_grads[1], abs=1e-12)

    def test_pathwise_vjp_matches_fd(self):
        """Probe c.x(phi) with fixed (z, eps); FD over every coordinate."""
        rng = np.random.default_rng(15)
        for trial in range(10):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            net = make_gmm_net(rng, k=k, d=d, data_dim=2, hidden=(3,))
            y = rng.standard_normal((3, 2))
            z = rng.integers(0, k, size=3)
            eps = rng.standard_normal((3, d))
            c = rng.standard_normal((3, d))

            def probe(n):
                m, v = infnet.encode(n, y)
                return float(np.sum(c * infnet.gmm_reconstruct(n.mixture, m, v, z, eps)))

            grad = pathwise_grad(net, y, z, eps, c)
            phi = net.phi_vector()
            h = 1e-5
            for i in range(phi.size):
                up, dn = phi.copy(), phi.copy()
                up[i] += h
                dn[i] -= h
                fd = (probe(net.with_phi_vector(up)) - probe(net.with_phi_vector(dn))) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                    f"trial {trial} coord {i}"
                )


class TestLdsLogZ:
    def test_single_step_closed_form(self):
        rng = np.random.default_rng(16)
        net = make_lds_net(rng, d=2, data_dim=3)
        y = rng.standard_normal((1, 3))
        m, v = infnet.encode(net, y)
        log_z, _ = infnet.lds_log_z(net, y)
        dyn = net.dynamics
        pred_mean = dyn.trans @ dyn.init_mean
        pred_cov = dyn.trans @ dyn.init_cov @ dyn.trans.T + dyn.noise_cov
        expect = stats.multivariate_normal.logpdf(
            m[0], pred_mean, pred_cov + np.diag(v[0])
        )
        assert log_z == pytest.approx(expect, rel=1e-10)

    def test_dense_oracle_all_small_shapes(self):
        """T in 1..6, d in 1..2 vs the dense joint-Gaussian oracle, 1e-8."""
        rng = np.random.default_rng(17)
        for d in (1, 2):
            for t_len in range(1, 7):
                net = make_lds_net(rng, d=d, data_dim=2)
                y = rng.standard_normal((t_len, 2))
                m, v = infnet.encode(net, y)
                log_z, _ = infnet.lds_log_z(net, y)
                expect, _, _ = dense_sequence_oracle(net.dynamics, m, v)
                assert log_z == pytest.approx(expect, abs=1e-8), f"T={t_len} d={d}"

    def test_zero_transition_factorizes(self):
        rng = np.random.default_rng(18)
        net = make_lds_net(rng, d=1, data_dim=2)
        net.dynamics = dataclasses.replace(net.dynamics, trans=np.zeros((1, 1)))
        y = rng.standard_normal((5, 2))
        m, v = infnet.encode(net, y)
        log_z, _ = infnet.lds_log_z(net, y)
        q = net.dynamics.noise_cov[0, 0]
        expect = np.sum(stats.norm.logpdf(m[:, 0], 0.0, np.sqrt(q + v[:, 0])))
        assert log_z == pytest.approx(expect, rel=1e-10)

    def test_nonfinite_noise_rejected(self):
        rng = np.random.default_rng(19)
        net = make_lds_net(rng, d=1, data_dim=2)
        net.dynamics = dataclasses.replace(net.dynamics, noise_raw=np.array([800.0]))
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError):
            infnet.lds_log_z(net, rng.standard_normal((3, 2)))


class TestLdsSampling:
    def test_tight_dnn_factor_pins_sequence(self):
        rng = np.random.default_rng(20)
        net = make_lds_net(rng, d=1, data_dim=2)
        m = rng.standard_normal((5, 1))
        v = np.full((5, 1), 1e-10)
        record = infnet.lds_filter(net.dynamics, m, v)
        eps = rng.standard_normal((6, 1))
        x = infnet.lds_reconstruct(net.dynamics, record, eps)
        np.testing.assert_allclose(x[1:], m, atol=1e-4)

    def test_joint_moments_against_dense_oracle(self):
        """1e5 joint draws: mean and covariance of (x_0..x_T) within 3 SE."""
        rng = np.random.default_rng(21)
        net = make_lds_net(rng, d=1, data_dim=2)
        t_len = 5
        y = rng.standard_normal((t_len, 2))
        m, v = infnet.encode(net, y)
        record = infnet.lds_filter(net.dynamics, m, v)
        n = 100_000
        eps = rng.standard_normal((n, t_len + 1, 1))
        x = infnet.lds_reconstruct(net.dynamics, record, eps)[..., 0]  # (n, T+1)
        _, post_mean, post_cov = dense_sequence_oracle(net.dynamics, m, v)
        se_mean = np.sqrt(np.diag(post_cov) / n)
        assert np.all(np.abs(x.mean(0) - post_mean) < 3 * se_mean)
        emp = np.cov(x.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(post_cov), np.diag(post_cov)) + post_cov**2) / n
        )
        assert np.all(np.abs(emp - post_cov) < 3 * se_cov)

    def test_degenerate_dynamics_collapse(self):
        rng = np.random.default_rng(22)
        net = make_lds_net(rng, d=1, data_dim=2)
        net.dynamics = dataclasses.replace(
            net.dynamics, trans=np.eye(1), noise_raw=linalg.raw_from_spd(1e-12 * np.eye(1))
        )
        y = rng.standard_normal((4, 2))
        sample = net.draw(net.prepare(y), np.random.default_rng(23))
        assert np.max(np.abs(sample.x_star - sample.x_star[1])) < 1e-3

    def test_sample_reconstructs_from_noise(self):
        rng = np.random.default_rng(24)
        net = make_lds_net(rng, d=2, data_dim=3)
        y = rng.standard_normal((4, 3))
        sample = net.draw(net.prepare(y), np.random.default_rng(25))
        m, v = infnet.encode(net, y)
        record = infnet.lds_filter(net.dynamics, m, v)
        x = infnet.lds_reconstruct(net.dynamics, record, sample.eps)
        np.testing.assert_array_equal(x, sample.x_star)
        assert sample.z_star is None


    def test_draw_and_its_adjoint_share_smoother_factors(self, monkeypatch):
        """The draw factors its smoother once and holds the factors; its
        adjoint reads them and factors nothing."""
        rng = np.random.default_rng(28)
        net = make_lds_net(rng, d=2, data_dim=3)
        y = rng.standard_normal((5, 3))
        prep = net.prepare(y)
        steps, chol_last = lds_reference._smoother_factors(net.dynamics, prep.record)
        j, pred_inv, chols = (np.stack(f) for f in zip(*steps))
        want = (j, pred_inv, np.concatenate([chols, chol_last[None]]))
        calls = []
        chol = linalg.cholesky_spd
        monkeypatch.setattr(
            linalg, "cholesky_spd", lambda *a: calls.append(a[1]) or chol(*a)
        )
        net.log_z_vjp(prep)
        assert calls == []
        drawn = net.draw(prep, np.random.default_rng(29))
        for got, factor in zip(drawn.factors, want, strict=True):
            np.testing.assert_allclose(got, factor, rtol=1e-12, atol=1e-13)
        net.pathwise_vjp(prep, drawn, rng.standard_normal(drawn.x_star.shape))
        assert calls == ["smoother covariance"]


class TestLdsGradients:
    def test_log_z_grads_match_fd(self):
        """20 random instances over T and d, every coordinate, 1e-4 relative."""
        rng = np.random.default_rng(26)
        for trial in range(20):
            d = int(rng.integers(1, 3))
            t_len = int(rng.integers(1, 6))
            net = make_lds_net(rng, d=d, data_dim=2, hidden=(3,))
            y = rng.standard_normal((t_len, 2))
            grad = infnet.grad_log_z(net, y)
            phi = net.phi_vector()
            h = 1e-5
            for i in range(phi.size):
                up, dn = phi.copy(), phi.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    infnet.lds_log_z(net.with_phi_vector(up), y)[0]
                    - infnet.lds_log_z(net.with_phi_vector(dn), y)[0]
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                    f"trial {trial} coord {i}"
                )

    def test_pathwise_vjp_matches_fd(self):
        rng = np.random.default_rng(27)
        for trial in range(10):
            d = int(rng.integers(1, 3))
            t_len = int(rng.integers(2, 5))
            net = make_lds_net(rng, d=d, data_dim=2, hidden=(3,))
            y = rng.standard_normal((t_len, 2))
            eps = rng.standard_normal((t_len + 1, d))
            c = rng.standard_normal((t_len + 1, d))

            def probe(n):
                m, v = infnet.encode(n, y)
                record = infnet.lds_filter(n.dynamics, m, v)
                return float(np.sum(c * infnet.lds_reconstruct(n.dynamics, record, eps)))

            grad = pathwise_grad(net, y, None, eps, c)
            phi = net.phi_vector()
            h = 1e-5
            for i in range(phi.size):
                up, dn = phi.copy(), phi.copy()
                up[i] += h
                dn[i] -= h
                fd = (probe(net.with_phi_vector(up)) - probe(net.with_phi_vector(dn))) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                    f"trial {trial} coord {i}"
                )


class TestLdsBlock:
    """A (B, T, d) block runs the same filter and draws as B single sequences."""

    def test_block_record_and_draws_match_single_sequences(self):
        rng = np.random.default_rng(40)
        net = make_lds_net(rng, d=2, data_dim=3)
        ys = rng.standard_normal((4, 6, 3))
        block = net.prepare(ys)
        eps = rng.standard_normal((4, 7, 2))
        x_block = net.replay(block, None, eps).x_star
        fields = ("m", "v", "mu_pred", "p_pred", "chol_s", "s_inv", "resid", "gain",
                  "mu_filt", "p_filt")
        for b, y in enumerate(ys):
            single = net.prepare(y)
            for name in fields:
                np.testing.assert_allclose(
                    getattr(block.record, name)[b], getattr(single.record, name),
                    rtol=1e-12, atol=1e-14, err_msg=name,
                )
            assert block.record.log_z[b] == pytest.approx(single.log_z, rel=1e-12)
            x = infnet.lds_reconstruct(net.dynamics, single.record, eps[b])
            np.testing.assert_allclose(x_block[b], x, rtol=1e-12, atol=1e-14)
        assert block.log_z == pytest.approx(np.sum(block.record.log_z), rel=1e-12)

    def test_block_draw_consumes_the_single_sequence_stream(self):
        rng = np.random.default_rng(41)
        net = make_lds_net(rng, d=2, data_dim=3)
        ys = rng.standard_normal((3, 4, 3))
        drawn = net.draw(net.prepare(ys), np.random.default_rng(5))
        single_rng = np.random.default_rng(5)
        for b, y in enumerate(ys):
            one = net.draw(net.prepare(y), single_rng)
            np.testing.assert_array_equal(drawn.eps[b], one.eps)
            np.testing.assert_allclose(drawn.x_star[b], one.x_star, rtol=1e-12, atol=1e-14)

    def test_dense_oracle_per_sequence_of_a_block(self):
        """Criterion 02's oracle, T in 1..6 and d in 1..2, on 3-sequence
        blocks: log Z, posterior mean and covariance per sequence at 1e-8.
        The covariance comes from the reconstruction map's columns."""
        rng = np.random.default_rng(42)
        for d in (1, 2):
            for t_len in range(1, 7):
                net = make_lds_net(rng, d=d, data_dim=2)
                ys = rng.standard_normal((3, t_len, 2))
                m, v = infnet.encode(net, ys)
                record = infnet.lds_filter(net.dynamics, m, v)
                dim = (t_len + 1) * d
                draw = lambda e: infnet.lds_reconstruct(
                    net.dynamics, record, np.broadcast_to(e.reshape(t_len + 1, d), (3, t_len + 1, d))
                ).reshape(3, dim)
                means = draw(np.zeros(dim))
                amap = np.stack([draw(e) - means for e in np.eye(dim)], axis=-1)
                for b in range(3):
                    log_z, post_mean, post_cov = dense_sequence_oracle(net.dynamics, m[b], v[b])
                    where = f"T={t_len} d={d} b={b}"
                    assert record.log_z[b] == pytest.approx(log_z, abs=1e-8), where
                    np.testing.assert_allclose(means[b], post_mean, rtol=0, atol=1e-8, err_msg=where)
                    np.testing.assert_allclose(
                        amap[b] @ amap[b].T, post_cov, rtol=0, atol=1e-8, err_msg=where
                    )

    RECORD_FIELDS = ("m", "v", "mu_pred", "p_pred", "chol_s", "s_inv", "resid", "gain",
                     "mu_filt", "p_filt", "log_z")

    def test_stacked_blocks_equal_separate_prepares(self, monkeypatch):
        """Blocks of 1, 3 and 8 sequences through one filter: each block's
        record slice, log Z, (m, v) and encoder tape are those of its own
        ``prepare``, bit for bit."""
        rng = np.random.default_rng(44)
        net = make_lds_net(rng, d=2, data_dim=3, hidden=(5,))
        blocks = [rng.standard_normal((n, 6, 3)) for n in (1, 3, 8)]
        calls = []
        lds_filter = infnet.lds_filter
        monkeypatch.setattr(infnet, "lds_filter", lambda *a: calls.append(1) or lds_filter(*a))
        stacked = net.prepare_blocks(blocks)
        assert len(calls) == 1
        monkeypatch.undo()
        for y, got in zip(blocks, stacked):
            want = net.prepare(y)
            for name in self.RECORD_FIELDS:
                np.testing.assert_array_equal(
                    getattr(got.record, name), getattr(want.record, name), err_msg=name
                )
            assert got.log_z == want.log_z
            np.testing.assert_array_equal(got.m, want.m)
            np.testing.assert_array_equal(got.v, want.v)
            # the encoder's backward pass reads the block as rows
            d_m, d_v = rng.standard_normal((2, y.shape[0] * y.shape[1], 2))
            d_factor = rng.standard_normal(net.dynamics.param_vector().size)
            np.testing.assert_array_equal(
                net.phi_grad(got, d_m, d_v, d_factor), net.phi_grad(want, d_m, d_v, d_factor)
            )

    def test_one_stacked_block_is_prepare(self):
        rng = np.random.default_rng(45)
        net = make_lds_net(rng, d=2, data_dim=3)
        y = rng.standard_normal((4, 5, 3))
        (got,), want = net.prepare_blocks([y]), net.prepare(y)
        for name in self.RECORD_FIELDS:
            np.testing.assert_array_equal(
                getattr(got.record, name), getattr(want.record, name), err_msg=name
            )
        assert got.log_z == want.log_z
        eps = rng.standard_normal((4, 6, 2))
        np.testing.assert_array_equal(
            net.replay(got, None, eps).x_star, net.replay(want, None, eps).x_star
        )

    def test_stacked_blocks_share_one_length(self):
        rng = np.random.default_rng(46)
        net = make_lds_net(rng, d=2, data_dim=3)
        for bad in ([rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 4, 3))],
                    [rng.standard_normal((5, 3))]):
            with pytest.raises(ContractError, match="one T"):
                net.prepare_blocks(bad)

    def test_filter_keeps_the_innovation_inverse(self):
        rng = np.random.default_rng(43)
        net = make_lds_net(rng, d=2, data_dim=3)
        record = net.prepare(rng.standard_normal((5, 3))).record
        s = record.chol_s @ np.swapaxes(record.chol_s, -1, -2)
        np.testing.assert_allclose(record.s_inv @ s, np.broadcast_to(np.eye(2), s.shape),
                                   atol=1e-12)

@pytest.mark.parametrize("kind", ["gmm", "lds"])
def test_stacked_draw_consumes_the_successive_draws_stream(kind):
    """``draw(prep, rng, S)`` leads with a sample axis and holds the draws
    that S successive ``draw(prep, rng)`` calls on one generator make."""
    rng = np.random.default_rng(50)
    make = make_gmm_net if kind == "gmm" else make_lds_net
    net = make(rng, d=2, data_dim=3)
    prep = net.prepare(rng.standard_normal((6, 3)))
    stacked = net.draw(prep, np.random.default_rng(6), 3)
    single_rng = np.random.default_rng(6)
    for s in range(3):
        one = net.draw(prep, single_rng)
        np.testing.assert_array_equal(stacked.eps[s], one.eps)
        if kind == "gmm":
            np.testing.assert_array_equal(stacked.z_star[s], one.z_star)
        np.testing.assert_allclose(stacked.x_star[s], one.x_star, rtol=1e-12, atol=1e-14)


class TestMixtureFactors:
    def test_scores_with_given_factor_match_scores_alone(self):
        rng = np.random.default_rng(45)
        net = make_gmm_net(rng, k=3, d=2, data_dim=3)
        m, v = infnet.encode(net, rng.standard_normal((6, 3)))
        chol = infnet._combined_chol(net.mixture, v)
        np.testing.assert_array_equal(
            infnet.gmm_scores(net.mixture, m, v, chol), infnet.gmm_scores(net.mixture, m, v)
        )

    def test_log_z_grads_reuse_the_score_pass_factor(self, monkeypatch):
        rng = np.random.default_rng(46)
        net = make_gmm_net(rng, k=3, d=2, data_dim=3)
        prep = net.prepare(rng.standard_normal((6, 3)))
        calls = []
        chol = linalg.cholesky_spd
        monkeypatch.setattr(
            linalg, "cholesky_spd", lambda *a: calls.append(a[1]) or chol(*a)
        )
        net.log_z_vjp(prep)
        assert calls == []


class TestLdsStackedParity:
    """The time-stacked dynamics factor against the per-step loops kept in
    ``lds_reference``, at rtol 1e-12."""

    CASES = [(t_len, d) for t_len in (1, 2, 20) for d in (1, 3, 4)]
    FIELDS = ("mu_pred", "p_pred", "chol_s", "s_inv", "resid", "gain", "mu_filt", "p_filt")

    @staticmethod
    def case(seed, t_len, d, lead=()):
        rng = np.random.default_rng(seed)
        dyn = make_lds_net(rng, d=d, data_dim=2).dynamics
        m = rng.standard_normal(lead + (t_len, d))
        v = np.exp(0.5 * rng.standard_normal(lead + (t_len, d)))
        return rng, dyn, m, v

    @staticmethod
    def close(got, want, what):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13, err_msg=what)

    @staticmethod
    def draw(dyn, record, eps):
        """The draw from ``record`` at noise ``eps``, holding its factors."""
        factors = infnet._smoother_factors(dyn, record)
        x = infnet.lds_reconstruct(dyn, record, eps, factors)
        return infnet.PosteriorSample(x_star=x, z_star=None, eps=eps, factors=factors)

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("t_len,d", CASES)
    def test_filter_and_draw_match_the_step_loops(self, t_len, d, lead):
        rng, dyn, m, v = self.case(50 + t_len + d, t_len, d, lead)
        got = infnet.lds_filter(dyn, m, v)
        want = lds_reference.lds_filter(dyn, m, v)
        for name in self.FIELDS:
            self.close(getattr(got, name), getattr(want, name), name)
        self.close(got.log_z, want.log_z, "log_z")
        assert np.shape(got.log_z) == np.shape(want.log_z)
        eps = rng.standard_normal(lead + (t_len + 1, d))
        self.close(
            infnet.lds_reconstruct(dyn, got, eps),
            lds_reference.lds_reconstruct(dyn, want, eps),
            "draw",
        )

    @pytest.mark.parametrize("t_len,d", CASES)
    def test_adjoints_match_the_step_loops(self, t_len, d):
        rng, dyn, m, v = self.case(60 + t_len + d, t_len, d)
        got = infnet.lds_filter(dyn, m, v)
        want = lds_reference.lds_filter(dyn, m, v)
        eps = rng.standard_normal((t_len + 1, d))
        drawn = self.draw(dyn, got, eps)
        grad_x = rng.standard_normal(drawn.x_star.shape)
        pairs = [
            (infnet.lds_log_z_factor_grads(dyn, got),
             lds_reference.lds_log_z_factor_grads(dyn, want)),
            (infnet.lds_pathwise_factor_vjp(dyn, got, drawn, grad_x),
             lds_reference.lds_pathwise_factor_vjp(dyn, want, drawn.x_star, eps, grad_x)),
        ]
        for which, (g, w) in zip(("log_z", "pathwise"), pairs):
            for name, a, b in zip(("d_m", "d_v", "d_dyn"), g, w):
                self.close(a, b, f"{which} {name}")

    @pytest.mark.parametrize("t_len,d", CASES)
    def test_one_sweep_is_the_sum_of_the_two(self, t_len, d):
        rng, dyn, m, v = self.case(70 + t_len + d, t_len, d)
        record = infnet.lds_filter(dyn, m, v)
        eps = rng.standard_normal((t_len + 1, d))
        drawn = self.draw(dyn, record, eps)
        grad_x = rng.standard_normal(drawn.x_star.shape)
        weight = 2.5
        fused = infnet.lds_pathwise_factor_vjp(dyn, record, drawn, grad_x, weight)
        pathwise = infnet.lds_pathwise_factor_vjp(dyn, record, drawn, grad_x)
        log_z = infnet.lds_log_z_factor_grads(dyn, record)
        for name, f, p, g in zip(("d_m", "d_v", "d_dyn"), fused, pathwise, log_z):
            self.close(f, p + weight * g, name)


class TestChainCore:
    """The Kalman passes' failure paths through both of their callers, and
    ``backward_chain`` run forward on time-reversed views."""

    # S = [[1, 1], [1, 1]] + diag(r) at every step: zero dynamics and a
    # rank-one process noise, so each innovation is the noise plus diag(r)
    FAULTS = {
        "nan": ([np.nan, 0.0], InvalidParameterError),
        "indefinite": ([-3.0, 0.0], InvalidParameterError),
        "singular": ([0.0, 0.0], None),
    }

    @staticmethod
    def run_filter(caller, r, t_len=4):
        rng = np.random.default_rng(31)
        rank_one = np.array([[1.0, 1.0], [1.0, 1.0]])
        if caller == "em":
            params = baselines.LdsEmParams(
                trans=np.zeros((2, 2)), trans_cov=rank_one, emit=np.eye(2),
                emit_cov=np.diag(r), init_mean=np.zeros(2), init_cov=rank_one,
            )
            return baselines.lds_em_filter(params, rng.standard_normal((3, t_len, 2)))
        dyn = models.LinearDynamics(
            trans=np.zeros((2, 2)), noise_raw=np.array([0.0, 1.0, -np.inf]),
            init_mean=np.zeros(2), init_raw=np.zeros(3),
        )
        lead = (3,) if caller == "block" else ()
        v = np.broadcast_to(np.asarray(r), lead + (t_len, 2))
        record = infnet.lds_filter(dyn, rng.standard_normal(lead + (t_len, 2)), v)
        return [getattr(record, name) for name in (*TestLdsStackedParity.FIELDS, "log_z")]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("caller", ["sequence", "block", "em"])
    def test_innovation_faults(self, caller, fault):
        r, error = self.FAULTS[fault]
        if error is not None:
            with pytest.raises(error):
                self.run_filter(caller, r)
            return
        for out in self.run_filter(caller, r):
            assert np.all(np.isfinite(out))

    @staticmethod
    def chain_loop(x, j, right=None, forward=False):
        """The chain as an explicit loop on a copy of ``x``: row t from row
        t + 1 backward, or (``forward``) row t + 1 from row t."""
        rows = x.copy() if right is not None else x[..., None].copy()
        steps = range(rows.shape[-3] - 1)
        for t in steps if forward else reversed(steps):
            src, dst = (t, t + 1) if forward else (t + 1, t)
            step = j[..., t, :, :] @ rows[..., src, :, :]
            rows[..., dst, :, :] += step if right is None else step @ right[..., t, :, :]
        return rows if right is not None else rows[..., 0]

    # k = 3 rows; m = 4 columns makes a non-square two-sided state
    @pytest.mark.parametrize(
        "lead,m", [((), None), ((3,), None), ((), 4), ((3,), 4)],
        ids=["lead0", "lead1", "lead0-m4", "lead1-m4"],
    )
    @pytest.mark.parametrize("t_len", [1, 2, 9])
    def test_reversed_backward_chain_is_a_forward_loop(self, t_len, lead, m):
        rng = np.random.default_rng(32 + t_len)
        cols = () if m is None else (m,)
        x = rng.standard_normal(lead + (t_len, 3) + cols)
        j = rng.standard_normal(lead + (t_len - 1, 3, 3))
        gains = (j,) if m is None else (j, 0.5 * rng.standard_normal(lead + (t_len - 1, m, m)))
        want = self.chain_loop(x, *gains, forward=True)
        got = x.copy()
        view = np.flip(got, axis=-2 - len(cols))
        assert infnet.backward_chain(view, *(np.flip(g, axis=-3) for g in gains)) is view
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    # R = 6 rows of k = 3: leads (3,) and (6,) have a size equal to k and to R
    R_ROWS, K_COLS = 6, 3
    # each layout maps x's shape to (base shape, selector): x = base[selector]
    LAYOUTS = {
        "contiguous": lambda shape: (shape, ...),
        "reversed": lambda shape: (shape, ...),
        "strided": lambda shape: (shape[:1] + (2 * shape[1],) + shape[2:], np.s_[:, ::2]),
        "uneven": lambda shape: (shape[:1] + (shape[1] + 1,) + shape[2:], np.s_[:, :-1]),
    }

    @pytest.mark.parametrize(
        "layout,m",
        [(name, m) for name in sorted(LAYOUTS) for m in (None, 4)],
        ids=[name + suffix for name in sorted(LAYOUTS) for suffix in ("", "-m4")],
    )
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4), (3,), (6,)])
    def test_shared_gains_fold_every_leading_axis(self, lead, layout, m):
        """Gains without leading axes against x with any leading axes, in
        place: "strided" and "uneven" views are not contiguous, and for lead
        (3, 4) the "uneven" one cannot fold into one axis without a copy.
        With m, x holds (k, m) matrix rows and the chain is two-sided."""
        rng = np.random.default_rng(33 + len(lead) + sum(lead))
        r, k = self.R_ROWS, self.K_COLS
        cols = () if m is None else (m,)
        base_shape, sel = self.LAYOUTS[layout](lead + (r, k) + cols)
        base = rng.standard_normal(base_shape)
        before = base.copy()
        x = base[sel]
        j = 0.5 * rng.standard_normal((r - 1, k, k))
        gains = (j,) if m is None else (j, 0.5 * rng.standard_normal((r - 1, m, m)))
        if layout == "reversed":
            want = self.chain_loop(x, *gains, forward=True)
            view = np.flip(x, axis=-2 - len(cols))
            assert infnet.backward_chain(view, *(g[::-1] for g in gains)) is view
        else:
            want = self.chain_loop(x, *gains)
            assert infnet.backward_chain(x, *gains) is x
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=0)
        outside = np.ones(base.shape, dtype=bool)
        outside[sel] = False
        assert np.array_equal(base[outside], before[outside])

    DOUBLING_ROWS = [1, 2, 3, 4, 5, 8, 9, 16, 17, 21, 33]

    @pytest.mark.parametrize("k", [3, 16])
    @pytest.mark.parametrize("reverse", [False, True], ids=["backward", "reversed"])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("r", DOUBLING_ROWS)
    def test_doubling_matches_the_step_loop(self, r, lead, reverse, k):
        """The shared-gain path against the explicit loop; "reversed" runs a
        forward chain on time-reversed views of x and the gains.  k = 3
        doubles, k = 16 runs the loop.  Entries are O(1); the atol covers
        the few that cancel to near 0 in a different summation order."""
        assert infnet.doubling_pays(3, 6) and not infnet.doubling_pays(16, 1)
        rng = np.random.default_rng(36 + r + len(lead) + k)
        x = rng.standard_normal(lead + (r, k))
        j = (0.5 if k == 3 else 0.2) * rng.standard_normal((r - 1, k, k))
        want = self.chain_loop(x, j, forward=reverse)
        got = x.copy()
        view = got[..., ::-1, :] if reverse else got
        assert infnet.backward_chain(view, j[::-1] if reverse else j) is view
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("r", DOUBLING_ROWS)
    def test_chain_operator_matches_backward_chain(self, r, lead, forward, k):
        """x.reshape(-1, R k) @ M is ``backward_chain(x, j)``, or with
        ``forward`` its run on time-reversed views of x and j, on one
        sequence and on a block; the atol is the doubling test's."""
        rng = np.random.default_rng(39 + r + len(lead) + k)
        x = rng.standard_normal(lead + (r, k))
        j = 0.5 * rng.standard_normal((r - 1, k, k))
        want = x.copy()
        if forward:
            infnet.backward_chain(want[..., ::-1, :], j[::-1])
        else:
            infnet.backward_chain(want, j)
        m = infnet.chain_operator(j, forward)
        assert m.shape == (r * k, r * k)
        got = (x.reshape(-1, r * k) @ m).reshape(x.shape)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    TWO_SIDED_ROWS = [1, 2, 3, 4, 5, 8, 9, 21]

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (4, 5)])
    @pytest.mark.parametrize("r", TWO_SIDED_ROWS)
    def test_two_sided_doubling_matches_the_step_loop(self, r, k, m):
        """One (R, k, m) stack with shared left and right gains, the filter
        reverse sweep's (k, m) = (d, d + 1) and LDS-EM's (d, d) shapes,
        doubles and gives the loop's chain."""
        assert infnet.doubling_pays(k, m, two_sided=True)
        rng = np.random.default_rng(37 + r + k + m)
        x = rng.standard_normal((r, k, m))
        j = 0.5 * rng.standard_normal((r - 1, k, k))
        right = 0.5 * rng.standard_normal((r - 1, m, m))
        want = self.chain_loop(x, j, right)
        got = x.copy()
        assert infnet.backward_chain(got, j, right) is got
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    class RowReads(np.ndarray):
        """Gains, and views of them, that record every single-row read in
        the class's ``reads``: the step loop reads J_t one row at a time,
        the doubling levels only slices."""

        reads = []

        def __getitem__(self, key):
            if isinstance(key, (int, np.integer)):
                type(self).reads.append(int(key))
            return super().__getitem__(key)

    # (k, m, two-sided?, doubles?) on each side of DOUBLING_MAX_OPERANDS: a
    # vector chain's step holds k k + k m numbers, 256 and 264, a two-sided
    # one's also m m, 244 and 273; (16, 17) is d = 16's reverse sweep
    BOUND_CHAINS = [
        (8, 24, False, True), (8, 25, False, False),
        (8, 10, True, True), (8, 11, True, False), (16, 17, True, False),
    ]

    @pytest.mark.parametrize(
        "k, m, two_sided, doubles", BOUND_CHAINS,
        ids=[f"{'two-sided' if t else 'vector'}-{k}x{m}" for k, m, t, _ in BOUND_CHAINS],
    )
    def test_operand_bound_splits_doubling_from_the_loop(self, k, m, two_sided, doubles):
        """Past the operand bound the levels' products cost more than the
        loop saves, so the chain steps through every row; within it the
        levels read no single row.  A vector chain's m columns are the
        folded leading axis of (m, R, k) rows."""
        assert infnet.doubling_pays(k, m, two_sided) == doubles
        rng = np.random.default_rng(38)
        r = 21
        x = rng.standard_normal((r, k, m) if two_sided else (m, r, k))
        j = 0.2 * rng.standard_normal((r - 1, k, k))
        gains = (j, 0.2 * rng.standard_normal((r - 1, m, m))) if two_sided else (j,)
        self.RowReads.reads = []
        got = x.copy()
        infnet.backward_chain(got, j.view(self.RowReads), *gains[1:])
        assert self.RowReads.reads == ([] if doubles else list(range(r - 2, -1, -1)))
        # the levels sum in another order: the doubling test's atol
        atol = 1e-13 if doubles else 0
        np.testing.assert_allclose(got, self.chain_loop(x, *gains), rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("lead", [(), (2,), (5, 3)])
    def test_mv_shared_and_per_sequence_stacks(self, lead):
        """T = 5, so lead (5, 3) would broadcast against T if not folded."""
        rng = np.random.default_rng(34 + len(lead))
        t_len, a, b = 5, 2, 4
        vec = rng.standard_normal(lead + (t_len, b))
        for mats in (
            rng.standard_normal((t_len, a, b)),
            rng.standard_normal(lead + (t_len, a, b)),
        ):
            np.testing.assert_allclose(
                infnet._mv(mats, vec), np.einsum("...tij,...tj->...ti", mats, vec),
                rtol=1e-12, atol=0,
            )

    @staticmethod
    def exact_mean_pass(rng, route, emission, n=4, t_len=6, d=2):
        """A ``kalman_means`` input on shared stacks whose products are all
        exact whatever kernel runs them, so a block and its single sequences
        reach the log Z reduction with the same bits: the drive, chain and
        gains are dyadic, the observations integers, and S_t^-1 is diagonal.
        Its entries, and so e_t * S_t^-1 e_t, and the log-determinants are
        rounded, so the reduction's order shows in the result."""
        obs_dim = 3 if emission == "dense" else d
        dyadic = lambda *shape: rng.integers(-2, 3, shape) / 4.0
        chain = dyadic(t_len - 1, d, d)
        cov = dict(
            drive=dyadic(t_len - 1, d, obs_dim), chain=chain, gain=dyadic(t_len, d, obs_dim),
            s_inv=np.eye(obs_dim) / (1.0 + rng.random((t_len, 1, obs_dim))),
            logdet_s=rng.standard_normal(t_len),
            chain_operator=infnet.chain_operator(chain, forward=True) if route == "operator" else None,
        )
        y = rng.integers(-3, 4, (n, t_len, obs_dim)).astype(float)
        return cov, dyadic(d), y, dyadic(obs_dim, d) if emission == "dense" else None

    @staticmethod
    def step_sum_log_z(cov, resid):
        """Each sequence's log Z as an explicit sum over its steps."""
        obs_dim = resid.shape[-1]
        return [
            sum(
                -0.5 * (obs_dim * models.LOG_2PI + cov["logdet_s"][t] + e @ cov["s_inv"][t] @ e)
                for t, e in enumerate(seq)
            )
            for seq in resid
        ]

    @pytest.mark.parametrize("emission", ["identity", "dense"])
    @pytest.mark.parametrize("route", ["chain", "operator"])
    def test_log_z_is_one_reduction_per_sequence(self, route, emission):
        """A block's log Z is its sequences' single-call values bit for bit,
        and the explicit per-step sum; so is that of a covariance pass."""
        rng = np.random.default_rng(37)
        cov, mu1, y, emit = self.exact_mean_pass(rng, route, emission)
        d = mu1.shape[0]
        block = infnet.kalman_means(cov, np.eye(d), mu1, y, emit)
        for b, seq in enumerate(y):
            one = infnet.kalman_means(cov, np.eye(d), mu1, seq, emit)
            for key in ("mu_pred", "resid", "mu_filt"):
                assert np.array_equal(block[key][b], one[key]), key
            assert block["log_z"][b] == one["log_z"]
        np.testing.assert_allclose(
            block["log_z"], self.step_sum_log_z(cov, block["resid"]), rtol=1e-13, atol=0
        )

        a = 0.6 * np.eye(d) + 0.2 * rng.standard_normal((d, d))
        obs_dim = y.shape[-1]
        noise = np.broadcast_to(0.5 * np.eye(obs_dim), (y.shape[1], obs_dim, obs_dim))
        cov = infnet.kalman_covariances(a, 0.3 * np.eye(d), np.eye(d), emit, noise)
        if route == "operator":
            cov["chain_operator"] = infnet.chain_operator(cov["chain"], forward=True)
        y = rng.standard_normal(y.shape)
        block = infnet.kalman_means(cov, a, mu1, y, emit)
        np.testing.assert_allclose(
            block["log_z"], self.step_sum_log_z(cov, block["resid"]), rtol=1e-13, atol=0
        )


class TestIdentityEmission:
    """``emit=None`` skips the identity's products and changes no bit: the
    covariance and mean passes, every ``lds_filter`` record field, and the
    posterior mean, which reads only the smoother gains."""

    @staticmethod
    def case(d, lead):
        return TestLdsStackedParity.case(80 + d + len(lead), 6, d, lead)

    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_kalman_passes(self, d, lead):
        rng, dyn, m, v = self.case(d, lead)
        a, q = dyn.trans, dyn.noise_cov
        p1 = a @ dyn.init_cov @ a.T + q
        obs_cov = v[..., None] * np.eye(d)
        mu1 = rng.standard_normal(d)
        got = infnet.kalman_covariances(a, q, p1, None, obs_cov)
        want = infnet.kalman_covariances(a, q, p1, np.eye(d), obs_cov)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        got = infnet.kalman_means(got, a, mu1, m, None)
        want = infnet.kalman_means(want, a, mu1, m, np.eye(d))
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_lds_filter_record(self, monkeypatch, d, lead):
        _, dyn, m, v = self.case(d, lead)
        got = infnet.lds_filter(dyn, m, v)
        for name, at in (("kalman_covariances", 3), ("kalman_means", 4)):
            core = getattr(infnet, name)

            def dense_identity(*args, _core=core, _at=at):
                assert args[_at] is None
                return _core(*args[:_at], np.eye(d), *args[_at + 1 :])

            monkeypatch.setattr(infnet, name, dense_identity)
        want = infnet.lds_filter(dyn, m, v)
        for field in dataclasses.fields(infnet.FilterRecord):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    @pytest.mark.parametrize("drawn_first", [False, True], ids=["no-smoother", "smoother"])
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_posterior_mean_is_the_zero_noise_draw(self, monkeypatch, lead, drawn_first):
        """Equal to the zero-noise replay, and it factors nothing, whether or
        not a draw has built its smoother factors from the same record first;
        a draw leaves every record field as it found it."""
        rng = np.random.default_rng(85)
        net = make_lds_net(rng, d=2, data_dim=3)
        prep = net.prepare(rng.standard_normal(lead + (6, 3)))
        fields = [f.name for f in dataclasses.fields(prep.record)]
        before = {name: np.copy(getattr(prep.record, name)) for name in fields}
        if drawn_first:
            net.draw(prep, np.random.default_rng(86))
        calls = []
        chol = linalg.cholesky_spd
        monkeypatch.setattr(linalg, "cholesky_spd", lambda *a: calls.append(a) or chol(*a))
        got = net.posterior_mean(prep)
        assert calls == []
        for name, value in before.items():
            assert np.array_equal(getattr(prep.record, name), value), name
        want = net.replay(prep, None, np.zeros(lead + (7, 2))).x_star
        assert np.array_equal(got, want)


class TestProductRoute:
    """``kalman_covariances`` runs a one-matrix-per-step pass (one sequence, or
    LDS-EM's noise shared as a broadcast (T, D, D) view) through
    ``ndarray.dot`` and a block through ``np.matmul``; both reach the same
    BLAS call for each 2-d product, so the routes agree bit for bit."""

    @staticmethod
    def em_case(seed, t_len, d, obs_dim):
        rng = np.random.default_rng(seed)
        a = 0.5 * rng.standard_normal((d, d))
        q, p1, r = (
            g @ g.T + np.eye(n)
            for g, n in ((rng.standard_normal((k, k)), k) for k in (d, d, obs_dim))
        )
        emit = rng.standard_normal((obs_dim, d))
        return a, q, p1, emit, np.broadcast_to(r, (t_len, obs_dim, obs_dim))

    @staticmethod
    def same(one, block):
        assert one.keys() == block.keys()
        for key in one:
            assert np.array_equal(one[key], block[key][0]), key

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_sequence_matches_a_one_member_block(self, d):
        _, dyn, _, v = TestLdsStackedParity.case(90 + d, 7, d)
        a, q = dyn.trans, dyn.noise_cov
        p1 = a @ dyn.init_cov @ a.T + q
        obs_cov = v[..., None] * np.eye(d)
        one = infnet.kalman_covariances(a, q, p1, None, obs_cov)
        self.same(one, infnet.kalman_covariances(a, q, p1, None, obs_cov[None]))

    @pytest.mark.parametrize("d,obs_dim", [(1, 1), (1, 4), (2, 5), (3, 2), (3, 3)])
    def test_broadcast_noise_matches_a_materialised_block(self, d, obs_dim):
        a, q, p1, emit, r = self.em_case(95 + d + obs_dim, 6, d, obs_dim)
        one = infnet.kalman_covariances(a, q, p1, emit, r)
        self.same(one, infnet.kalman_covariances(a, q, p1, emit, np.array(r)[None]))

    def test_one_matrix_passes_make_no_matmul_call(self, monkeypatch):
        """A one-sequence pass and an LDS-EM pass call ``np.matmul`` nowhere
        (so not in the loop); a block pass makes every product through it."""
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
        _, dyn, m, v = TestLdsStackedParity.case(97, 6, 2)
        infnet.lds_filter(dyn, m, v)
        a, q, p1, emit, r = self.em_case(98, 6, 2, 5)
        infnet.kalman_covariances(a, q, p1, emit, r)
        seqs = np.random.default_rng(99).standard_normal((3, 6, 5))
        baselines.lds_em_fit(seqs, 2, n_iter=2)
        assert calls == []
        infnet.lds_filter(dyn, m[None], v[None])
        # four products a step, less the prediction past the last step
        assert len(calls) == 4 * 6 - 2

    @pytest.mark.parametrize("block", [False, True])
    def test_an_overflowing_pass_warns_raises_and_obeys_errstate(self, block):
        """Both routes report floating-point overflow (``dot`` honours the
        error state as ``np.matmul`` does), and a non-finite innovation
        raises InvalidParameterError through the guarded Cholesky."""
        a, q, p1, emit, r = self.em_case(96, 12, 2, 3)
        a = 1e200 * np.array([[1.0, 0.3], [0.0, 1.0]])
        if block:
            r = np.array(r)[None]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(InvalidParameterError, match="non-finite"):
                infnet.kalman_covariances(a, q, p1, emit, r)
        assert any("overflow encountered" in str(w.message) for w in seen)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            infnet.kalman_covariances(a, q, p1, emit, r)


class TestDivergedDynamics:
    """A raw log-diagonal of +800 overflows a dynamics covariance and -800
    zeroes its factor's diagonal.  Overflow raises InvalidParameterError
    wherever the factors are read, a vanishing diagonal in the log prior,
    and no floating-point warning escapes.  The filter and the sampler accept a zero
    diagonal, a rank-deficient covariance."""

    CALLS = {
        "lds_filter": lambda dyn, x: infnet.lds_filter(dyn, x[1:], np.ones_like(x[1:])),
        "log_prior": lambda dyn, x: dyn.log_prior(x),
        "log_prior_with_grads": lambda dyn, x: dyn.log_prior_with_grads(x),
        "sample": lambda dyn, x: dyn.sample(np.random.default_rng(0), 3, 5),
    }

    @staticmethod
    def diverged(field, log_diag):
        rng = np.random.default_rng(87)
        dyn = make_lds_net(rng, d=2, data_dim=3).dynamics
        raw = getattr(dyn, field).copy()
        raw[[0, 2]] = log_diag  # the two diagonal slots
        return dataclasses.replace(dyn, **{field: raw}), rng.standard_normal((6, 2))

    @staticmethod
    def run(call, dyn, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return TestDivergedDynamics.CALLS[call](dyn, x)

    @pytest.mark.parametrize("field", ["noise_raw", "init_raw"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_overflow_raises(self, call, field):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            self.run(call, *self.diverged(field, 800.0))

    @pytest.mark.parametrize("log_diag", [-800.0, -400.0], ids=["zero", "tiny"])
    @pytest.mark.parametrize("field", ["noise_raw", "init_raw"])
    @pytest.mark.parametrize("call", ["log_prior", "log_prior_with_grads"])
    def test_vanishing_factor_raises_in_the_log_prior(self, call, field, log_diag):
        """-400 leaves a diagonal of about 1e-174, whose density overflows."""
        with pytest.raises(InvalidParameterError, match="log prior is not finite"):
            self.run(call, *self.diverged(field, log_diag))

    @pytest.mark.parametrize("field", ["noise_raw", "init_raw"])
    @pytest.mark.parametrize("call", ["lds_filter", "sample"])
    def test_filter_and_sampler_take_a_zero_diagonal(self, call, field):
        out = self.run(call, *self.diverged(field, -800.0))
        arrays = [out.mu_filt, out.p_filt, out.log_z] if call == "lds_filter" else [out[0]]
        assert all(np.all(np.isfinite(a)) for a in arrays)

    @pytest.mark.parametrize("scale", [1e200, 1e160])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_diverging_transition_raises(self, call, scale):
        """Unit covariances, but a transition that overflows the filter's
        predicted covariances, the sampler's draw and the log prior."""
        dyn, x = self.diverged("noise_raw", 0.0)
        dyn = dataclasses.replace(dyn, trans=scale * np.eye(2))
        with pytest.raises(InvalidParameterError, match="not finite|non-finite"):
            self.run(call, dyn, x)
