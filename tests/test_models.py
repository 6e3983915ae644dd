"""Generative pieces: mixture / heavy-tailed mixture / linear-dynamics priors,
decoder likelihood, expected log prior under the conjugate posterior, and
ancestral sampling.

Oracles: dense joint-Gaussian log density via scipy.stats, Monte Carlo over
posterior draws, central finite differences, and closed forms inlined here.
"""

import numpy as np
import pytest
from scipy import special, stats

from structvi import linalg, models, nnet, updates


def random_mixture(rng, k, d, spread=2.0):
    return models.GaussianMixture(
        logits=rng.standard_normal(k) * 0.3,
        means=rng.standard_normal((k, d)) * spread,
        chol_raw=rng.standard_normal((k, linalg.tril_size(d))) * 0.2,
    )


def random_lds(rng, d):
    return models.LinearDynamics(
        trans=0.8 * np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        noise_raw=rng.standard_normal(linalg.tril_size(d)) * 0.2,
        init_mean=rng.standard_normal(d),
        init_raw=rng.standard_normal(linalg.tril_size(d)) * 0.2,
    )


def identity_decoder(d, var):
    """Linear decoder with mean = x and a constant diagonal variance."""
    rng = np.random.default_rng(0)
    net = nnet.init_mlp([d, 2 * d], [], rng)
    w = np.zeros((2 * d, d))
    w[:d, :d] = np.eye(d)
    net.layers[0].weight = w
    raw = np.log(np.expm1(var - nnet.VAR_FLOOR))  # softplus inverse
    net.layers[0].bias = np.concatenate([np.zeros(d), np.full(d, raw)])
    return net


class TestLogPrior:
    def test_single_component_standard_normal(self):
        mix = models.GaussianMixture(
            logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
        )
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 2))
        expect = -0.5 * np.sum(x**2) - 7 * 2 / 2 * np.log(2 * np.pi)
        assert models.log_prior(mix, x) == pytest.approx(expect, rel=1e-12)

    def test_student_mixture_gaussian_limit(self):
        """dof = 1e6 puts the heavy-tailed mixture within 1e-3 of the Gaussian one."""
        rng = np.random.default_rng(2)
        mix = random_mixture(rng, 3, 2)
        tmix = models.StudentMixture(
            logits=mix.logits, means=mix.means, chol_raw=mix.chol_raw, dof=1e6
        )
        x = rng.standard_normal((10, 2))
        assert models.log_prior(tmix, x) == pytest.approx(
            models.log_prior(mix, x), abs=1e-3
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dof", [0.5, 2.5, 5.0, 40.0, 1e4, 1e6])
    def test_student_component_densities_match_gammaln_form(self, d, dof):
        """The normalizer differences two log-gammas near dof/2 log(dof/2),
        each exact to a few ulp, so besides rtol 1e-14 the check allows 4 ulp
        of their size: 4e-14 at dof 40, 5e-9 at dof 1e6."""
        rng = np.random.default_rng(d)
        mix = random_mixture(rng, 3, d)
        tmix = models.StudentMixture(
            logits=mix.logits, means=mix.means, chol_raw=mix.chol_raw, dof=dof
        )
        x = 3.0 * rng.standard_normal((8, d))
        chols = tmix.chols
        v = np.linalg.solve(chols, (x[:, None, :] - tmix.means)[..., None])[..., 0]
        delta = np.sum(v**2, axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
        want = (
            special.gammaln((dof + d) / 2.0)
            - special.gammaln(dof / 2.0)
            - 0.5 * d * np.log(dof * np.pi)
            - 0.5 * logdet
            - 0.5 * (dof + d) * np.log1p(delta / dof)
        )
        ulps = 4.0 * np.finfo(float).eps * abs(special.gammaln((dof + d) / 2.0))
        np.testing.assert_allclose(
            tmix.component_log_densities(x), want, rtol=1e-14, atol=ulps
        )

    def test_lds_matches_dense_joint_gaussian(self):
        """T=3 joint density vs a scipy multivariate normal built by recursion."""
        rng = np.random.default_rng(3)
        for d in (1, 2):
            lds = random_lds(rng, d)
            t_len = 3
            x = rng.standard_normal((t_len + 1, d))
            a, q = lds.trans, lds.noise_cov
            dim = (t_len + 1) * d
            mean = np.zeros(dim)
            cov = np.zeros((dim, dim))
            mean[:d] = lds.init_mean
            cov[:d, :d] = lds.init_cov
            for t in range(1, t_len + 1):
                mean[t * d : (t + 1) * d] = a @ mean[(t - 1) * d : t * d]
                for s in range(t):
                    prev = cov[s * d : (s + 1) * d, (t - 1) * d : t * d]
                    cov[s * d : (s + 1) * d, t * d : (t + 1) * d] = prev @ a.T
                    cov[t * d : (t + 1) * d, s * d : (s + 1) * d] = (prev @ a.T).T
                cov[t * d : (t + 1) * d, t * d : (t + 1) * d] = (
                    a @ cov[(t - 1) * d : t * d, (t - 1) * d : t * d] @ a.T + q
                )
            expect = stats.multivariate_normal.logpdf(x.ravel(), mean, cov)
            assert models.log_prior(lds, x) == pytest.approx(expect, abs=1e-8)

    def test_gradients_match_fd(self):
        """grad_x and parameter gradients for all three prior kinds, 1e-4 relative."""
        rng = np.random.default_rng(4)
        priors = [
            random_mixture(rng, 2, 2),
            models.StudentMixture(
                logits=rng.standard_normal(2),
                means=rng.standard_normal((2, 2)),
                chol_raw=rng.standard_normal((2, 3)) * 0.3,
                dof=5.0,
            ),
            random_lds(rng, 2),
        ]
        for prior in priors:
            n = 4 if not isinstance(prior, models.LinearDynamics) else 5
            x = rng.standard_normal((n, 2))
            val, grad_x, grad_p = models.log_prior_with_grads(prior, x)
            assert val == pytest.approx(models.log_prior(prior, x), rel=1e-12)
            h = 1e-5
            fd_x = np.zeros_like(x)
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    up, dn = x.copy(), x.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_x[i, j] = (
                        models.log_prior(prior, up) - models.log_prior(prior, dn)
                    ) / (2 * h)
            np.testing.assert_allclose(grad_x, fd_x, rtol=1e-4, atol=1e-7)

            vec = prior.param_vector()
            fd_p = np.zeros_like(vec)
            for i in range(vec.size):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                fd_p[i] = (
                    models.log_prior(prior.with_param_vector(up), x)
                    - models.log_prior(prior.with_param_vector(dn), x)
                ) / (2 * h)
            np.testing.assert_allclose(grad_p, fd_p, rtol=1e-4, atol=1e-6)

    def test_dynamics_block_gradients_sum_per_sequence(self):
        """On a (B, T+1, d) block the x gradient stacks each sequence's, and
        the value and parameter gradient are the sums of theirs."""
        rng = np.random.default_rng(8)
        for d in (1, 3):
            lds = random_lds(rng, d)
            x = rng.standard_normal((3, 6, d))
            val, grad_x, grad_p = models.log_prior_with_grads(lds, x)
            parts = [models.log_prior_with_grads(lds, seq) for seq in x]
            assert val == pytest.approx(sum(p[0] for p in parts), rel=1e-12)
            np.testing.assert_allclose(grad_x, np.stack([p[1] for p in parts]), rtol=1e-12)
            np.testing.assert_allclose(grad_p, np.sum([p[2] for p in parts], axis=0), rtol=1e-12)

    def test_dynamics_prior_reads_its_stored_factors(self, monkeypatch):
        """The covariances are stored as raw Cholesky factors: nothing to factor,
        and the gradients reuse the factors the value built."""
        lds = random_lds(np.random.default_rng(6), 2)
        x = np.random.default_rng(7).standard_normal((3, 5, 2))
        calls, builds = [], []
        chol = linalg.cholesky_spd
        tril = linalg.tril_from_raw
        monkeypatch.setattr(linalg, "cholesky_spd", lambda *a: calls.append(1) or chol(*a))
        monkeypatch.setattr(linalg, "tril_from_raw", lambda *a: builds.append(1) or tril(*a))
        models.log_prior_with_grads(lds, x[0])
        assert len(builds) == 1
        models.log_prior(lds, x)
        assert calls == []


class TestExpectedLogPrior:
    def test_concentrated_posterior_hits_point_value(self):
        """Huge kappa and dof collapse the posterior onto its mean parameters."""
        rng = np.random.default_rng(5)
        d, k = 2, 2
        q = updates.default_gmm_prior(k, d)
        comps = []
        means = [np.array([1.0, 0.0]), np.array([-1.0, 0.5])]
        from structvi import expfam

        big = 1e8
        for j in range(k):
            comps.append(
                expfam.to_natural_vector(
                    expfam.NormalWishartParam(
                        mean=means[j], kappa=big, scale=np.eye(d) / big, dof=big
                    )
                )
            )
        q = updates.PgmPosterior(
            weights=expfam.to_natural_vector(
                expfam.DirichletParam(alpha=np.array([3e8, 1e8]))
            ),
            components=comps[0].replace_values(np.stack([c.values for c in comps])),
        )
        x = rng.standard_normal((6, d))
        z = rng.integers(0, k, size=6)
        val, _ = models.expected_log_prior(q, x, z)

        w, mu, cov = updates.posterior_mean_params(q)
        point = models.GaussianMixture(
            logits=np.log(w), means=mu, chol_raw=np.stack([linalg.raw_from_spd(c) for c in cov])
        )
        expect = point.joint_log_density(x, z)
        assert val == pytest.approx(expect, abs=1e-3)

    def test_uniform_responsibilities_symmetric_contributions(self):
        rng = np.random.default_rng(6)
        d, k = 1, 3
        q = updates.default_gmm_prior(k, d)
        x = rng.standard_normal((5, d))
        resp = np.full((5, k), 1.0 / k)
        _, grad = models.expected_log_prior(q, x, resp)
        post = q.with_flat_values(grad)
        for j in range(1, k):
            np.testing.assert_allclose(
                post.components.values[j], post.components.values[0], rtol=1e-12
            )

    def test_monte_carlo_over_theta_draws(self):
        """Average of log joint over 1e5 posterior draws within 3 SE.

        d=1 lets the draws go through the Normal-Gamma reduction directly,
        independent of the package's own samplers.
        """
        rng = np.random.default_rng(7)
        d, k = 1, 2
        x = rng.standard_normal((3, d))
        z = np.array([0, 1, 0])
        prior = updates.default_gmm_prior(k, d)
        msg = updates.conjugate_gmm_message(
            prior, rng.standard_normal((20, d)), rng.integers(0, k, 20), 20
        )
        q = updates.natural_gradient_step(prior, msg, 1.0)
        val, _ = models.expected_log_prior(q, x, z)

        from structvi import expfam

        n_draws = 100_000
        alpha = expfam.to_standard(q.weights).alpha
        log_w = np.log(rng.dirichlet(alpha, size=n_draws))  # (n_draws, k)
        lam = np.empty((n_draws, k))
        mu = np.empty((n_draws, k))
        for j in range(k):
            p = expfam.to_standard(q.components.replace_values(q.components.values[j]))
            w1 = float(p.scale[0, 0])
            lam[:, j] = rng.gamma(p.dof / 2.0, 2.0 * w1, size=n_draws)
            mu[:, j] = p.mean[0] + rng.standard_normal(n_draws) / np.sqrt(
                p.kappa * lam[:, j]
            )
        total = np.zeros(n_draws)
        for xn, zn in zip(x[:, 0], z):
            total += (
                log_w[:, zn]
                + 0.5 * np.log(lam[:, zn])
                - 0.5 * np.log(2 * np.pi)
                - 0.5 * lam[:, zn] * (xn - mu[:, zn]) ** 2
            )
        se = total.std() / np.sqrt(n_draws)
        assert abs(total.mean() - val) < 3 * se

    def test_message_gradient_matches_conjugate_message(self):
        """The mean-coordinate gradient is the prior-free sufficient statistics."""
        rng = np.random.default_rng(8)
        d, k = 2, 3
        q = updates.default_gmm_prior(k, d)
        x = rng.standard_normal((6, d))
        resp = rng.dirichlet(np.ones(k), size=6)
        _, grad = models.expected_log_prior(q, x, resp)
        msg = updates.conjugate_gmm_message(q, x, resp, n_total=6)
        np.testing.assert_allclose(
            grad, msg.flat_values() - q.flat_values(), rtol=1e-10, atol=1e-12
        )


class TestDecodeLoglik:
    def test_zero_weight_decoder(self):
        """All-zero parameters give N(0, softplus(0) + floor) per coordinate."""
        net = nnet.init_mlp([2, 4], [], np.random.default_rng(9))
        net = nnet.set_param_vector(net, np.zeros(nnet.num_params(net)))
        y = np.zeros((3, 2))
        x = np.ones((3, 2))
        val, _, _ = models.decode_loglik(net, x, y)
        var = np.log(2.0) + nnet.VAR_FLOOR
        expect = 3 * 2 * (-0.5 * np.log(2 * np.pi * var))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_identity_decoder_closed_form(self):
        rng = np.random.default_rng(10)
        net = identity_decoder(2, var=0.25)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        val, _, _ = models.decode_loglik(net, x, y)
        expect = np.sum(stats.norm.logpdf(y, loc=x, scale=0.5))
        assert val == pytest.approx(expect, rel=1e-10)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(11)
        net = nnet.init_mlp([2, 5, 4], ["tanh"], rng)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        _, grad_params, grad_x = models.decode_loglik(net, x, y)
        h = 1e-6
        vec = nnet.param_vector(net)
        for i in rng.choice(vec.size, size=12, replace=False):
            up, dn = vec.copy(), vec.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                models.decode_loglik(nnet.set_param_vector(net, up), x, y)[0]
                - models.decode_loglik(nnet.set_param_vector(net, dn), x, y)[0]
            ) / (2 * h)
            assert grad_params[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        for i in range(3):
            for j in range(2):
                up, dn = x.copy(), x.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (
                    models.decode_loglik(net, up, y)[0]
                    - models.decode_loglik(net, dn, y)[0]
                ) / (2 * h)
                assert grad_x[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestGenerate:
    def test_standard_prior_identity_decoder_moments(self):
        """K=1 standard prior + identity decoder gives near-standard y moments."""
        mix = models.GaussianMixture(
            logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
        )
        model = models.GenerativeModel(decoder=identity_decoder(2, 0.05), prior=mix)
        draw = models.generate(model, np.random.default_rng(12), 40000)
        assert draw.y.shape == (40000, 2)
        np.testing.assert_allclose(draw.y.mean(0), 0.0, atol=0.03)
        np.testing.assert_allclose(draw.y.var(0), 1.05, atol=0.05)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(13)
        mix = random_mixture(rng, 3, 2)
        model = models.GenerativeModel(decoder=identity_decoder(2, 0.1), prior=mix)
        a = models.generate(model, np.random.default_rng(99), 50)
        b = models.generate(model, np.random.default_rng(99), 50)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_student_mixture_heavy_tails(self):
        """Excess kurtosis positive at dof=5 over 1e5 draws."""
        tmix = models.StudentMixture(
            logits=np.zeros(1), means=np.zeros((1, 1)), chol_raw=np.zeros((1, 1)), dof=5.0
        )
        model = models.GenerativeModel(decoder=identity_decoder(1, 1e-4), prior=tmix)
        draw = models.generate(model, np.random.default_rng(14), 100_000)
        assert stats.kurtosis(draw.x[:, 0]) > 1.0

    def test_lds_generate_shapes(self):
        rng = np.random.default_rng(15)
        lds = random_lds(rng, 2)
        model = models.GenerativeModel(decoder=identity_decoder(2, 0.1), prior=lds)
        draw = models.generate(model, rng, 3, seq_len=7)
        assert draw.y.shape == (3, 7, 2)
        assert draw.labels is None
