"""Natural-gradient posterior updates and the Euclidean/variational optimizers.

The conjugate-posterior oracle is an independent inline implementation of the
count/mean/scatter update formulas; optimizer traces are frozen by hand.
"""

import warnings

import numpy as np
import pytest

from structvi import data, expfam, harness, linalg, updates
from structvi.errors import ContractError, InvalidParameterError


def direct_gmm_posterior(prior, x, resp):
    """Textbook conjugate update, written independently of the package path."""
    k = resp.shape[1]
    out = []
    for j in range(k):
        r = resp[:, j]
        n_j = r.sum()
        alpha_j = prior["alpha0"] + n_j
        kappa_j = prior["kappa0"] + n_j
        if n_j > 0:
            xbar = (r[:, None] * x).sum(0) / n_j
        else:
            xbar = np.zeros(x.shape[1])
        m_j = (prior["kappa0"] * prior["m0"] + n_j * xbar) / kappa_j
        nu_j = prior["nu0"] + n_j
        diff = x - xbar
        s = (r[:, None] * diff).T @ diff
        winv = (
            np.linalg.inv(prior["w0"])
            + s
            + (prior["kappa0"] * n_j / kappa_j)
            * np.outer(xbar - prior["m0"], xbar - prior["m0"])
        )
        out.append(
            dict(alpha=alpha_j, kappa=kappa_j, m=m_j, nu=nu_j, w=np.linalg.inv(winv))
        )
    return out


class TestConjugateMessage:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.d = 2
        self.k = 3
        self.prior = updates.default_gmm_prior(self.k, self.d)

    def test_full_batch_beta_one_matches_direct_formulas(self):
        """beta1 = 1 with full-batch statistics is the exact conjugate posterior."""
        x = self.rng.standard_normal((25, self.d)) + np.array([2.0, -1.0])
        resp = self.rng.dirichlet(np.ones(self.k), size=25)
        msg = updates.conjugate_gmm_message(self.prior, x, resp, n_total=25)
        post = updates.natural_gradient_step(self.prior, msg, beta1=1.0)

        spec = dict(alpha0=1.0, kappa0=0.1, m0=np.zeros(self.d), w0=np.eye(self.d), nu0=self.d + 2.0)
        oracle = direct_gmm_posterior(spec, x, resp)
        alpha = expfam.to_standard(post.weights).alpha
        for j in range(self.k):
            comp = expfam.to_standard(post.components.replace_values(post.components.values[j]))
            np.testing.assert_allclose(alpha[j], oracle[j]["alpha"], rtol=1e-10)
            np.testing.assert_allclose(comp.kappa, oracle[j]["kappa"], rtol=1e-10)
            np.testing.assert_allclose(comp.mean, oracle[j]["m"], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(comp.dof, oracle[j]["nu"], rtol=1e-10)
            np.testing.assert_allclose(comp.scale, oracle[j]["w"], rtol=1e-8)

    def test_hard_assignments_match_one_hot(self):
        x = self.rng.standard_normal((6, self.d))
        labels = np.array([0, 1, 1, 2, 0, 1])
        one_hot = np.eye(self.k)[labels]
        m_hard = updates.conjugate_gmm_message(self.prior, x, labels, n_total=6)
        m_soft = updates.conjugate_gmm_message(self.prior, x, one_hot, n_total=6)
        np.testing.assert_allclose(m_hard.flat_values(), m_soft.flat_values(), rtol=1e-14)

    def test_empty_component_keeps_prior_block(self):
        """All data in component 0 leaves the other blocks at the prior."""
        x = self.rng.standard_normal((5, self.d))
        labels = np.zeros(5, dtype=int)
        msg = updates.conjugate_gmm_message(self.prior, x, labels, n_total=5)
        post = updates.natural_gradient_step(self.prior, msg, beta1=1.0)
        for j in (1, 2):
            np.testing.assert_allclose(
                post.components.values[j], self.prior.components.values[j], rtol=1e-13
            )

    def test_uniform_responsibilities_give_identical_blocks(self):
        x = self.rng.standard_normal((8, self.d))
        resp = np.full((8, self.k), 1.0 / self.k)
        msg = updates.conjugate_gmm_message(self.prior, x, resp, n_total=8)
        for j in range(1, self.k):
            np.testing.assert_allclose(
                msg.components.values[j], msg.components.values[0], rtol=1e-13
            )

    def test_minibatch_scaling(self):
        """Statistics scale by n_total / batch; doubling n_total doubles them."""
        x = self.rng.standard_normal((4, self.d))
        labels = np.array([0, 1, 2, 0])
        m1 = updates.conjugate_gmm_message(self.prior, x, labels, n_total=4)
        m2 = updates.conjugate_gmm_message(self.prior, x, labels, n_total=8)
        s1 = m1.flat_values() - self.prior.flat_values()
        s2 = m2.flat_values() - self.prior.flat_values()
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)


class TestNaturalGradientStep:
    def test_beta_zero_identity(self):
        prior = updates.default_gmm_prior(2, 1)
        rng = np.random.default_rng(5)
        msg = updates.conjugate_gmm_message(
            prior, rng.standard_normal((4, 1)), np.array([0, 1, 0, 1]), n_total=4
        )
        out = updates.natural_gradient_step(prior, msg, beta1=0.0)
        np.testing.assert_array_equal(out.flat_values(), prior.flat_values())

    def test_geometric_contraction_toward_message(self):
        """Each beta1=0.5 step halves the distance to the message, per block."""
        prior = updates.default_gmm_prior(2, 2)
        rng = np.random.default_rng(6)
        msg = updates.conjugate_gmm_message(
            prior, rng.standard_normal((10, 2)), rng.dirichlet(np.ones(2), size=10), 10
        )
        q = prior
        dist = np.linalg.norm(q.flat_values() - msg.flat_values())
        for _ in range(3):
            q = updates.natural_gradient_step(q, msg, beta1=0.5)
            new_dist = np.linalg.norm(q.flat_values() - msg.flat_values())
            assert new_dist == pytest.approx(0.5 * dist, rel=1e-12)
            dist = new_dist

    def test_domain_violation_halves_then_errors(self):
        prior = updates.default_gmm_prior(2, 1)
        bad = updates.PgmPosterior(
            weights=prior.weights.replace_values(np.full(2, -5e4)),
            components=prior.components,
        )
        with pytest.raises(InvalidParameterError):
            updates.natural_gradient_step(prior, bad, beta1=1.0)

    def test_domain_violation_rescued_by_halving(self):
        """A mildly invalid message is absorbed by halving the step."""
        prior = updates.default_gmm_prior(2, 1)
        mild = updates.PgmPosterior(
            weights=prior.weights.replace_values(np.full(2, -50.0)),
            components=prior.components,
        )
        out = updates.natural_gradient_step(prior, mild, beta1=1.0)
        assert out.in_domain()

    def test_domain_preserved_on_random_updates(self):
        rng = np.random.default_rng(7)
        q = updates.default_gmm_prior(3, 2)
        for _ in range(20):
            x = rng.standard_normal((12, 2)) * 2.0
            resp = rng.dirichlet(np.ones(3), size=12)
            msg = updates.conjugate_gmm_message(q, x, resp, n_total=120)
            q = updates.natural_gradient_step(q, msg, beta1=0.3)
            alpha = expfam.to_standard(q.weights).alpha
            assert np.all(alpha > 0)
            for v in q.components.values:
                p = expfam.to_standard(q.components.replace_values(v))
                assert p.kappa > 0 and p.dof > 2 - 1
                np.linalg.cholesky(p.scale)


class TestStackedPosterior:
    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize(
        "name,want",
        [
            ("natural_gradient_step", 1),
            ("sample_gmm_params", 0),
            ("kl_to_prior", 3),
            ("posterior_mean_params", 0),
        ],
    )
    def test_cholesky_calls_do_not_grow_with_k(self, monkeypatch, k, name, want):
        """All K scale matrices are factored in one call, and a posterior that
        a natural-gradient step returned hands its draws and its mean the
        factor its domain check took."""
        rng = np.random.default_rng(8)
        prior = updates.default_gmm_prior(k, 2)
        x = rng.standard_normal((30, 2))
        msg = updates.conjugate_gmm_message(prior, x, rng.integers(0, k, 30), n_total=100)
        q = updates.natural_gradient_step(prior, msg, beta1=0.5)
        args = {
            "natural_gradient_step": (q, msg, 0.5),
            "sample_gmm_params": (q, rng),
            "kl_to_prior": (q, prior),
            "posterior_mean_params": (q,),
        }[name]
        calls = []
        chol = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda *a: calls.append(1) or chol(*a))
        getattr(updates, name)(*args)
        assert len(calls) == want

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_posterior_mean_covariances_invert_the_expected_precisions(self, k, d):
        """The covariance factor L_k read off the factor of inv(W_k) is lower
        with a positive diagonal, and L_k L_k^T = E[Lam_k]^-1 = inv(nu_k W_k)."""
        rng = np.random.default_rng(100 + 10 * k + d)
        prior = updates.default_gmm_prior(k, d)
        x = rng.standard_normal((40, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
        msg = updates.conjugate_gmm_message(prior, x, rng.integers(0, k, 40), n_total=200)
        q = updates.natural_gradient_step(prior, msg, beta1=0.7)
        _, _, chols = updates.posterior_mean_params(q)
        np.testing.assert_array_equal(chols, np.tril(chols))
        assert np.all(np.diagonal(chols, axis1=1, axis2=2) > 0)
        p = expfam.to_standard(q.components)
        want = np.linalg.inv(p.dof[:, None, None] * p.scale)
        np.testing.assert_allclose(chols @ chols.swapaxes(1, 2), want, rtol=1e-12)

    def test_mixture_step_and_evaluation_lapack_work_is_pinned(self, monkeypatch):
        """np.linalg calls (cholesky, inv, solve) in one k = 10, d = 2,
        64-row latent-gmm step, one bound-and-imputation evaluation and a
        second step.  The posterior hands its point mixture covariance
        factors, so no draw or posterior mean is factored twice; it keeps its
        checked standard form, so its domain check, its mean and the next
        step's draw share one factorization; and a mixture's precisions are
        one ``inv_from_chol`` shared by the draw and the factor density."""
        ds = data.standardize(data.split(data.pinwheel(n_per_arm=40, arms=5, seed=0), seed=0))[0]
        cfg = harness.TrainConfig(
            model_kind="latent-gmm", n_components=10, hidden=(8,), batch_size=64, timing=False
        )
        state = harness.init_state(cfg, ds.dim)
        counts = dict.fromkeys(("cholesky", "inv", "solve"), 0)
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*a, _real=real, _name=name, **kw):
                counts[_name] += 1
                return _real(*a, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        batch = ds.rows[ds.train_idx][:64]
        state = harness.train_step(state, cfg, batch, ds.train_idx.size, np.random.default_rng(0))[0]
        assert counts == {"cholesky": 4, "inv": 6, "solve": 3}
        counts.update(dict.fromkeys(counts, 0))
        harness.evaluate(state, ds, ["bound", "imputation"])
        assert counts == {"cholesky": 3, "inv": 3, "solve": 4}
        # the first step factored the initial posterior for its draw; the
        # next draws from the factor the last domain check took (and reads
        # one inverse that the evaluation left cached on the network)
        counts.update(dict.fromkeys(counts, 0))
        harness.train_step(state, cfg, batch, ds.train_idx.size, np.random.default_rng(1))
        assert counts == {"cholesky": 3, "inv": 5, "solve": 3}

    def test_wrong_length_flat_vector_is_contract_error(self):
        prior = updates.default_gmm_prior(3, 2)
        flat = prior.flat_values()
        for bad in (flat[:-1], np.append(flat, 0.0)):
            with pytest.raises(ContractError):
                prior.with_flat_values(bad)


class TestEuclideanSteps:
    def test_sgd_ascends(self):
        out = updates.sgd_step(np.array([1.0, 2.0]), np.array([0.5, -1.0]), beta=0.1)
        np.testing.assert_allclose(out, [1.05, 1.9])

    def test_sgd_quadratic_bowl(self):
        """Ascent on -0.5 x^2 reaches the optimum within 1e-6 at beta = 0.1."""
        x = np.array([3.0, -2.0])
        for _ in range(10**4):
            x = updates.sgd_step(x, -x, beta=0.1)
            if np.max(np.abs(x)) < 1e-6:
                break
        assert np.max(np.abs(x)) < 1e-6

    def test_adagrad_hand_trace(self):
        """Three steps on fixed gradients, accumulator then divide, frozen by hand.

        g1 = (1, 2): acc = (1, 4);   x += b * g1 / (sqrt(acc) + 1e-8)
        g2 = (1, 0): acc = (2, 4);   ...
        g3 = (2, 2): acc = (6, 8)
        """
        b = 0.5
        x = np.zeros(2)
        st = np.zeros(2)
        g1, g2, g3 = np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([2.0, 2.0])
        x, st = updates.adagrad_step(x, g1, st, beta=b)
        e1 = b * g1 / (np.sqrt([1.0, 4.0]) + 1e-8)
        np.testing.assert_allclose(x, e1, rtol=1e-14)
        x, st = updates.adagrad_step(x, g2, st, beta=b)
        e2 = e1 + b * g2 / (np.sqrt([2.0, 4.0]) + 1e-8)
        np.testing.assert_allclose(x, e2, rtol=1e-14)
        x, st = updates.adagrad_step(x, g3, st, beta=b)
        e3 = e2 + b * g3 / (np.sqrt([6.0, 8.0]) + 1e-8)
        np.testing.assert_allclose(x, e3, rtol=1e-14)
        np.testing.assert_allclose(st, [6.0, 8.0])

    def test_non_finite_gradient_skips_with_warning(self):
        x = np.array([1.0])
        st = np.zeros(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x2, st2 = updates.adagrad_step(x, np.array([np.nan]), st, beta=0.1)
            x3 = updates.sgd_step(x, np.array([np.inf]), beta=0.1)
        assert len(caught) == 2
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(st2, st)
        np.testing.assert_array_equal(x3, x)

    def test_adagrad_returns_a_new_accumulator(self):
        """The step never writes into the accumulator it is given: a
        read-only one steps, comes back as a new array, and keeps its zeros."""
        accum = linalg.read_only(np.zeros(2))
        x, new = updates.adagrad_step(np.zeros(2), np.array([1.0, -2.0]), accum, beta=0.5)
        assert new is not accum and not np.shares_memory(new, accum)
        np.testing.assert_array_equal(new, [1.0, 4.0])
        np.testing.assert_array_equal(accum, [0.0, 0.0])


class TestVanStep:
    def test_precision_grows_linearly_on_quadratic(self):
        """sigma^-2 gains exactly 2 beta a per step when curvature is constant."""
        a = np.array([1.0, 3.0])
        state = updates.VanState.init(np.array([1.0, -1.0]), sigma2=1.0)
        beta = 0.25
        rng = np.random.default_rng(11)
        prec = 1.0 / state.sigma2
        for t in range(5):
            state = updates.van_step(
                state, lambda p: a * p, lambda p: a, beta=beta, rng=rng
            )
            prec = prec + 2 * beta * a
            np.testing.assert_allclose(1.0 / state.sigma2, prec, rtol=1e-12)

    def test_zero_grad_fixes_mean(self):
        state = updates.VanState.init(np.array([2.0]), sigma2=0.5)
        rng = np.random.default_rng(12)
        out = updates.van_step(
            state, lambda p: np.zeros_like(p), lambda p: np.ones_like(p), 0.1, rng
        )
        np.testing.assert_array_equal(out.mu, state.mu)
        assert out.sigma2[0] < state.sigma2[0]

    def test_negative_curvature_floored(self):
        state = updates.VanState.init(np.zeros(1), sigma2=1.0)
        rng = np.random.default_rng(13)
        out = updates.van_step(
            state, lambda p: np.zeros_like(p), lambda p: -np.ones_like(p), 0.1, rng
        )
        np.testing.assert_allclose(out.sigma2, state.sigma2)

    def test_variance_shrinks_below_threshold(self):
        """sigma2 under 1e-3 after 1e4 steps on the quadratic."""
        a = np.array([1.0, 3.0])
        state = updates.VanState.init(np.array([0.5, -0.5]), sigma2=1.0)
        rng = np.random.default_rng(14)
        for _ in range(10**4):
            state = updates.van_step(state, lambda p: a * p, lambda p: a, 0.1, rng)
        assert np.all(state.sigma2 < 1e-3)
        assert np.all(np.abs(state.mu) < 0.05)


class TestBayesNnStep:
    def test_prior_recovery_fixed_point(self):
        """Zero likelihood gradients drive (mu, sigma2) to the prior."""
        post = updates.BayesNnPosterior(
            mu=np.array([3.0]), sigma2=np.array([0.2]), mu0=0.0, sigma0_sq=2.0
        )
        for _ in range(2000):
            post = updates.bayes_nn_step(post, np.zeros(1), np.zeros(1), beta=0.1)
        np.testing.assert_allclose(post.mu, 0.0, atol=1e-10)
        np.testing.assert_allclose(post.sigma2, 2.0, rtol=1e-10)

    def test_converges_to_exact_conjugate_posterior(self):
        """1-parameter Gaussian likelihood: iterates hit the closed form to 1e-6."""
        rng = np.random.default_rng(15)
        y = rng.standard_normal(20) * 0.7 + 1.3
        s2 = 0.49
        mu0, s0 = 0.0, 4.0
        prec_exact = 1.0 / s0 + len(y) / s2
        mu_exact = (mu0 / s0 + y.sum() / s2) / prec_exact

        post = updates.BayesNnPosterior(
            mu=np.array([0.0]), sigma2=np.array([1.0]), mu0=mu0, sigma0_sq=s0
        )
        for _ in range(3000):
            grad_mu = np.array([np.sum(y - post.mu[0]) / s2])
            grad_s2 = np.array([-0.5 * len(y) / s2])
            post = updates.bayes_nn_step(post, grad_mu, grad_s2, beta=0.2)
        assert post.mu[0] == pytest.approx(mu_exact, abs=1e-6)
        assert post.sigma2[0] == pytest.approx(1.0 / prec_exact, abs=1e-6)

    def test_beta_zero_identity(self):
        post = updates.BayesNnPosterior(
            mu=np.array([1.0]), sigma2=np.array([0.5]), mu0=0.0, sigma0_sq=1.0
        )
        out = updates.bayes_nn_step(post, np.array([5.0]), np.array([1.0]), beta=0.0)
        np.testing.assert_array_equal(out.mu, post.mu)
        np.testing.assert_array_equal(out.sigma2, post.sigma2)

    def test_precision_floor_warning(self):
        post = updates.BayesNnPosterior(
            mu=np.array([0.0]), sigma2=np.array([1.0]), mu0=0.0, sigma0_sq=1.0
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = updates.bayes_nn_step(
                post, np.zeros(1), np.array([500.0]), beta=0.9
            )
        assert len(caught) == 1
        assert out.sigma2[0] > 0
