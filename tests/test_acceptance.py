"""End-to-end acceptance gate.

One test per shipping criterion, each at its stated tolerance; the slow
trend reproductions carry their own wall-clock budgets.  Tolerances here are
frozen: loosening any of them is a correctness regression, not a cleanup.
"""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from structvi import (
    baselines,
    bound,
    data,
    expfam,
    harness,
    infnet,
    linalg,
    models,
    nnet,
    updates,
    vae,
)


def random_gmm_factor(rng, k, d):
    return models.GaussianMixture(
        logits=0.4 * rng.standard_normal(k),
        means=1.5 * rng.standard_normal((k, d)),
        chol_raw=0.3 * rng.standard_normal((k, linalg.tril_size(d))),
    )


def random_dynamics(rng, d):
    spd = lambda: linalg.raw_from_spd(0.5 * np.eye(d) + 0.1 * np.diag(rng.random(d)))
    return models.LinearDynamics(
        trans=0.6 * np.eye(d) + 0.2 * rng.standard_normal((d, d)),
        noise_raw=spd(),
        init_mean=0.3 * rng.standard_normal(d),
        init_raw=spd(),
    )


def random_gmm_net(rng, k, d, data_dim, hidden=(3,)):
    net = infnet.init_gmm_net(k, d, data_dim, hidden=hidden, rng=rng)
    net.mixture = random_gmm_factor(rng, k, d)
    return net


def random_lds_net(rng, d, data_dim, hidden=(3,)):
    net = infnet.init_lds_net(d, data_dim, hidden=hidden, rng=rng)
    net.dynamics = random_dynamics(rng, d)
    return net


def dense_sequence_oracle(dyn, m, v):
    """Joint-Gaussian normalizer and posterior for the sequence factor.

    Builds the full (T+1)d covariance by unrolling the dynamics, treats
    (m, v) as independent observations of rows 1..T, and conditions densely.
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
    obs_cov = h @ cov @ h.T + np.diag(v.ravel())
    log_z = stats.multivariate_normal.logpdf(m.ravel(), h @ mean, obs_cov)
    gain = cov @ h.T @ np.linalg.inv(obs_cov)
    post_mean = mean + gain @ (m.ravel() - h @ mean)
    post_cov = cov - gain @ obs_cov @ gain.T
    return log_z, post_mean, post_cov


def central_fd(f, vec, i, h=1e-5):
    e = np.zeros_like(vec)
    e[i] = h
    return (f(vec + e) - f(vec - e)) / (2.0 * h)


def test_criterion_01_mixture_normalizer_matches_quadrature():
    """20 random d=1, K<=3 instances; per-datum Z vs trapezoid, 1e-6 abs, <10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = np.linspace(-30.0, 30.0, 100_001)
    for trial in range(20):
        k = int(rng.integers(1, 4))
        mixture = random_gmm_factor(rng, k, 1)
        n = int(rng.integers(1, 5))
        m = rng.standard_normal((n, 1))
        v = 0.2 + rng.random((n, 1))
        _, per_datum, _ = infnet.gmm_log_z_parts(mixture, m, v)
        w = mixture.weights
        mu = mixture.means[:, 0]
        var = mixture.covs[:, 0, 0]
        pgm = sum(w[j] * stats.norm.pdf(grid, mu[j], np.sqrt(var[j])) for j in range(k))
        for i in range(n):
            dnn = stats.norm.pdf(grid, m[i, 0], np.sqrt(v[i, 0]))
            z_quad = trapezoid(dnn * pgm, grid)
            assert np.exp(per_datum[i]) == pytest.approx(z_quad, abs=1e-6), (
                f"trial {trial} row {i}"
            )
    assert time.perf_counter() - start < 10.0


def test_criterion_02_sequence_normalizer_and_moments_match_dense_oracle():
    """All T<=6, d<=2: log Z and posterior mean/covariance vs the dense
    joint-Gaussian oracle at 1e-8, <10 s.

    The covariance comes from the reconstruction map's linearity in the
    noise: columns of the map recovered from unit noise vectors.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for d in (1, 2):
        for t_len in range(1, 7):
            net = random_lds_net(rng, d, data_dim=2)
            y = rng.standard_normal((t_len, 2))
            m, v = infnet.encode(net, y)
            log_z, record = infnet.lds_log_z(net, y)
            oracle_log_z, oracle_mean, oracle_cov = dense_sequence_oracle(
                net.dynamics, m, v
            )
            assert log_z == pytest.approx(oracle_log_z, abs=1e-8), f"T={t_len} d={d}"

            zero = np.zeros((t_len + 1, d))
            post_mean = infnet.lds_reconstruct(net.dynamics, record, zero).ravel()
            np.testing.assert_allclose(post_mean, oracle_mean, rtol=0, atol=1e-8)

            dim = (t_len + 1) * d
            amap = np.empty((dim, dim))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = 1.0
                amap[:, j] = (
                    infnet.lds_reconstruct(
                        net.dynamics, record, e.reshape(t_len + 1, d)
                    ).ravel()
                    - post_mean
                )
            np.testing.assert_allclose(amap @ amap.T, oracle_cov, rtol=0, atol=1e-8)
    assert time.perf_counter() - start < 10.0


def test_criterion_03_gradient_suite_matches_finite_differences():
    """Analytic gradients vs central differences: log-normalizer, fixed-noise
    bound (1e-3), MLP backward, and prior log-densities; >=20 instances each
    at 1e-4 relative unless stated."""
    rng = np.random.default_rng(103)

    # log-normalizer gradients, mixture and sequence flavors
    for trial in range(20):
        if trial % 2 == 0:
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            net = random_gmm_net(rng, k, d, data_dim=2)
            y = rng.standard_normal((3, 2))
            value = lambda n: infnet.gmm_log_z(n, y)[0]
        else:
            d = int(rng.integers(1, 3))
            net = random_lds_net(rng, d, data_dim=2)
            y = rng.standard_normal((int(rng.integers(1, 6)), 2))
            value = lambda n: infnet.lds_log_z(n, y)[0]
        grad = infnet.grad_log_z(net, y)
        phi = net.phi_vector()
        for i in range(phi.size):
            fd = central_fd(lambda p: value(net.with_phi_vector(p)), phi, i)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                f"logz trial {trial} coord {i}"
            )

    # fixed-noise bound gradients over all three parameter blocks, 1e-3
    for trial in range(20):
        kind = trial % 3
        d = int(rng.integers(1, 3))
        data_dim = d + 1
        decoder = nnet.init_mlp([d, 2 * data_dim], [], rng)
        decoder = nnet.set_param_vector(
            decoder, 0.4 * rng.standard_normal(nnet.num_params(decoder))
        )
        if kind == 2:
            t_len = int(rng.integers(2, 5))
            net = random_lds_net(rng, d, data_dim, hidden=())
            prior = random_dynamics(rng, d)
            y = rng.standard_normal((t_len, data_dim))
            z = None
            eps = rng.standard_normal((t_len + 1, d))
        else:
            k = int(rng.integers(1, 3))
            n = 3
            net = random_gmm_net(rng, k, d, data_dim, hidden=())
            prior = models.GaussianMixture(
                logits=0.4 * rng.standard_normal(k),
                means=rng.standard_normal((k, d)),
                chol_raw=0.3 * rng.standard_normal((k, linalg.tril_size(d))),
            )
            if kind == 1:
                prior = models.StudentMixture(
                    logits=prior.logits,
                    means=prior.means,
                    chol_raw=prior.chol_raw,
                    dof=4.0,
                )
            y = rng.standard_normal((n, data_dim))
            z = rng.integers(0, k, size=n)
            eps = rng.standard_normal((n, d))
        model = models.GenerativeModel(decoder=decoder, prior=prior)
        bundle = bound.gradients_with_noise(model, net, y, z, eps, n_total=7)

        dec0 = nnet.param_vector(decoder)
        f_nn = lambda vec: bound.bound_with_noise(
            models.GenerativeModel(
                decoder=nnet.set_param_vector(decoder, vec), prior=prior
            ),
            net, y, z, eps, n_total=7,
        ).total
        pgm0 = prior.param_vector()
        f_pgm = lambda vec: bound.bound_with_noise(
            models.GenerativeModel(
                decoder=decoder, prior=prior.with_param_vector(vec)
            ),
            net, y, z, eps, n_total=7,
        ).total
        phi0 = net.phi_vector()
        f_phi = lambda vec: bound.bound_with_noise(
            model, net.with_phi_vector(vec), y, z, eps, n_total=7
        ).total
        for grads, f, vec in (
            (bundle.grad_theta_nn, f_nn, dec0),
            (bundle.grad_theta_pgm, f_pgm, pgm0),
            (bundle.grad_phi, f_phi, phi0),
        ):
            for i in range(vec.size):
                fd = central_fd(f, vec, i)
                assert grads[i] == pytest.approx(fd, rel=1e-3, abs=1e-6), (
                    f"bound trial {trial} coord {i}"
                )

    # MLP backward
    for trial in range(20):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 3))
        hidden = [int(rng.integers(2, 6))]
        act = ("tanh", "softplus", "relu", "identity")[trial % 4]
        net = nnet.init_mlp([n_in] + hidden + [2 * n_out], [act], rng)
        x = rng.standard_normal((2, n_in))
        wm = rng.standard_normal((2, n_out))
        wv = rng.standard_normal((2, n_out))
        _, _, tape = nnet.forward(net, x)
        grad, _ = nnet.backward(net, tape, wm, wv)
        theta = nnet.param_vector(net)

        def f_net(vec):
            mean, var, _ = nnet.forward(nnet.set_param_vector(net, vec), x)
            return float(np.sum(wm * mean) + np.sum(wv * var))

        for i in range(theta.size):
            fd = central_fd(f_net, theta, i)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                f"mlp trial {trial} coord {i}"
            )

    # prior log-densities: mixture, heavy-tailed mixture, dynamics
    for trial in range(20):
        d = int(rng.integers(1, 3))
        kind = trial % 3
        if kind == 2:
            prior = random_dynamics(rng, d)
            x = rng.standard_normal((int(rng.integers(2, 5)) + 1, d))
        else:
            k = int(rng.integers(1, 4))
            prior = random_gmm_factor(rng, k, d)
            if kind == 1:
                prior = models.StudentMixture(
                    logits=prior.logits,
                    means=prior.means,
                    chol_raw=prior.chol_raw,
                    dof=4.0,
                )
            x = rng.standard_normal((4, d))
        _, grad_x, grad_params = models.log_prior_with_grads(prior, x)
        flat_x = x.ravel()

        def f_x(vec):
            return models.log_prior(prior, vec.reshape(x.shape))

        for i in range(flat_x.size):
            fd = central_fd(f_x, flat_x, i)
            assert grad_x.ravel()[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                f"density trial {trial} x-coord {i}"
            )
        params = prior.param_vector()

        def f_p(vec):
            return models.log_prior(prior.with_param_vector(vec), x)

        for i in range(params.size):
            fd = central_fd(f_p, params, i)
            assert grad_params[i] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                f"density trial {trial} param {i}"
            )


def test_criterion_04_full_batch_unit_step_equals_conjugate_posterior():
    """A unit natural-gradient step on full-batch statistics lands exactly on
    the closed-form conjugate posterior, 1e-10."""
    rng = np.random.default_rng(104)
    for trial in range(5):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        n = int(rng.integers(8, 40))
        x = rng.standard_normal((n, d)) + rng.integers(-2, 3, size=(1, d))
        z = rng.integers(0, k, size=n)
        z[:k] = np.arange(k)  # every component owns at least one row
        alpha0, kappa0, nu0 = 1.0, 0.1, d + 2.0
        m0 = np.zeros(d)
        prior = updates.default_gmm_prior(k, d, alpha0=alpha0, kappa0=kappa0)

        message = updates.conjugate_gmm_message(prior, x, z, n_total=n)
        post = updates.natural_gradient_step(prior, message, 1.0)

        counts = np.array([(z == j).sum() for j in range(k)], dtype=float)
        direct_weights = expfam.to_natural_vector(
            expfam.DirichletParam(alpha=alpha0 + counts)
        )
        direct_comps = []
        for j in range(k):
            rows = x[z == j]
            n_j = rows.shape[0]
            xbar = rows.mean(axis=0)
            scatter = (rows - xbar).T @ (rows - xbar)
            kappa_n = kappa0 + n_j
            m_n = (kappa0 * m0 + n_j * xbar) / kappa_n
            nu_n = nu0 + n_j
            w_inv = (
                np.eye(d)
                + scatter
                + (kappa0 * n_j / kappa_n) * np.outer(xbar - m0, xbar - m0)
            )
            direct_comps.append(
                expfam.to_natural_vector(
                    expfam.NormalWishartParam(
                        mean=m_n, kappa=kappa_n, scale=np.linalg.inv(w_inv), dof=nu_n
                    )
                )
            )
        direct = np.concatenate([direct_weights.values] + [c.values for c in direct_comps])
        np.testing.assert_allclose(
            post.flat_values(), direct, rtol=0, atol=1e-10
        )


def test_criterion_05_standard_normal_prior_reduces_to_plain_vae():
    """With a single standard-normal factor and prior, the structured bound
    and its phi-gradient equal the independent plain-VAE path at 1e-8."""
    rng = np.random.default_rng(105)
    for trial in range(5):
        d = int(rng.integers(1, 4))
        data_dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        std = models.GaussianMixture(
            logits=np.zeros(1),
            means=np.zeros((1, d)),
            chol_raw=np.zeros((1, linalg.tril_size(d))),
        )
        shell = infnet.init_gmm_net(1, d, data_dim, hidden=(4,), rng=rng)
        net = infnet.GmmInferenceNet(mixture=std, encoder=shell.encoder)
        decoder = nnet.init_mlp([d, 5, 2 * data_dim], ["tanh"], rng)
        model = models.GenerativeModel(decoder=decoder, prior=std)
        y = rng.standard_normal((n, data_dim))
        z = np.zeros(n, dtype=int)
        eps = rng.standard_normal((n, d))

        est = bound.bound_with_noise(model, net, y, z, eps, n_total=n)
        ref_elbo, dec_ref, enc_ref = vae.elbo_and_grads(decoder, net.encoder, y, eps)
        assert est.total == pytest.approx(ref_elbo, abs=1e-8)

        bundle = bound.gradients_with_noise(model, net, y, z, eps, n_total=n)
        enc_slice = bundle.grad_phi[: net.n_encoder_params]
        np.testing.assert_allclose(enc_slice, enc_ref, rtol=0, atol=1e-8)
        np.testing.assert_allclose(bundle.grad_theta_nn, dec_ref, rtol=0, atol=1e-8)


def test_criterion_09_search_distribution_contracts_on_quadratic():
    """On a 2-coordinate quadratic the search distribution drives sigma^2
    below 1e-3 within 1e4 steps and the mean to the optimum within 1e-4.

    Instance sizing: the residual mean error is the initial offset damped by
    sqrt(prec_0 / prec_T) plus sampling noise with std sigma_0 / (2 sqrt(T)),
    both independent of further step-size growth; these constants leave a
    comfortable margin under the 1e-4 bound for generic seeds.
    """
    a = np.array([400.0, 200.0])
    c = np.array([0.3, -0.7])
    rng = np.random.default_rng(109)
    state = updates.VanState.init(c + 0.003, 1e-5)
    grad_fn = lambda x: 2.0 * a * (x - c)
    hess_fn = lambda x: 2.0 * a
    for _ in range(10_000):
        state = updates.van_step(state, grad_fn, hess_fn, 1000.0, rng)
    assert np.all(state.sigma2 < 1e-3)
    assert np.all(np.abs(state.mu - c) < 1e-4)


def test_criterion_10_gaussian_weight_posterior_reaches_conjugate_answer():
    """Iterating the Gaussian weight-posterior update on a conjugate
    one-parameter likelihood converges to the exact posterior, 1e-6."""
    rng = np.random.default_rng(110)
    y = 0.7 + 0.9 * rng.standard_normal(24)
    s_sq = 0.9**2
    mu0, sigma0_sq = -0.3, 2.0
    n = y.size

    exact_prec = 1.0 / sigma0_sq + n / s_sq
    exact_mean = (mu0 / sigma0_sq + y.sum() / s_sq) / exact_prec

    post = updates.BayesNnPosterior(
        mu=np.array([0.0]), sigma2=np.array([1.0]), mu0=mu0, sigma0_sq=sigma0_sq
    )
    for _ in range(200):
        grad_mu = np.array([(y - post.mu[0]).sum() / s_sq])
        grad_sigma2 = np.array([-0.5 * n / s_sq])
        post = updates.bayes_nn_step(post, grad_mu, grad_sigma2, 0.5)
    assert post.mu[0] == pytest.approx(exact_mean, abs=1e-6)
    assert post.sigma2[0] == pytest.approx(1.0 / exact_prec, abs=1e-6)


def test_criterion_11_determinism_and_checkpoint_round_trip(tmp_path):
    """Identical config and seed give byte-identical metrics logs, and a
    checkpoint reload evaluates bit-exactly."""
    ds = data.pinwheel(n_per_arm=60, arms=5, seed=3)
    ds = data.split(ds, train_frac=0.7, seed=3)
    cfg = harness.TrainConfig(
        model_kind="latent-gmm", n_components=3, latent_dim=2, hidden=(6,),
        beta1=0.1, beta2=0.05, beta3=0.05, batch_size=32, n_iters=30,
        seed=11, eval_interval=10, timing=False,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = harness.train_structured(cfg, ds=ds, out_dir=out_a)
    res_b = harness.train_structured(cfg, ds=ds, out_dir=out_b)
    bytes_a = open(res_a.metrics_path, "rb").read()
    bytes_b = open(res_b.metrics_path, "rb").read()
    assert bytes_a == bytes_b

    eval_rows = ds.rows[:64]
    before = (
        harness.per_datum_bound(res_a.state, eval_rows, seed=5),
        harness.imputation_mse(res_a.state, eval_rows, seed=5),
    )
    loaded, _ = harness.load_state(res_a.checkpoint_path)
    after = (
        harness.per_datum_bound(loaded, eval_rows, seed=5),
        harness.imputation_mse(loaded, eval_rows, seed=5),
    )
    assert before == after
