import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import softmax

from structvi import bound, infnet, linalg, models, nnet, vae
from structvi.errors import ContractError, NumericalError


def standard_mixture(d):
    return models.GaussianMixture(
        logits=np.zeros(1),
        means=np.zeros((1, d)),
        chol_raw=np.zeros((1, linalg.tril_size(d))),
    )


def random_mixture(rng, k, d, student=False):
    fields = dict(
        logits=0.4 * rng.standard_normal(k),
        means=rng.standard_normal((k, d)),
        chol_raw=0.3 * rng.standard_normal((k, linalg.tril_size(d))),
    )
    if student:
        return models.StudentMixture(**fields, dof=4.0)
    return models.GaussianMixture(**fields)


def random_dynamics(rng, d):
    spd = lambda: linalg.raw_from_spd(
        0.5 * np.eye(d) + 0.1 * np.diag(rng.random(d))
    )
    return models.LinearDynamics(
        trans=0.6 * np.eye(d) + 0.2 * rng.standard_normal((d, d)),
        noise_raw=spd(),
        init_mean=0.3 * rng.standard_normal(d),
        init_raw=spd(),
    )


def random_decoder(rng, d, data_dim, hidden=()):
    sizes = [d, *hidden, 2 * data_dim]
    net = nnet.init_mlp(sizes, ["tanh"] * len(hidden), rng)
    vec = 0.4 * rng.standard_normal(nnet.num_params(net))
    return nnet.set_param_vector(net, vec)


def scalar_affine_net(weight, raw_var):
    """One-layer net on scalar input: mean = weight * u, variance fixed."""
    shell = nnet.init_mlp([1, 2], [], np.random.default_rng(0))
    return nnet.set_param_vector(shell, np.array([weight, 0.0, 0.0, raw_var]))


def raw_for_var(var):
    return float(np.log(np.expm1(var - nnet.VAR_FLOOR)))


def gmm_case(rng, n=5, d=2, k=3, data_dim=3):
    net = infnet.init_gmm_net(k, d, data_dim, hidden=(4,), rng=rng)
    phi = net.phi_vector()
    net = net.with_phi_vector(phi + 0.2 * rng.standard_normal(phi.size))
    model = models.GenerativeModel(
        decoder=random_decoder(rng, d, data_dim, hidden=(4,)),
        prior=random_mixture(rng, k, d),
    )
    y = rng.standard_normal((n, data_dim))
    return model, net, y


def lds_case(rng, t_len=4, d=1, data_dim=2):
    net = infnet.init_lds_net(d, data_dim, hidden=(), rng=rng)
    phi = net.phi_vector()
    net = net.with_phi_vector(phi + 0.15 * rng.standard_normal(phi.size))
    model = models.GenerativeModel(
        decoder=random_decoder(rng, d, data_dim),
        prior=random_dynamics(rng, d),
    )
    y = rng.standard_normal((t_len, data_dim))
    return model, net, y


def term_sum(est):
    return (
        est.decoder_term
        + est.dnn_entropy_term
        + est.prior_term
        + est.pgm_factor_term
        + est.log_z_term
    )


def test_terms_sum_to_total_gmm():
    model, net, y = gmm_case(np.random.default_rng(0))
    est = bound.bound_estimate(model, net, y, np.random.default_rng(1), n_total=20)
    assert abs(est.total - term_sum(est)) < 1e-10
    assert np.isfinite(est.total)


def test_terms_sum_to_total_lds():
    model, net, y = lds_case(np.random.default_rng(2))
    est = bound.bound_estimate(model, net, y, np.random.default_rng(3), n_total=6)
    assert abs(est.total - term_sum(est)) < 1e-10
    assert np.isfinite(est.total)


def test_terms_scale_linearly_in_n_total():
    rng = np.random.default_rng(4)
    model, net, y = gmm_case(rng)
    z = np.array([0, 1, 2, 0, 1])
    eps = rng.standard_normal((5, 2))
    one = bound.bound_with_noise(model, net, y, z, eps, n_total=5)
    two = bound.bound_with_noise(model, net, y, z, eps, n_total=10)
    for name in (
        "decoder_term",
        "dnn_entropy_term",
        "prior_term",
        "pgm_factor_term",
        "log_z_term",
        "total",
    ):
        assert getattr(two, name) == pytest.approx(2.0 * getattr(one, name), rel=1e-12)


def test_estimate_matches_manual_sample_replay():
    model, net, y = gmm_case(np.random.default_rng(5))
    est = bound.bound_estimate(model, net, y, np.random.default_rng(9), n_total=12, n_samples=3)
    rng = np.random.default_rng(9)
    totals = []
    for _ in range(3):
        s = net.draw(net.prepare(y), rng)
        totals.append(bound.bound_with_noise(model, net, y, s.z_star, s.eps, n_total=12).total)
    assert est.total == pytest.approx(np.mean(totals), abs=1e-12)


def test_vae_reduction_bound_and_grads():
    rng = np.random.default_rng(6)
    d, data_dim, n = 2, 3, 6
    shell = infnet.init_gmm_net(1, d, data_dim, hidden=(5,), rng=rng)
    net = infnet.GmmInferenceNet(mixture=standard_mixture(d), encoder=shell.encoder)
    model = models.GenerativeModel(
        decoder=random_decoder(rng, d, data_dim, hidden=(6,)),
        prior=standard_mixture(d),
    )
    y = rng.standard_normal((n, data_dim))
    z = np.zeros(n, dtype=int)
    eps = rng.standard_normal((n, d))

    est = bound.bound_with_noise(model, net, y, z, eps, n_total=n)
    assert abs(est.prior_term + est.pgm_factor_term) < 1e-10

    ref_elbo, dec_ref, enc_ref = vae.elbo_and_grads(model.decoder, net.encoder, y, eps)
    assert est.total == pytest.approx(ref_elbo, abs=1e-10)

    bundle = bound.gradients_with_noise(model, net, y, z, eps, n_total=n)
    np.testing.assert_allclose(bundle.grad_theta_nn, dec_ref, rtol=0, atol=1e-8)
    enc_slice = bundle.grad_phi[: net.n_encoder_params]
    np.testing.assert_allclose(enc_slice, enc_ref, rtol=0, atol=1e-8)
    assert bundle.bound.total == pytest.approx(ref_elbo, abs=1e-10)


def test_mc_average_matches_quadrature_d1():
    rng = np.random.default_rng(7)
    mixture = models.GaussianMixture(
        logits=np.array([0.2, -0.1]),
        means=np.array([[-1.0], [1.5]]),
        chol_raw=np.array([[0.1], [-0.3]]),
    )
    prior = models.GaussianMixture(
        logits=np.array([0.0, 0.4]),
        means=np.array([[-0.5], [1.0]]),
        chol_raw=np.array([[-0.2], [0.2]]),
    )
    encoder = scalar_affine_net(0.8, raw_for_var(0.7))
    decoder = scalar_affine_net(1.1, raw_for_var(0.5))
    net = infnet.GmmInferenceNet(mixture=mixture, encoder=encoder)
    model = models.GenerativeModel(decoder=decoder, prior=prior)
    y = np.array([[0.7]])

    grid = np.linspace(-30.0, 30.0, 200_001)
    m, v = infnet.encode(net, y)
    m0, v0 = float(m[0, 0]), float(v[0, 0])
    log_dnn = -0.5 * (np.log(2 * np.pi * v0) + (grid - m0) ** 2 / v0)
    log_fac = mixture.log_density(grid[:, None])
    log_pri = prior.log_density(grid[:, None])
    mean_g, var_g, _ = nnet.forward(decoder, grid[:, None])
    log_lik = (
        -0.5 * (np.log(2 * np.pi * var_g[:, 0]) + (y[0, 0] - mean_g[:, 0]) ** 2 / var_g[:, 0])
    )
    weight = np.exp(log_dnn + log_fac)
    z_n = np.trapezoid(weight, grid)
    post = weight / z_n
    integrand = post * (log_lik + log_pri - log_dnn - log_fac)
    exact = np.trapezoid(integrand, grid) + np.log(z_n)

    chunk = 2000
    means = []
    for _ in range(50):
        yb = np.repeat(y, chunk, axis=0)
        est = bound.bound_estimate(model, net, yb, rng, n_total=chunk)
        means.append(est.total / chunk)
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(means.size)
    assert abs(means.mean() - exact) < 3.0 * se


def test_expected_grad_phi_zero_at_exact_posterior():
    sigma2 = 0.5
    raw = raw_for_var(sigma2)
    enc = scalar_affine_net(1.0, raw)
    dec = scalar_affine_net(1.0, raw)
    std = standard_mixture(1)
    net = infnet.GmmInferenceNet(mixture=std, encoder=enc)
    model = models.GenerativeModel(decoder=dec, prior=std)
    y = np.full((250, 1), 0.9)
    rng = np.random.default_rng(11)
    chunks = []
    for _ in range(40):
        g = bound.bound_gradients(model, net, y, rng, n_total=250).grad_phi
        chunks.append(g / 250.0)
    arr = np.stack(chunks)
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])
    assert np.all(np.abs(mean) <= 3.0 * se + 1e-9)


def central_fd(f, vec, i, h=1e-5):
    e = np.zeros_like(vec)
    e[i] = h
    return (f(vec + e) - f(vec - e)) / (2.0 * h)


def check_fd_blocks(model, net, y, z, eps, n_total):
    bundle = bound.gradients_with_noise(model, net, y, z, eps, n_total)

    dec0 = nnet.param_vector(model.decoder)

    def f_nn(vec):
        m2 = models.GenerativeModel(
            decoder=nnet.set_param_vector(model.decoder, vec), prior=model.prior
        )
        return bound.bound_with_noise(m2, net, y, z, eps, n_total).total

    for i in range(dec0.size):
        fd = central_fd(f_nn, dec0, i)
        assert bundle.grad_theta_nn[i] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    pgm0 = model.prior.param_vector()

    def f_pgm(vec):
        m2 = models.GenerativeModel(
            decoder=model.decoder, prior=model.prior.with_param_vector(vec)
        )
        return bound.bound_with_noise(m2, net, y, z, eps, n_total).total

    for i in range(pgm0.size):
        fd = central_fd(f_pgm, pgm0, i)
        assert bundle.grad_theta_pgm[i] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    phi0 = net.phi_vector()

    def f_phi(vec):
        return bound.bound_with_noise(
            model, net.with_phi_vector(vec), y, z, eps, n_total
        ).total

    for i in range(phi0.size):
        fd = central_fd(f_phi, phi0, i)
        assert bundle.grad_phi[i] == pytest.approx(fd, rel=1e-3, abs=1e-6)


@pytest.mark.parametrize(
    "student,d,data_dim",
    [(False, 1, 2), (True, 1, 2), (False, 2, 3), (False, 4, 3), (True, 5, 3)],
    ids=["gauss-d1", "student-d1", "gauss-d2", "gauss-d4", "student-d5"],
)
def test_fd_gmm_gradient_blocks(student, d, data_dim):
    rng = np.random.default_rng(13)
    n, k = 3, 2
    decoder = random_decoder(rng, d, data_dim)
    prior = random_mixture(rng, k, d, student=student)
    net = infnet.init_gmm_net(k, d, data_dim, hidden=(), rng=rng)
    phi = net.phi_vector()
    net = net.with_phi_vector(phi + 0.25 * rng.standard_normal(phi.size))
    model = models.GenerativeModel(decoder=decoder, prior=prior)
    y = rng.standard_normal((n, data_dim))
    z = np.array([0, 1, 0])
    eps = rng.standard_normal((n, d))
    check_fd_blocks(model, net, y, z, eps, n_total=7)


@pytest.mark.parametrize(
    "d,data_dim,t_len",
    [(1, 2, 4), (2, 3, 3), (4, 3, 3), (5, 3, 3)],
    ids=["d1", "d2", "d4", "d5"],
)
def test_fd_lds_gradient_blocks(d, data_dim, t_len):
    rng = np.random.default_rng(17)
    model, net, y = lds_case(rng, t_len=t_len, d=d, data_dim=data_dim)
    eps = rng.standard_normal((t_len + 1, d))
    check_fd_blocks(model, net, y, None, eps, n_total=5)


def test_pgm_score_matches_hand_formula_d1():
    rng = np.random.default_rng(19)
    k, d, data_dim, n = 2, 1, 2, 4
    prior = random_mixture(rng, k, d)
    decoder = random_decoder(rng, d, data_dim)
    net = infnet.init_gmm_net(k, d, data_dim, hidden=(), rng=rng)
    model = models.GenerativeModel(decoder=decoder, prior=prior)
    y = rng.standard_normal((n, data_dim))
    z = np.array([0, 1, 1, 0])
    eps = rng.standard_normal((n, d))
    n_total = 10
    bundle = bound.gradients_with_noise(model, net, y, z, eps, n_total)

    x = bundle.sample.x_star[:, 0]
    mus = prior.means[:, 0]
    sig = np.exp(prior.chol_raw[:, 0])
    pis = softmax(prior.logits)
    comp = (
        np.log(pis)[None, :]
        - 0.5 * np.log(2 * np.pi * sig**2)[None, :]
        - 0.5 * (x[:, None] - mus[None, :]) ** 2 / sig[None, :] ** 2
    )
    resp = softmax(comp, axis=1)
    d_logits = (resp - pis[None, :]).sum(axis=0)
    d_mu = (resp * (x[:, None] - mus[None, :]) / sig[None, :] ** 2).sum(axis=0)
    d_raw = (resp * ((x[:, None] - mus[None, :]) ** 2 / sig[None, :] ** 2 - 1.0)).sum(axis=0)
    expected = (n_total / n) * np.concatenate([d_logits, d_mu, d_raw])
    np.testing.assert_allclose(bundle.grad_theta_pgm, expected, rtol=0, atol=1e-8)

    _, dec_grad, _ = models.decode_loglik(decoder, bundle.sample.x_star, y)
    np.testing.assert_allclose(bundle.grad_theta_nn, (n_total / n) * dec_grad, rtol=1e-12)


def test_nonfinite_prior_names_term():
    rng = np.random.default_rng(23)
    model, net, y = gmm_case(rng)
    bad_prior = models.GaussianMixture(
        logits=np.zeros(3),
        means=np.zeros((3, 2)),
        chol_raw=np.full((3, 3), 800.0),
    )
    model = models.GenerativeModel(decoder=model.decoder, prior=bad_prior)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="prior_term"):
            bound.bound_estimate(model, net, y, np.random.default_rng(0), n_total=10)


@pytest.mark.parametrize("want_grads", [False, True], ids=["estimate", "gradients"])
@pytest.mark.parametrize("field", ["noise_raw", "init_raw"])
@pytest.mark.parametrize(
    "which, log_diag, term",
    [("prior", -800.0, "prior_term"), ("prior", -400.0, "prior_term"),
     ("prior", 800.0, "prior_term"), ("factor", -800.0, "pgm_factor_term"),
     ("factor", -400.0, "pgm_factor_term")],
)
def test_nonfinite_dynamics_density_names_its_term(which, log_diag, term, field, want_grads):
    """The prior and factor dynamics are scored in one stacked pass, yet a
    density that fails names its own term, with no floating-point warning: a
    zero factor diagonal (-800), a density that overflows (-400) or a
    covariance that overflows (+800, which the factor's filter meets first)."""
    model, net, y = lds_case(np.random.default_rng(41), t_len=5, d=2, data_dim=3)
    dyn = model.prior if which == "prior" else net.dynamics
    raw = getattr(dyn, field).copy()
    raw[[0, 2]] = log_diag  # the two diagonal slots
    bad = dataclasses.replace(dyn, **{field: raw})
    if which == "prior":
        model = dataclasses.replace(model, prior=bad)
    else:
        net = dataclasses.replace(net, dynamics=bad)
    estimator = bound.bound_gradients if want_grads else bound.bound_estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=term):
            estimator(model, net, y, np.random.default_rng(0), n_total=5)


@pytest.mark.parametrize("case, calls", [(gmm_case, 2), (lds_case, 1)], ids=["gmm", "lds"])
def test_prior_and_factor_densities_take_traced_calls(monkeypatch, case, calls):
    """The mixture scores its prior and factor in two ``log_prior_with_grads``
    calls, the dynamics both in one stacked call, so a tracer that wraps the
    module function books either."""
    model, net, y = case(np.random.default_rng(45))
    seen = []
    density = models.log_prior_with_grads
    monkeypatch.setattr(
        models, "log_prior_with_grads", lambda *a: seen.append(type(a[0])) or density(*a)
    )
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=y.shape[0])
    assert len(seen) == calls
    if case is lds_case:
        assert seen == [models.DynamicsStack]


def test_contract_checks():
    rng = np.random.default_rng(29)
    model, net, y = gmm_case(rng)
    with pytest.raises(ContractError):
        bound.bound_estimate(model, net, y[:0], np.random.default_rng(0), n_total=5)
    with pytest.raises(ContractError):
        bound.bound_estimate(model, net, y, np.random.default_rng(0), n_total=2)
    lds_model, lds_net, seq = lds_case(np.random.default_rng(31))
    mismatched = models.GenerativeModel(decoder=model.decoder, prior=lds_model.prior)
    with pytest.raises(ContractError):
        bound.bound_estimate(mismatched, net, y, np.random.default_rng(0), n_total=10)
    with pytest.raises(ContractError):
        bound.bound_gradients(lds_model, lds_net, seq[None, :, :], np.random.default_rng(0), n_total=5)


@pytest.mark.parametrize(
    "case,factor_pass,reconstruct",
    [(gmm_case, "gmm_scores", "gmm_reconstruct"), (lds_case, "lds_filter", "lds_reconstruct")],
    ids=["gmm", "lds"],
)
def test_one_encoder_and_factor_pass_per_estimate(monkeypatch, case, factor_pass, reconstruct):
    model, net, y = case(np.random.default_rng(37))
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (nnet, "forward"),
        (nnet, "backward"),
        (infnet, "gmm_scores"),
        (infnet, "lds_filter"),
        (infnet, "gmm_reconstruct"),
        (infnet, "lds_reconstruct"),
    ):
        count(module, name)

    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=10)
    assert calls == {factor_pass: 1, reconstruct: 1, "forward": 2, "backward": 2}

    # Both samples are one stacked draw: one reconstruction, one decoder pass.
    calls.clear()
    bound.bound_estimate(model, net, y, np.random.default_rng(0), n_total=10, n_samples=2)
    assert calls == {factor_pass: 1, reconstruct: 1, "forward": 2}


@pytest.mark.parametrize("case", [gmm_case, lds_case], ids=["gmm", "lds"])
def test_decoder_width_mismatch_is_contract_error(case):
    rng = np.random.default_rng(41)
    model, net, y = case(rng)
    wide = models.GenerativeModel(
        decoder=random_decoder(rng, net.latent_dim, y.shape[1] + 1), prior=model.prior
    )
    with pytest.raises(ContractError, match="decoder output dim"):
        bound.bound_gradients(wide, net, y, np.random.default_rng(0), n_total=10)
    with pytest.raises(ContractError, match="decoder output dim"):
        bound.bound_estimate(wide, net, y, np.random.default_rng(0), n_total=10)


def test_gradient_step_inverts_each_innovation_once(monkeypatch):
    """T=20, d=2: the filter inverts each innovation inside its loop and
    factors all 20 in one stacked call; the reverse sweep inverts nothing.
    The prior and factor densities add 1 ``inv_from_chol`` call for the
    two: both dynamics' covariances in one stacked pass."""
    rng = np.random.default_rng(43)
    model, net, y = lds_case(rng, t_len=20, d=2, data_dim=3)
    factored, inverted = [], []
    chol, inv = linalg.cholesky_spd, linalg.inv_from_chol
    monkeypatch.setattr(
        linalg, "cholesky_spd",
        lambda mat, what="matrix": factored.append((what, np.shape(mat))) or chol(mat, what),
    )
    monkeypatch.setattr(linalg, "inv_from_chol", lambda c: inverted.append(1) or inv(c))
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=20)
    innovations = [shape for what, shape in factored if what == "innovation covariance"]
    assert innovations == [(20, 2, 2)]
    assert len(inverted) == 1


def test_gradient_step_runs_one_filter_reverse_sweep(monkeypatch):
    """The log-Z adjoints join the pathwise ones before a single sweep."""
    model, net, y = lds_case(np.random.default_rng(47), t_len=6, d=2, data_dim=3)
    calls = []
    sweep = infnet._filter_reverse
    monkeypatch.setattr(infnet, "_filter_reverse", lambda *a: calls.append(1) or sweep(*a))
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=6)
    assert len(calls) == 1


def test_gradient_step_runs_every_linear_chain_through_backward_chain(monkeypatch):
    """Filter means, draw, draw adjoint and reverse sweep: four chains."""
    model, net, y = lds_case(np.random.default_rng(49), t_len=6, d=2, data_dim=3)
    calls = []
    chain = infnet.backward_chain
    monkeypatch.setattr(infnet, "backward_chain", lambda *a: calls.append(1) or chain(*a))
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=6)
    assert len(calls) == 4


def test_filter_and_gradient_step_run_one_chain_core(monkeypatch):
    model, net, y = lds_case(np.random.default_rng(48), t_len=6, d=2, data_dim=3)
    calls = []
    core = infnet.kalman_covariances
    monkeypatch.setattr(infnet, "kalman_covariances", lambda *a: calls.append(1) or core(*a))
    m, v = infnet.encode(net, y)
    infnet.lds_filter(net.dynamics, m, v)
    assert len(calls) == 1
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=6)
    assert len(calls) == 2


def test_mixture_gradient_step_factors_combined_covariance_once(monkeypatch):
    model, net, y = gmm_case(np.random.default_rng(44))
    calls = []
    chol = linalg.cholesky_spd
    monkeypatch.setattr(linalg, "cholesky_spd", lambda *a: calls.append(a[1]) or chol(*a))
    bound.bound_gradients(model, net, y, np.random.default_rng(0), n_total=10)
    assert calls == ["combined mixture covariance"]


def block_case(rng, n_seq=3, t_len=5, d=2, data_dim=3):
    model, net, _ = lds_case(rng, t_len=t_len, d=d, data_dim=data_dim)
    return model, net, rng.standard_normal((n_seq, t_len, data_dim))


@pytest.mark.parametrize("n_samples", [1, 3])
def test_block_estimate_is_the_sum_of_sequence_estimates(n_samples):
    model, net, seqs = block_case(np.random.default_rng(45))
    got = bound.bound_estimate(model, net, seqs, np.random.default_rng(7), n_samples=n_samples)
    rng = np.random.default_rng(7)
    singles = [
        bound.bound_estimate(model, net, seq, rng, n_total=1, n_samples=n_samples)
        for seq in seqs
    ]
    for name in ("total", *bound.TERM_NAMES):
        want = sum(getattr(e, name) for e in singles)
        assert getattr(got, name) == pytest.approx(want, rel=1e-12), name


@pytest.mark.parametrize("n_samples", [1, 2, 5])
def test_block_estimate_is_the_mean_of_per_sample_estimates(n_samples):
    """The one stacked draw against a loop that scores each sample of the
    same noise block on its own and averages the estimates."""
    model, net, seqs = block_case(np.random.default_rng(49), n_seq=4, d=2)
    got = bound.bound_estimate(model, net, seqs, np.random.default_rng(8), n_samples=n_samples)
    prep = net.prepare(seqs)
    eps = np.random.default_rng(8).standard_normal((4, n_samples, 6, 2))
    ests = [
        bound._assemble(model, net, seqs, prep, net.replay(prep, None, eps[:, s]), 1.0, False)
        for s in range(n_samples)
    ]
    for name in ("total", *bound.TERM_NAMES):
        want = np.mean([getattr(e, name) for e in ests])
        assert getattr(got, name) == pytest.approx(want, rel=1e-12), name


def test_block_estimate_runs_one_encoder_and_filter_pass(monkeypatch):
    model, net, seqs = block_case(np.random.default_rng(46), n_seq=5)
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((nnet, "forward"), (nnet, "backward"), (infnet, "lds_filter")):
        count(module, name)
    bound.bound_estimate(model, net, seqs, np.random.default_rng(0), n_samples=2)
    assert calls == {"lds_filter": 1, "forward": 2}


def test_block_estimate_contract_checks():
    rng = np.random.default_rng(47)
    model, net, seqs = block_case(rng)
    # One (T, data_dim) sequence is a valid batch; a rank-4 array is not.
    for bad in (seqs[None], seqs[:0], seqs[:, :0]):
        with pytest.raises(ContractError, match="n_seq, T, data_dim"):
            bound.bound_estimate(model, net, bad, rng)
    with pytest.raises(ContractError, match="n_samples"):
        bound.bound_estimate(model, net, seqs, rng, n_samples=0)
    gmm_model, gmm_net, _ = gmm_case(rng)
    with pytest.raises(ContractError, match="sequence blocks"):
        bound.bound_estimate(gmm_model, gmm_net, seqs, rng)
