"""Exact oracles for the structured factors' log-normalizer adjoints.

Each inference network's posterior is a product of the recognition
factors N(x_n | m_n, diag v_n) and a structured factor f(x | theta), and its
log normalizer log Z is a log-partition.  By Fisher's identity each gradient
of log Z is a posterior moment:

* d log Z / d m = (E[x] - m) / v and
  d log Z / d v = (E[(x - m)^2] - v) / (2 v^2), elementwise;
* the factor parameters' gradient is E_q[grad_theta log f(x | theta)].

For the mixture, q(x, z) ∝ N(x | m_n, diag v_n) pi_z N(x | mu_z, Sigma_z)
row by row, and the moments come from enumerating z, with each component's
Gaussian conditional of x built in closed form in this file.  For the
dynamics, the moments come from the dense joint Gaussian of the whole
sequence (``dense_sequence_oracle`` of the acceptance tests), and the
factor gradient is linear in the first and second moments.  Neither check
shares code with the adjoints it tests.
"""

import numpy as np
import pytest
from scipy import stats

from structvi import infnet, linalg, models, nnet
from test_acceptance import dense_sequence_oracle


def random_case(seed, n, k, d):
    rng = np.random.default_rng(seed)
    mix = models.GaussianMixture(
        logits=0.5 * rng.standard_normal(k),
        means=1.5 * rng.standard_normal((k, d)),
        chol_raw=0.3 * rng.standard_normal((k, linalg.tril_size(d))),
    )
    m = 1.5 * rng.standard_normal((n, d))
    v = rng.uniform(0.1, 2.0, size=(n, d))
    return mix, m, v


def fisher_oracle(mix, m, v):
    """Responsibilities, the (m, v) gradients and the factor's parameter
    gradient of log Z, as posterior moments over enumerated indicators."""
    n, d = m.shape
    k = mix.n_components
    covs = mix.covs
    precs = np.linalg.inv(covs)
    log_r = np.empty((n, k))
    mean = np.empty((n, k, d))
    cov = np.empty((n, k, d, d))
    for i in range(n):
        for j in range(k):
            marginal = stats.multivariate_normal(mix.means[j], covs[j] + np.diag(v[i]))
            log_r[i, j] = np.log(mix.weights[j]) + marginal.logpdf(m[i])
            cov[i, j] = np.linalg.inv(precs[j] + np.diag(1.0 / v[i]))
            mean[i, j] = cov[i, j] @ (m[i] / v[i] + precs[j] @ mix.means[j])
    r = np.exp(log_r - np.logaddexp.reduce(log_r, axis=1, keepdims=True))

    e_x = np.einsum("nk,nkd->nd", r, mean)
    e_sq = np.einsum("nk,nkd->nd", r, np.diagonal(cov, axis1=-2, axis2=-1) + (mean - m[:, None]) ** 2)
    d_m = (e_x - m) / v
    d_v = (e_sq - v) / (2.0 * v**2)

    # grad log pi_z N(x | mu_z, Sigma_z): logits e_z - pi, mean P (x - mu),
    # covariance (P (x - mu)(x - mu)^T P - P) / 2, averaged under q.
    dev = mean - mix.means[None]
    second = cov + dev[..., :, None] * dev[..., None, :]
    g_logits = r.sum(axis=0) - n * mix.weights
    g_means = np.einsum("nk,kij,nkj->ki", r, precs, dev)
    g_covs = 0.5 * (
        np.einsum("nk,kij,nkjl,klm->kim", r, precs, second, precs)
        - r.sum(axis=0)[:, None, None] * precs
    )
    return r, d_m, d_v, mix.param_grad(g_logits, g_means, g_covs)


CASES = [(1, 1), (1, 4), (2, 3), (3, 10), (4, 6), (5, 2), (5, 10)]


@pytest.mark.parametrize("d, k", CASES, ids=[f"d{d}-k{k}" for d, k in CASES])
def test_gmm_log_z_factor_grads_match_fisher_identity(d, k):
    mix, m, v = random_case(10 * d + k, 6, k, d)
    r, d_m, d_v, g_factor = fisher_oracle(mix, m, v)
    # the score pass's inputs, built here: responsibilities and the factors
    # of Sigma_k + diag(v_n)
    chol = np.linalg.cholesky(mix.covs[None] + v[:, None, :, None] * np.eye(d))
    got_m, got_v, got_factor = infnet.gmm_log_z_factor_grads(mix, m, v, r, chol)
    for got, want in ((got_m, d_m), (got_v, d_v), (got_factor, g_factor)):
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


@pytest.mark.parametrize("d, k", CASES, ids=[f"d{d}-k{k}" for d, k in CASES])
def test_score_pass_responsibilities_match_enumeration(d, k):
    """The responsibilities the score pass hands the adjoints are the
    enumerated posterior's indicator marginals."""
    mix, m, v = random_case(10 * d + k, 6, k, d)
    r = fisher_oracle(mix, m, v)[0]
    np.testing.assert_allclose(infnet.gmm_log_z_parts(mix, m, v)[2], r, rtol=1e-10, atol=1e-14)


def lds_case(seed, t_len, d, dense):
    """A dynamics net with the identity or a dense transition, its
    observations, and the encoder's (m, v) for them."""
    rng = np.random.default_rng(seed)
    net = infnet.init_lds_net(d, 3, hidden=(5,), rng=rng)
    trans = np.eye(d)
    if dense:
        trans = 0.8 * trans + (0.4 / np.sqrt(d)) * rng.standard_normal((d, d))
    net.dynamics = models.LinearDynamics(
        trans=trans,
        noise_raw=0.3 * rng.standard_normal(linalg.tril_size(d)),
        init_mean=rng.standard_normal(d),
        init_raw=0.3 * rng.standard_normal(linalg.tril_size(d)),
    )
    y = rng.standard_normal((t_len, 3))
    return net, y, *infnet.encode(net, y)


def lds_fisher_oracle(dyn, m, v):
    """The (m, v) gradients and the dynamics' parameter gradient of log Z,
    from the dense posterior's moments of x_0..x_T."""
    t_len, d = m.shape
    _, mean, cov = dense_sequence_oracle(dyn, m, v)
    var = np.diag(cov).reshape(t_len + 1, d)[1:]
    mean = mean.reshape(t_len + 1, d)
    cov = cov.reshape(t_len + 1, d, t_len + 1, d).transpose(0, 2, 1, 3)
    obs = mean[1:]
    d_m = (obs - m) / v
    d_v = (var + (obs - m) ** 2 - v) / (2.0 * v**2)

    # E[x_s x_t^T], summed over the transitions t = 1..T
    second = lambda s, t: cov[s, t] + mean[s][:, None] * mean[t][None, :]
    steps = range(1, t_len + 1)
    now_prev = sum(second(t, t - 1) for t in steps)
    prev_prev = sum(second(t - 1, t - 1) for t in steps)
    now_now = sum(second(t, t) for t in steps)
    a = dyn.trans
    q_inv, p0_inv = np.linalg.inv(dyn.noise_cov), np.linalg.inv(dyn.init_cov)
    # grad log N(x_t | A x_{t-1}, Q) and log N(x_0 | mu_0, P_0), averaged under q
    resid = now_now - a @ now_prev.T - now_prev @ a.T + a @ prev_prev @ a.T
    dev0 = mean[0] - dyn.init_mean
    s0 = cov[0, 0] + dev0[:, None] * dev0[None, :]
    g_factor = dyn.param_grad(
        q_inv @ (now_prev - a @ prev_prev),
        0.5 * (q_inv @ resid @ q_inv - t_len * q_inv),
        p0_inv @ dev0,
        0.5 * (p0_inv @ s0 @ p0_inv - p0_inv),
    )
    return d_m, d_v, g_factor


LDS_CASES = [(1, 1), (1, 12), (2, 6), (3, 12), (5, 4), (8, 1), (8, 12)]
LDS_IDS = [f"d{d}-T{t}" for d, t in LDS_CASES]


def assert_close_to_largest(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


@pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
@pytest.mark.parametrize("d, t_len", LDS_CASES, ids=LDS_IDS)
def test_lds_log_z_factor_grads_match_fisher_identity(d, t_len, dense):
    net, _, m, v = lds_case(100 * d + t_len, t_len, d, dense)
    record = infnet.lds_filter(net.dynamics, m, v)
    got = infnet.lds_log_z_factor_grads(net.dynamics, record)
    for g, want in zip(got, lds_fisher_oracle(net.dynamics, m, v), strict=True):
        assert_close_to_largest(g, want)


@pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
@pytest.mark.parametrize("d, t_len", LDS_CASES, ids=LDS_IDS)
def test_lds_net_grad_log_z_matches_fisher_identity(d, t_len, dense):
    """The network's phi layout: the encoder's backward pass of the oracle's
    (m, v) gradients, then the dynamics' parameter gradient."""
    net, y, m, v = lds_case(100 * d + t_len, t_len, d, dense)
    d_m, d_v, g_factor = lds_fisher_oracle(net.dynamics, m, v)
    tape = net.prepare(y).tape
    want = np.concatenate([nnet.backward(net.encoder, tape, d_m, d_v)[0], g_factor])
    assert_close_to_largest(infnet.grad_log_z(net, y), want)
