"""Exact oracles for the mixture factor's log-normalizer adjoints.

The mixture inference network's posterior over row n is
q(x, z) ∝ N(x | m_n, diag v_n) pi_z N(x | mu_z, Sigma_z), and its log
normalizer log Z is a log-partition.  By Fisher's identity each gradient of
log Z is a posterior moment:

* d log Z / d m = (E[x] - m) / v and
  d log Z / d v = (E[(x - m)^2] - v) / (2 v^2), elementwise;
* the factor parameters' gradient is E_q[grad_theta log pi_z N(x | mu_z, Sigma_z)].

The moments here come from enumerating z, with each component's Gaussian
conditional of x built in closed form in this file, so the check shares no
code with the score adjoints it tests.
"""

import numpy as np
import pytest
from scipy import stats

from structvi import infnet, linalg, models


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
