"""Generative model pieces shared across experiments.

Three prior families over latents (Gaussian mixture, heavy-tailed mixture,
linear dynamics), a Gaussian decoder likelihood, the expected log prior under
a conjugate hyperparameter posterior, and ancestral sampling.  The mixture and
dynamics classes store covariances through unconstrained Cholesky vectors so
the same objects can serve as point parameters inside inference networks.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expfam, linalg, nnet, updates
from .errors import ContractError
from .linalg import logsumexp

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianMixture:
    """Point-parameter mixture; covariances live as raw Cholesky vectors."""

    logits: np.ndarray          # (k,)
    means: np.ndarray           # (k, d)
    chol_raw: np.ndarray        # (k, d(d+1)/2)

    @property
    def n_components(self):
        return self.logits.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def weights(self):
        shifted = self.logits - self.logits.max()
        w = np.exp(shifted)
        return w / w.sum()

    @property
    def chols(self):
        return linalg.tril_from_raw(self.chol_raw, self.dim)

    @property
    def covs(self):
        chols = self.chols
        return chols @ np.swapaxes(chols, -1, -2)

    def log_weights(self):
        return self.logits - logsumexp(self.logits)

    def component_log_densities(self, x):
        """(n, k) matrix of per-component Gaussian log densities."""
        x = np.atleast_2d(x)
        n, d = x.shape
        chols = self.chols
        u = x[:, None, :] - self.means[None, :, :]
        v = np.linalg.solve(chols, u[..., None])[..., 0]
        quad = np.sum(v**2, axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
        return -0.5 * (quad + logdet[None, :] + d * LOG_2PI)

    def scores(self, x):
        return self.component_log_densities(x) + self.log_weights()

    def log_density(self, x):
        """Per-datum mixture log density, shape (n,)."""
        return logsumexp(self.scores(x), axis=1)

    def responsibilities(self, x):
        s = self.scores(x)
        return np.exp(s - logsumexp(s, axis=1, keepdims=True))

    def joint_log_density(self, x, z):
        """Sum of log p(x_n, z_n) at hard labels."""
        s = self.scores(np.atleast_2d(x))
        return float(s[np.arange(s.shape[0]), np.asarray(z, dtype=int)].sum())

    def param_vector(self):
        return np.concatenate(
            [self.logits, self.means.ravel(), self.chol_raw.ravel()]
        )

    def with_param_vector(self, vec):
        k, d = self.n_components, self.dim
        s = linalg.tril_size(d)
        return type(self)(
            logits=vec[:k].copy(),
            means=vec[k : k + k * d].reshape(k, d).copy(),
            chol_raw=vec[k + k * d :].reshape(k, s).copy(),
            **self._extra_fields(),
        )

    def _extra_fields(self):
        return {}


@dataclass
class StudentMixture(GaussianMixture):
    """Mixture of multivariate Student-t components with one shared, fixed dof.

    The dof is a modeling constant, not a learnable parameter, so it stays out
    of the parameter vector.
    """

    dof: float = 5.0

    def component_log_densities(self, x):
        x = np.atleast_2d(x)
        n, d = x.shape
        g = self.dof
        chols = self.chols
        const = (
            math.lgamma((g + d) / 2.0)
            - math.lgamma(g / 2.0)
            - 0.5 * d * np.log(g * np.pi)
        )
        u = x[:, None, :] - self.means[None, :, :]
        v = np.linalg.solve(chols, u[..., None])[..., 0]
        delta = np.sum(v**2, axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
        return const - 0.5 * logdet[None, :] - 0.5 * (g + d) * np.log1p(delta / g)

    def _extra_fields(self):
        return {"dof": self.dof}


@dataclass
class LinearDynamics:
    """First-order linear-Gaussian dynamics with a Gaussian initial state."""

    trans: np.ndarray           # (d, d)
    noise_raw: np.ndarray       # (d(d+1)/2,)
    init_mean: np.ndarray       # (d,)
    init_raw: np.ndarray        # (d(d+1)/2,)

    @property
    def dim(self):
        return self.trans.shape[0]

    @property
    def noise_cov(self):
        return linalg.spd_from_raw(self.noise_raw, self.dim)

    @property
    def init_cov(self):
        return linalg.spd_from_raw(self.init_raw, self.dim)

    def param_vector(self):
        return np.concatenate(
            [self.trans.ravel(), self.noise_raw, self.init_mean, self.init_raw]
        )

    def with_param_vector(self, vec):
        d = self.dim
        s = linalg.tril_size(d)
        i = 0
        trans = vec[i : i + d * d].reshape(d, d).copy()
        i += d * d
        noise_raw = vec[i : i + s].copy()
        i += s
        init_mean = vec[i : i + d].copy()
        i += d
        init_raw = vec[i : i + s].copy()
        return LinearDynamics(trans, noise_raw, init_mean, init_raw)


def forecast_means(filtered, trans, tau):
    """Roll the (..., T, d) filtered means of origins 0..T-1-tau tau steps
    ahead through the transition matrix ``trans``."""
    pred = filtered[..., : filtered.shape[-2] - tau, :]
    for _ in range(tau):
        pred = pred @ trans.T
    return pred


def _gaussian_logpdf(x, mean, chol):
    d = x.shape[-1]
    v = np.linalg.solve(chol, (x - mean).T)
    return -0.5 * np.sum(v**2, axis=0) - 0.5 * (
        linalg.logdet_from_chol(chol) + d * LOG_2PI
    )


def _dynamics_log_prior(prior, x):
    """Log density of a dynamics latent array, and the (2, d, d) Cholesky
    factors of the initial and transition-noise covariances, read from their
    stored raw vectors in one call so the gradients can share them."""
    d = prior.dim
    if x.shape[-2] < 2:
        raise ContractError("dynamics prior needs at least one transition")
    chols = linalg.tril_from_raw(np.stack([prior.init_raw, prior.noise_raw]), d)
    init = x[..., :1, :].reshape(-1, d)
    val = float(_gaussian_logpdf(init, prior.init_mean, chols[0]).sum())
    resid = (x[..., 1:, :] - x[..., :-1, :] @ prior.trans.T).reshape(-1, d)
    val += float(_gaussian_logpdf(resid, np.zeros(d), chols[1]).sum())
    return val, chols


def log_prior(prior, x):
    """Log density of the latent array under the prior, summed over rows.

    For mixtures ``x`` is (n, d) and labels are marginalized.  For linear
    dynamics ``x`` is (T + 1, d) with row 0 holding the initial state, or a
    (B, T + 1, d) block of such sequences, summed over the block.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(prior, GaussianMixture):
        return float(prior.log_density(x).sum())
    if isinstance(prior, LinearDynamics):
        return _dynamics_log_prior(prior, x)[0]
    raise ContractError(f"unknown prior type {type(prior).__name__}")


def _mixture_grads(prior, x, scores=None):
    k, d = prior.n_components, prior.dim
    if scores is None:
        scores = prior.scores(x)
    resp = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
    w = prior.weights

    chols = prior.chols
    prec = linalg.inv_from_chol(chols)
    u = x[:, None, :] - prior.means[None, :, :]
    pu = np.einsum("kde,nke->nkd", prec, u)
    if isinstance(prior, StudentMixture):
        g = prior.dof
        delta = np.sum(u * pu, axis=2)
        tail = (g + d) / (g + delta)
    else:
        tail = np.ones_like(resp)
    rw = resp * tail
    grad_x = -np.einsum("nk,nkd->nd", rw, pu)
    grad_logits = resp.sum(axis=0) - x.shape[0] * w
    grad_means = np.einsum("nk,nkd->kd", rw, pu)
    scatter = np.einsum("nk,nki,nkl->kil", rw, pu, pu)
    g_cov = 0.5 * (scatter - resp.sum(axis=0)[:, None, None] * prec)
    grad_raw = linalg.tril_raw_vjp(chols, g_cov)
    grad_params = np.concatenate([grad_logits, grad_means.ravel(), grad_raw.ravel()])
    return grad_x, grad_params


def _dynamics_grads(prior, x, chols):
    s0_prec, q_prec = linalg.inv_from_chol(chols)
    resid = x[1:] - x[:-1] @ prior.trans.T
    u0 = x[0] - prior.init_mean
    pe = resid @ q_prec.T
    t_len = resid.shape[0]

    grad_x = np.zeros_like(x)
    grad_x[0] = -s0_prec @ u0
    grad_x[1:] -= pe
    grad_x[:-1] += pe @ prior.trans

    grad_trans = pe.T @ x[:-1]
    g_q = 0.5 * (pe.T @ pe - t_len * q_prec)
    grad_mu0 = s0_prec @ u0
    g_s0 = 0.5 * (np.outer(grad_mu0, grad_mu0) - s0_prec)
    grad_params = np.concatenate(
        [
            grad_trans.ravel(),
            linalg.tril_raw_vjp(chols[1], g_q),
            grad_mu0,
            linalg.tril_raw_vjp(chols[0], g_s0),
        ]
    )
    return grad_x, grad_params


def log_prior_with_grads(prior, x):
    """(value, gradient wrt x, gradient wrt the prior's parameter vector)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(prior, GaussianMixture):
        scores = prior.scores(x)
        val = float(logsumexp(scores, axis=1).sum())
        grad_x, grad_params = _mixture_grads(prior, x, scores=scores)
    elif isinstance(prior, LinearDynamics):
        val, chols = _dynamics_log_prior(prior, x)
        grad_x, grad_params = _dynamics_grads(prior, x, chols)
    else:
        raise ContractError(f"unknown prior type {type(prior).__name__}")
    return val, grad_x, grad_params


def expected_log_prior(q, x, z):
    """E_q(theta)[log p(x, z | theta)] under a conjugate mixture posterior.

    ``z`` is hard labels or an (n, k) responsibility matrix.  Returns the value
    and its gradient with respect to the posterior's mean coordinates, which is
    exactly the unscaled sufficient-statistics vector in the flat layout of
    ``PgmPosterior``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    k = q.n_components
    resp = updates.responsibilities_matrix(z, k, n)

    counts = resp.sum(axis=0)
    sums = resp.T @ x
    scatters = np.einsum("nj,ni,nl->jil", resp, x, x)

    e_log_w = expfam.to_mean(q.weights).values
    m1, m2, m3, m4 = expfam.split_normal_wishart(expfam.to_mean(q.components).values, d)
    val = float(
        counts @ e_log_w
        + np.sum(sums * m1)
        + counts @ (m2[:, 0] + m4[:, 0])
        + np.sum(scatters * m3)
    ) - 0.5 * n * d * LOG_2PI
    stats = expfam.pack_normal_wishart(sums, counts, scatters, counts)
    return val, np.concatenate([counts, stats.ravel()])


def _decoder_fit(decoder, x, y):
    """Decoder forward pass and the Gaussian log likelihood of y."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mean, var, tape = nnet.forward(decoder, x)
    if mean.shape != y.shape:
        raise ContractError(
            f"decoder output dim {mean.shape[-1]} does not match data dim {y.shape[-1]}"
        )
    resid = y - mean
    val = float(np.sum(-0.5 * (LOG_2PI + np.log(var)) - 0.5 * resid**2 / var))
    return val, resid, var, tape


def decode_loglik_value(decoder, x, y):
    """Gaussian decoder log likelihood alone; runs no backward pass."""
    return _decoder_fit(decoder, x, y)[0]


def decode_loglik(decoder, x, y):
    """Gaussian decoder log likelihood with both gradients.

    Returns (value, gradient wrt decoder parameters, gradient wrt x).
    """
    val, resid, var, tape = _decoder_fit(decoder, x, y)
    dmean = resid / var
    dvar = -0.5 / var + 0.5 * resid**2 / var**2
    grad_params, grad_x = nnet.backward(decoder, tape, dmean, dvar)
    return val, grad_params, grad_x


@dataclass
class GenerativeModel:
    """Decoder plus latent prior."""

    decoder: nnet.Mlp
    prior: object


@dataclass
class Draw:
    y: np.ndarray
    x: np.ndarray
    labels: Optional[np.ndarray]


def _decode_sample(decoder, x, rng):
    mean, var, _ = nnet.forward(decoder, x)
    return mean + np.sqrt(var) * rng.standard_normal(mean.shape)


def generate(model, rng, n, seq_len=None):
    """Ancestral draw of n observations (or n sequences of length seq_len)."""
    prior = model.prior
    if isinstance(prior, LinearDynamics):
        if seq_len is None:
            raise ContractError("seq_len is required for a dynamics prior")
        d = prior.dim
        x = np.zeros((n, seq_len + 1, d))
        l0 = linalg.cholesky_spd(prior.init_cov)
        lq = linalg.cholesky_spd(prior.noise_cov)
        x[:, 0] = prior.init_mean + rng.standard_normal((n, d)) @ l0.T
        for t in range(1, seq_len + 1):
            x[:, t] = x[:, t - 1] @ prior.trans.T + rng.standard_normal((n, d)) @ lq.T
        flat = x[:, 1:].reshape(n * seq_len, d)
        y = _decode_sample(model.decoder, flat, rng)
        return Draw(y=y.reshape(n, seq_len, -1), x=x, labels=None)

    k, d = prior.n_components, prior.dim
    z = rng.choice(k, size=n, p=prior.weights)
    eps = rng.standard_normal((n, d))
    x = prior.means[z] + np.einsum("nij,nj->ni", prior.chols[z], eps)
    if isinstance(prior, StudentMixture):
        x = prior.means[z] + (x - prior.means[z]) * np.sqrt(
            prior.dof / rng.chisquare(prior.dof, size=n)
        )[:, None]
    y = _decode_sample(model.decoder, x, rng)
    return Draw(y=y, x=x, labels=z)
