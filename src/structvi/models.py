"""Generative model pieces shared across experiments.

Three prior families over latents (Gaussian mixture, heavy-tailed mixture,
linear dynamics), a Gaussian decoder likelihood, the expected log prior under
a conjugate hyperparameter posterior, and ancestral sampling.  The mixture and
dynamics classes store covariances through unconstrained Cholesky vectors so
the same objects can serve as point parameters inside inference networks.

Each prior class owns its density (``log_prior``, ``log_prior_with_grads``),
its latent draw (``sample``) and ``lead_rows``, the latent rows ahead of the
first observed one (the dynamics' initial state).  ``StudentMixture``
overrides only its density kernel, gradient tail weight and draw rescaling.
The module functions of the same names, and ``generate``, take any prior.
"""

import math
from dataclasses import dataclass, replace
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
    lead_rows = 0  # rows are independent; every latent row is observed

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
        """(n, k) matrix of per-component log densities."""
        x = np.atleast_2d(x)
        chols = self.chols
        u = x[:, None, :] - self.means[None, :, :]
        v = np.linalg.solve(chols, u[..., None])[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
        return self._log_kernel(np.sum(v**2, axis=-1), logdet[None, :], x.shape[1])

    def _log_kernel(self, quad, logdet, d):
        """Component log densities from the squared Mahalanobis distances
        ``quad`` and the covariance log-determinants."""
        return -0.5 * (quad + logdet + d * LOG_2PI)

    def scores(self, x):
        return self.component_log_densities(x) + self.log_weights()

    def log_density(self, x):
        """Per-datum mixture log density, shape (n,)."""
        return logsumexp(self.scores(x), axis=1)

    def joint_log_density(self, x, z):
        """Sum of log p(x_n, z_n) at hard labels."""
        s = self.scores(np.atleast_2d(x))
        return float(s[np.arange(s.shape[0]), np.asarray(z, dtype=int)].sum())

    def log_prior(self, x):
        """Log density of (n, d) latent rows, labels marginalized, summed; a
        stacked (S, n, d) draw reads as S*n rows."""
        return float(self.log_density(x.reshape(-1, self.dim)).sum())

    def log_prior_with_grads(self, x):
        """(value, gradient wrt x, gradient wrt the parameter vector)."""
        scores = self.scores(x)
        val = float(logsumexp(scores, axis=1).sum())
        resp = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
        chols = self.chols
        prec = linalg.inv_from_chol(chols)
        u = x[:, None, :] - self.means[None, :, :]
        pu = np.einsum("kde,nke->nkd", prec, u)
        rw = resp * self._tail_weights(u, pu)
        grad_x = -np.einsum("nk,nkd->nd", rw, pu)
        grad_logits = resp.sum(axis=0) - x.shape[0] * self.weights
        grad_means = np.einsum("nk,nkd->kd", rw, pu)
        scatter = np.einsum("nk,nki,nkl->kil", rw, pu, pu)
        g_cov = 0.5 * (scatter - resp.sum(axis=0)[:, None, None] * prec)
        grad_raw = linalg.tril_raw_vjp(chols, g_cov)
        grad_params = np.concatenate([grad_logits, grad_means.ravel(), grad_raw.ravel()])
        return val, grad_x, grad_params

    def _tail_weights(self, u, pu):
        """(n, k) gradient weights of the offsets u, with pu = precision @ u."""
        return 1.0

    def sample(self, rng, n, seq_len=None):
        """(n, d) latent rows and their component labels.  Rows are
        independent, so ``seq_len`` plays no part."""
        z = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        x = self.means[z] + np.einsum("nij,nj->ni", self.chols[z], eps)
        return self._rescaled(x, z, rng), z

    def _rescaled(self, x, z, rng):
        """The Gaussian draw ``x`` at labels ``z`` turned into the family's."""
        return x

    def param_vector(self):
        return np.concatenate(
            [self.logits, self.means.ravel(), self.chol_raw.ravel()]
        )

    def with_param_vector(self, vec):
        k, d = self.n_components, self.dim
        s = linalg.tril_size(d)
        return replace(
            self,
            logits=vec[:k].copy(),
            means=vec[k : k + k * d].reshape(k, d).copy(),
            chol_raw=vec[k + k * d :].reshape(k, s).copy(),
        )


def log_gamma_ratio(a, d):
    """log Gamma(a + d/2) - log Gamma(a) for a > 0 and an integer d >= 0, not
    as a difference of two log-gammas near a log a: whole steps by
    Gamma(x + 1) = x Gamma(x), an odd d's half step by Stirling's series from
    a = 10 on (truncation below 2e-15) and by ``math.lgamma`` below it."""
    whole, half = divmod(d, 2)
    total = math.fsum(math.log(a + 0.5 * half + i) for i in range(whole))
    if half and a < 10.0:
        total += math.lgamma(a + 0.5) - math.lgamma(a)
    elif half:
        # log Gamma(a + 1/2) - log Gamma(a) - (log a) / 2 = sum_k c_k a^(1-2k),
        # c_k = (2^(1-2k) - 2) B_2k / (2k (2k-1)), here k = 6, ..., 1
        c = (691 / 180224, -31 / 18432, 17 / 14336, -1 / 640, 1 / 192, -1 / 8)
        total += 0.5 * math.log(a) + float(np.polyval(c, 1.0 / (a * a))) / a
    return total


@dataclass
class StudentMixture(GaussianMixture):
    """Mixture of multivariate Student-t components with one shared, fixed dof.

    The dof is a modeling constant, not a learnable parameter, so it stays out
    of the parameter vector; ``with_param_vector`` keeps it.
    """

    dof: float = 5.0

    def _log_kernel(self, quad, logdet, d):
        g = self.dof
        const = log_gamma_ratio(g / 2.0, d) - 0.5 * d * np.log(g * np.pi)
        return const - 0.5 * logdet - 0.5 * (g + d) * np.log1p(quad / g)

    def _tail_weights(self, u, pu):
        g, d = self.dof, self.dim
        delta = np.sum(u * pu, axis=2)
        return (g + d) / (g + delta)

    def _rescaled(self, x, z, rng):
        """A Student-t draw: the Gaussian offset scaled by sqrt(dof / chi2)."""
        return self.means[z] + (x - self.means[z]) * np.sqrt(
            self.dof / rng.chisquare(self.dof, size=x.shape[0])
        )[:, None]


@dataclass
class LinearDynamics:
    """First-order linear-Gaussian dynamics with a Gaussian initial state."""

    trans: np.ndarray           # (d, d)
    noise_raw: np.ndarray       # (d(d+1)/2,)
    init_mean: np.ndarray       # (d,)
    init_raw: np.ndarray        # (d(d+1)/2,)
    lead_rows = 1  # the unobserved initial state x_0

    @property
    def dim(self):
        return self.trans.shape[0]

    @property
    def noise_cov(self):
        return linalg.spd_from_raw(self.noise_raw, self.dim)

    @property
    def init_cov(self):
        return linalg.spd_from_raw(self.init_raw, self.dim)

    def _log_prior_parts(self, x):
        """Log density of a latent array, its transition residuals, and the
        (2, d, d) Cholesky factors of the initial and transition-noise
        covariances, read from their stored raw vectors in one call so the
        gradients can share them."""
        d = self.dim
        if x.shape[-2] < 2:
            raise ContractError("dynamics prior needs at least one transition")
        chols = linalg.tril_from_raw(np.stack([self.init_raw, self.noise_raw]), d)
        init = x[..., :1, :].reshape(-1, d)
        val = float(_gaussian_logpdf(init, self.init_mean, chols[0]).sum())
        resid = x[..., 1:, :] - x[..., :-1, :] @ self.trans.T
        val += float(_gaussian_logpdf(resid.reshape(-1, d), np.zeros(d), chols[1]).sum())
        return val, resid, chols

    def log_prior(self, x):
        """Log density of one (T + 1, d) latent sequence, row 0 the initial
        state, or of a (..., T + 1, d) block of them, summed over the block."""
        return self._log_prior_parts(x)[0]

    def log_prior_with_grads(self, x):
        """(value, gradient wrt x, gradient wrt the parameter vector) for a
        sequence or a block of them: the x gradient takes the block's shape
        and the parameter gradient sums over its sequences."""
        val, resid, chols = self._log_prior_parts(x)
        d = self.dim
        s0_prec, q_prec = linalg.inv_from_chol(chols)
        pe = resid @ q_prec.T
        w0 = (x[..., 0, :] - self.init_mean) @ s0_prec.T

        grad_x = np.zeros_like(x)
        grad_x[..., 0, :] = -w0
        grad_x[..., 1:, :] -= pe
        grad_x[..., :-1, :] += pe @ self.trans

        # The parameter gradients sum over every step of every sequence.
        pe, prev, w0 = pe.reshape(-1, d), x[..., :-1, :].reshape(-1, d), w0.reshape(-1, d)
        g_q = 0.5 * (pe.T @ pe - pe.shape[0] * q_prec)
        g_s0 = 0.5 * (w0.T @ w0 - w0.shape[0] * s0_prec)
        grad_params = np.concatenate(
            [
                (pe.T @ prev).ravel(),
                linalg.tril_raw_vjp(chols[1], g_q),
                w0.sum(axis=0),
                linalg.tril_raw_vjp(chols[0], g_s0),
            ]
        )
        return val, grad_x, grad_params

    def sample(self, rng, n, seq_len):
        """(n, seq_len + 1, d) latent sequences, row 0 the initial state,
        and no labels."""
        if not seq_len:
            raise ContractError("seq_len is required for a dynamics prior")
        d = self.dim
        x = np.zeros((n, seq_len + 1, d))
        l0 = linalg.cholesky_spd(self.init_cov)
        lq = linalg.cholesky_spd(self.noise_cov)
        x[:, 0] = self.init_mean + rng.standard_normal((n, d)) @ l0.T
        for t in range(1, seq_len + 1):
            x[:, t] = x[:, t - 1] @ self.trans.T + rng.standard_normal((n, d)) @ lq.T
        return x, None

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


def log_prior(prior, x):
    """Log density of the latent array under ``prior``, summed over rows
    (see the prior class's ``log_prior``)."""
    return prior.log_prior(np.atleast_2d(np.asarray(x, dtype=float)))


def log_prior_with_grads(prior, x):
    """(value, gradient wrt x, gradient wrt the prior's parameter vector)."""
    return prior.log_prior_with_grads(np.atleast_2d(np.asarray(x, dtype=float)))


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
    """Ancestral draw of n observations, or of n sequences of length seq_len
    for a dynamics prior: the prior's latents, then one decoder pass over
    their observed rows."""
    x, labels = model.prior.sample(rng, n, seq_len)
    obs = x[..., model.prior.lead_rows :, :]
    y = _decode_sample(model.decoder, obs.reshape(-1, obs.shape[-1]), rng)
    return Draw(y=y.reshape(obs.shape[:-1] + y.shape[-1:]), x=x, labels=labels)
