"""Generative model pieces shared across experiments.

Three prior families over latents (Gaussian mixture, heavy-tailed mixture,
linear dynamics), a Gaussian decoder likelihood, and ancestral sampling.
The mixture and dynamics classes store covariances through unconstrained
Cholesky vectors so the same objects can serve as point parameters inside
inference networks.

Each prior class owns its density (``log_prior``, ``log_prior_with_grads``),
its latent draw (``sample``) and ``lead_rows``, the latent rows ahead of the
first observed one (the dynamics' initial state).  ``StudentMixture``
overrides only its density kernel, gradient tail weight and draw rescaling.
The module functions of the same names take any prior or a
``DynamicsStack``, and ``generate`` any prior.  ``paired_densities`` scores a
prior and a factor at the same latents: in two calls by default, in one
stacked pass for the dynamics.

Each prior class also owns its parameter vector: the fields ``_params`` name,
in order (``param_vector``, ``with_param_vector``), and ``param_grad``, which
turns gradients with respect to its moments into that vector's gradient
through the raw-Cholesky chain rule.  The inference networks, whose
structured factors are these classes, hand their moment gradients to it.

Priors are immutable, so each builds its factors, covariances and (for a
mixture) precisions, inverted from the factors, once, at their first read, for
every later reader to share.

``GaussianMixture`` is the package's one mixture density: its ``scores`` and
``score_adjoints`` take its own covariance factors or per-row (n, k, d, d)
ones, as the mixture inference network's normalizer needs; ``normalized``
turns scores into log normalizers and responsibilities.

Every full-covariance density in the package is ``linalg.chol_quad``, the
one Mahalanobis solve, followed by one kernel per family:
``gaussian_log_kernel`` (the Gaussian mixture and the dynamics' initial
rows and transition residuals) or ``student_log_kernel`` (the Student
mixture and the VB-GMM baseline's predictive).
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import linalg, nnet
from .errors import ContractError, InvalidParameterError
from .linalg import logsumexp

LOG_2PI = np.log(2.0 * np.pi)


class _VectorParams:
    """The prior base: a prior whose parameter vector is its ``_params``
    fields, raveled in that order (``with_param_vector`` keeps every other
    field), and whose density pairs with a factor's at the same latents."""

    def param_vector(self):
        return linalg.flatten([getattr(self, name) for name in self._params])

    def with_param_vector(self, vec):
        shapes = [getattr(self, name).shape for name in self._params]
        return replace(self, **dict(zip(self._params, linalg.unflatten(vec, shapes))))

    def paired_densities(self, factor, x, want_grads):
        """(this prior's, ``factor``'s) densities at the latents x, as two
        zero-argument calls, each ``log_prior`` or, with ``want_grads``,
        ``log_prior_with_grads``, so a caller runs and checks each on its
        own.  This default makes the two calls; ``LinearDynamics`` scores
        both in one stacked pass."""
        density = log_prior_with_grads if want_grads else log_prior
        return partial(density, self, x), partial(density, factor, x)


def normalized(scores):
    """(total, per-row log normalizers, responsibilities) of (n, k) log
    scores, each row's normalized over its k entries."""
    per_row = logsumexp(scores, axis=1)
    return float(per_row.sum()), per_row, np.exp(scores - per_row[:, None])


def gaussian_log_kernel(quad, logdet, d):
    """Log density of a d-dimensional Gaussian at the squared Mahalanobis
    distances ``quad`` from its mean, with covariance log-determinant
    ``logdet``."""
    return -0.5 * (quad + logdet + d * LOG_2PI)


def student_log_kernel(quad, logdet, d, dof):
    """Log density of a d-dimensional Student t at the squared Mahalanobis
    distances ``quad`` under its shape matrix of log-determinant ``logdet``;
    ``dof`` is a scalar or one per component (the last axis)."""
    lgr = np.reshape([log_gamma_ratio(g / 2.0, d) for g in np.ravel(dof)], np.shape(dof))
    const = lgr - 0.5 * d * np.log(dof * np.pi)
    return const - 0.5 * logdet - 0.5 * (dof + d) * np.log1p(quad / dof)


@dataclass(frozen=True)
class GaussianMixture(_VectorParams):
    """Point-parameter mixture; covariances live as raw Cholesky vectors."""

    logits: np.ndarray          # (k,)
    means: np.ndarray           # (k, d)
    chol_raw: np.ndarray        # (k, d(d+1)/2)
    lead_rows = 0  # rows are independent; every latent row is observed
    _params = ("logits", "means", "chol_raw")

    @classmethod
    def from_factors(cls, weights, means, chols):
        """The mixture of component ``weights``, ``means`` and lower Cholesky
        factors of the covariances (positive diagonals)."""
        logits = np.log(np.maximum(weights, 1e-300))
        return cls(logits=logits, means=np.asarray(means), chol_raw=linalg.raw_from_tril(chols))

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

    @cached_property
    def chols(self):
        return linalg.tril_from_raw(self.chol_raw, self.dim)

    @cached_property
    def covs(self):
        """(k, d, d) covariances; ones that overflow, from a raw vector or
        its factor's product, raise InvalidParameterError without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            covs = self.chols @ self.chols.swapaxes(-1, -2)
        if not np.all(np.isfinite(covs)):
            raise InvalidParameterError("mixture covariance contains non-finite entries")
        return covs

    @cached_property
    def precisions(self):
        """(k, d, d) inverse covariances from ``chols``; ones that are
        singular or overflow raise InvalidParameterError without a warning."""
        self.covs  # raises for an overflowing covariance
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                prec = linalg.inv_from_chol(self.chols)
        except np.linalg.LinAlgError:
            prec = None
        if prec is None or not np.all(np.isfinite(prec)):
            raise InvalidParameterError("mixture covariance is singular")
        return prec

    def log_weights(self):
        return self.logits - logsumexp(self.logits)

    def component_log_densities(self, x, chol=None):
        """(n, k) matrix of per-component log densities, at the mixture's own
        covariance factors or, given (n, k, d, d) ``chol``, at each row's."""
        x = np.atleast_2d(x)
        chol = self.chols if chol is None else chol
        u = x[:, None, :] - self.means[None, :, :]
        quad, logdet = linalg.chol_quad(chol, u[..., None])
        return self._log_kernel(quad[..., 0], logdet, x.shape[1])

    def _log_kernel(self, quad, logdet, d):
        return gaussian_log_kernel(quad, logdet, d)

    def scores(self, x, chol=None):
        """(n, k) log weights plus ``component_log_densities``."""
        return self.component_log_densities(x, chol) + self.log_weights()

    def log_density(self, x):
        """Per-datum mixture log density, shape (n,)."""
        return logsumexp(self.scores(x), axis=1)

    def log_prior(self, x):
        """Log density of (n, d) latent rows, labels marginalized, summed; a
        stacked (S, n, d) draw reads as S*n rows."""
        return float(self.log_density(x.reshape(-1, self.dim)).sum())

    def log_prior_with_grads(self, x):
        """(value, gradient wrt x, gradient wrt the parameter vector)."""
        val, _, resp = normalized(self.scores(x))
        grad_x, g_logits, g_means, g_covs = self.score_adjoints(x, resp)
        return val, grad_x, self.param_grad(g_logits, g_means, g_covs)

    def score_adjoints(self, x, resp, chol=None):
        """Gradients of the summed log density of rows ``x`` of
        responsibilities ``resp``, at the factors ``scores`` reads: wrt x,
        the logits, the means, and the covariances at ``chol``'s leading
        axes, each row's (n, k, d, d) ones or, at the mixture's own (k, d,
        d) factors, their sum over rows, built without the per-row stack."""
        chol = self.chols if chol is None else chol
        prec = self.precisions if chol is self.chols else linalg.inv_from_chol(chol)
        u = x[:, None, :] - self.means[None, :, :]
        pu = (prec @ u[..., None])[..., 0]
        rw = resp * self._tail_weights(u, pu)
        grad_x = -np.einsum("nk,nkd->nd", rw, pu)
        counts = resp.sum(axis=0)
        g_logits = counts - x.shape[0] * self.weights
        g_means = np.einsum("nk,nkd->kd", rw, pu)
        lead, w = ("nk", resp) if chol.ndim == 4 else ("k", counts)
        g_covs = 0.5 * (np.einsum(f"nk,nki,nkl->{lead}il", rw, pu, pu) - w[..., None, None] * prec)
        return grad_x, g_logits, g_means, g_covs

    def param_grad(self, g_logits, g_means, g_covs):
        """Parameter-vector gradient from the gradients with respect to the
        weight logits, the means and the (k, d, d) covariances, through the
        prior's own ``chols``."""
        return linalg.flatten([g_logits, g_means, linalg.tril_raw_vjp(self.chols, g_covs)])

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


@dataclass(frozen=True)
class StudentMixture(GaussianMixture):
    """Mixture of multivariate Student-t components with one shared, fixed dof.

    The dof is a modeling constant, not a learnable parameter, so it stays out
    of the parameter vector; ``with_param_vector`` keeps it.
    """

    dof: float = 5.0

    def _log_kernel(self, quad, logdet, d):
        return student_log_kernel(quad, logdet, d, self.dof)

    def _tail_weights(self, u, pu):
        g, d = self.dof, self.dim
        delta = np.sum(u * pu, axis=2)
        return (g + d) / (g + delta)

    def _rescaled(self, x, z, rng):
        """A Student-t draw: the Gaussian offset scaled by sqrt(dof / chi2)."""
        return self.means[z] + (x - self.means[z]) * np.sqrt(
            self.dof / rng.chisquare(self.dof, size=x.shape[0])
        )[:, None]


@dataclass(frozen=True)
class LinearDynamics(_VectorParams):
    """First-order linear-Gaussian dynamics with a Gaussian initial state.

    The dynamics density has one formula, ``stacked_log_prior``, which
    scores a stack of dynamics at one latent array: ``log_prior`` and
    ``log_prior_with_grads`` are its one-member case, and
    ``paired_densities`` scores a prior and a factor at the same draw in one
    pass, through a ``DynamicsStack``.
    """

    trans: np.ndarray           # (d, d)
    noise_raw: np.ndarray       # (d(d+1)/2,)
    init_mean: np.ndarray       # (d,)
    init_raw: np.ndarray        # (d(d+1)/2,)
    lead_rows = 1  # the unobserved initial state x_0
    _params = ("trans", "noise_raw", "init_mean", "init_raw")

    @property
    def dim(self):
        return self.trans.shape[0]

    @property
    def noise_cov(self):
        return self.covs[1]

    @property
    def init_cov(self):
        return self.covs[0]

    @cached_property
    def chols(self):
        """(2, d, d) Cholesky factors of the initial and the transition-noise
        covariance, read from their raw vectors in one call.  A raw
        log-diagonal past exp's range raises InvalidParameterError without a
        warning; a zero diagonal (a -inf one, a rank-deficient covariance)
        passes."""
        with np.errstate(over="ignore"):
            chols = linalg.tril_from_raw(np.stack([self.init_raw, self.noise_raw]), self.dim)
        if not np.isfinite(chols).all():
            raise InvalidParameterError("dynamics covariance factors contain non-finite entries")
        return chols

    @cached_property
    def covs(self):
        """The (2, d, d) covariances ``chols`` factor; ones that overflow
        raise InvalidParameterError without a warning."""
        with np.errstate(over="ignore"):
            covs = self.chols @ self.chols.swapaxes(-1, -2)
        if not np.isfinite(covs).all():
            raise InvalidParameterError("dynamics covariances contain non-finite entries")
        return covs

    def param_grad(self, g_trans, g_noise_cov, g_init_mean, g_init_cov):
        """Parameter-vector gradient from the gradients with respect to the
        transition, the noise covariance, the initial mean and the initial
        covariance, through the prior's own ``chols``."""
        return _dynamics_param_grads(self.chols, g_trans, g_noise_cov, g_init_mean, g_init_cov)

    @staticmethod
    def stacked_log_prior(dyns, x, want_grads):
        """The log density of each of the S dynamics ``dyns`` at one latent
        array x, one (T + 1, d) sequence or a (..., T + 1, d) block summed
        over its sequences, in one stacked pass: the (S,) values and, with
        ``want_grads``, the (S, *x.shape) x gradients and (S, P)
        parameter-vector gradients.  Every density of the dynamics is this
        pass; ``log_prior`` and ``log_prior_with_grads`` are its one-member
        case.

        A factor with a zero diagonal has no density, and a density that
        overflows (a factor near singular, a huge residual) has none in
        floating point: if either befalls any member, the pass raises
        InvalidParameterError without a warning.
        """
        d = x.shape[-1]
        if x.shape[-2] < 2:
            raise ContractError("dynamics prior needs at least one transition")
        seqs = x.reshape((-1,) + x.shape[-2:])  # (N, T + 1, d)
        n_seq, n_dyn = seqs.shape[0], len(dyns)
        trans = np.array([dyn.trans for dyn in dyns])
        chols = np.array([dyn.chols for dyn in dyns])  # (S, 2, d, d)
        prev = seqs[:, :-1, :].reshape(-1, d)
        resid = seqs[:, 1:, :].reshape(-1, d) - prev @ trans.swapaxes(-1, -2)  # (S, N T, d)
        off0 = seqs[:, 0, :] - np.array([dyn.init_mean for dyn in dyns])[:, None, :]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                vals = 0.0
                for chol, r in ((chols[:, 0], off0), (chols[:, 1], resid)):
                    quad, logdet = linalg.chol_quad(chol, r.swapaxes(-1, -2))
                    vals = vals + gaussian_log_kernel(quad, logdet[:, None], d).sum(axis=-1)
            except np.linalg.LinAlgError:
                vals = np.full(n_dyn, np.nan)
            if not np.isfinite(vals).all():
                raise InvalidParameterError("dynamics log prior is not finite: singular or overflows")
            if not want_grads:
                return vals
            prec = linalg.inv_from_chol(chols)
            s0_prec, q_prec = prec[:, 0], prec[:, 1]
            pe = resid @ q_prec.swapaxes(-1, -2)
            w0 = off0 @ s0_prec.swapaxes(-1, -2)
            grad_x = np.zeros((n_dyn,) + seqs.shape)
            pe_seqs = pe.reshape(grad_x[:, :, 1:].shape)
            grad_x[:, :, 0, :] = -w0
            grad_x[:, :, 1:, :] -= pe_seqs
            grad_x[:, :, :-1, :] += pe_seqs @ trans[:, None]
            # The parameter gradients sum over every step of every sequence.
            pet, w0t = pe.swapaxes(-1, -2), w0.swapaxes(-1, -2)
            g_q = 0.5 * (pet @ pe - prev.shape[0] * q_prec)
            g_s0 = 0.5 * (w0t @ w0 - n_seq * s0_prec)
            grads = _dynamics_param_grads(chols, pet @ prev, g_q, w0.sum(axis=-2), g_s0)
        return vals, grad_x.reshape((n_dyn,) + x.shape), grads

    def log_prior(self, x):
        """Log density of one (T + 1, d) latent sequence, row 0 the initial
        state, or of a (..., T + 1, d) block of them, summed over the block."""
        return float(self.stacked_log_prior((self,), x, False)[0])

    def log_prior_with_grads(self, x):
        """(value, gradient wrt x, gradient wrt the parameter vector) for a
        sequence or a block of them: the x gradient takes the block's shape
        and the parameter gradient sums over its sequences."""
        vals, grad_x, grads = self.stacked_log_prior((self,), x, True)
        return float(vals[0]), grad_x[0], grads[0]

    def paired_densities(self, factor, x, want_grads):
        """Both dynamics' densities at x from one stacked pass, one
        ``log_prior`` or ``log_prior_with_grads`` call on a
        ``DynamicsStack``."""
        density = log_prior_with_grads if want_grads else log_prior
        return density(DynamicsStack((self, factor)), x)

    def sample(self, rng, n, seq_len):
        """(n, seq_len + 1, d) latent sequences, row 0 the initial state,
        and no labels.  Sequences that a diverging transition overflows
        raise InvalidParameterError without a warning."""
        if not seq_len:
            raise ContractError("seq_len is required for a dynamics prior")
        d = self.dim
        x = np.zeros((n, seq_len + 1, d))
        l0, lq = self.chols
        x[:, 0] = self.init_mean + rng.standard_normal((n, d)) @ l0.T
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, seq_len + 1):
                x[:, t] = x[:, t - 1] @ self.trans.T + rng.standard_normal((n, d)) @ lq.T
        if not np.isfinite(x).all():
            raise InvalidParameterError("dynamics sample is not finite: the transition diverges")
        return x, None


def _dynamics_param_grads(chols, g_trans, g_noise_cov, g_init_mean, g_init_cov):
    """Parameter-vector gradients of dynamics whose (..., 2, d, d) ``chols``
    factor the initial and the noise covariance, from the gradients with
    respect to their moments, each with the same leading axes, through the
    raw-Cholesky chain rule: one ``tril_raw_vjp`` call for the stack."""
    lead = g_trans.shape[:-2]
    g_raw = linalg.tril_raw_vjp(chols, np.stack([g_init_cov, g_noise_cov], axis=-3))
    parts = (g_trans, g_raw[..., 1, :], g_init_mean, g_raw[..., 0, :])
    return np.concatenate([g.reshape(lead + (-1,)) for g in parts], axis=-1)


@dataclass(frozen=True)
class DynamicsStack:
    """Linear dynamics scored at one latent array in one stacked pass
    (``LinearDynamics.stacked_log_prior``).  Its ``log_prior`` and
    ``log_prior_with_grads`` give one zero-argument call per member, which
    returns that member's value or (value, gradient wrt x, gradient wrt its
    parameter vector).  If the pass fails, each call scores its member alone,
    so a call raises only its own member's error."""

    members: tuple

    def log_prior(self, x):
        return self._calls(x, False)

    def log_prior_with_grads(self, x):
        return self._calls(x, True)

    def _calls(self, x, want_grads):
        try:
            out = LinearDynamics.stacked_log_prior(self.members, x, want_grads)
        except InvalidParameterError:
            name = "log_prior_with_grads" if want_grads else "log_prior"
            return [partial(getattr(dyn, name), x) for dyn in self.members]
        rows = [(float(v), gx, gp) for v, gx, gp in zip(*out)] if want_grads else map(float, out)
        return [lambda row=row: row for row in rows]


def check_tau(tau, t_len):
    """ContractError unless the forecast horizon ``tau`` is an integer (a
    numpy integer too, but not a bool) in [0, t_len)."""
    if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)):
        raise ContractError(f"tau must be an integer, got {tau!r}")
    if not 0 <= tau < t_len:
        raise ContractError("tau must lie in [0, T)")


def forecast_means(filtered, trans, tau):
    """Roll the (..., T, d) filtered means of origins 0..T-1-tau tau steps
    ahead through the transition matrix ``trans``."""
    pred = filtered[..., : filtered.shape[-2] - tau, :]
    for _ in range(tau):
        pred = pred @ trans.T
    return pred


def log_prior(prior, x):
    """Log density of the latent array under ``prior``, summed over rows
    (see the prior class's ``log_prior``); a ``DynamicsStack`` gives one call
    per member."""
    return prior.log_prior(np.atleast_2d(np.asarray(x, dtype=float)))


def log_prior_with_grads(prior, x):
    """(value, gradient wrt x, gradient wrt the prior's parameter vector); a
    ``DynamicsStack`` gives one call per member."""
    return prior.log_prior_with_grads(np.atleast_2d(np.asarray(x, dtype=float)))


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
    their observed rows.  n may be 0, not negative; a draw numpy cannot
    hold raises InvalidParameterError before anything is allocated."""
    if n < 0:
        raise ContractError(f"cannot generate {n} draws")
    steps = () if seq_len is None else (seq_len + model.prior.lead_rows,)
    linalg.check_sizes((n, *steps, model.prior.dim), (n, *steps, model.decoder.out_dim))
    x, labels = model.prior.sample(rng, n, seq_len)
    obs = x[..., model.prior.lead_rows :, :]
    y = _decode_sample(model.decoder, obs.reshape(-1, obs.shape[-1]), rng)
    return Draw(y=y.reshape(obs.shape[:-1] + y.shape[-1:]), x=x, labels=labels)
