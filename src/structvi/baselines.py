"""Classical baselines fit directly to the observations.

Two reference models live here: batch variational-Bayes EM for a conjugate
Gaussian mixture, built on the same exponential-family machinery as the
structured model, and maximum-likelihood EM for a linear dynamical system,
filtered and smoothed by the Gaussian-chain code in ``infnet`` that the
structured dynamics model uses.  Both exist to be compared against, so each
exposes an honest held-out score: the mixture reports its exact posterior
predictive density, the dynamical system its filtered multi-step forecasts.

The LDS filter and smoother take one (T, D) sequence or an (n_seq, T, D)
block.  The constant emission noise goes to ``infnet.kalman_filter`` as a
broadcast (T, D, D) array, so the covariances, innovation factors and gains
are computed once for the whole block: means carry the block's leading axis,
covariances are shared (T, d, d) arrays, and log-likelihoods are block totals.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from . import expfam, infnet, linalg, models, updates
from .errors import ContractError

LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Variational-Bayes mixture


@dataclass(frozen=True)
class VbGmmResult:
    posterior: updates.PgmPosterior
    responsibilities: np.ndarray
    elbos: np.ndarray


def expected_component_loglik(q, y):
    """(n, k) matrix of E_q[log N(y_n | mu_k, Lam_k)].

    The expectation is an inner product between the per-datum sufficient
    statistics and the posterior's mean coordinates.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d = y.shape[1]
    m1, m2, m3, m4 = expfam.split_normal_wishart(expfam.to_mean(q.components).values, d)
    quad = np.einsum("ni,kil,nl->nk", y, m3, y)
    return y @ m1.T + m2[:, 0] + quad + m4[:, 0] - 0.5 * d * LOG_2PI


def vb_gmm_responsibilities(q, y):
    log_rho = expected_component_loglik(q, y) + expfam.to_mean(q.weights).values
    return np.exp(log_rho - logsumexp(log_rho, axis=1, keepdims=True))


def vb_gmm_elbo(q, prior, y, resp):
    val, _ = models.expected_log_prior(q, y, resp)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(resp > 0, resp * np.log(resp), 0.0))
    return float(val + ent - updates.kl_to_prior(q, prior))


def _init_resp(y, k, rng):
    """Hard assignment to k data rows drawn as provisional centers."""
    n = y.shape[0]
    centers = y[rng.choice(n, size=k, replace=False)]
    d2 = ((y[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.eye(k)[d2.argmin(axis=1)]


def vb_gmm_fit(y, k, n_iter=100, prior=None, seed=0):
    """Batch VB-EM; the recorded bound is nondecreasing by construction."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    if k < 1 or n < k:
        raise ContractError("need at least one datum per component")
    if prior is None:
        prior = updates.default_gmm_prior(k, d)
    rng = np.random.default_rng(seed)
    resp = _init_resp(y, k, rng)
    elbos = []
    q = prior
    for _ in range(n_iter):
        message = updates.conjugate_gmm_message(prior, y, resp, n_total=n)
        q = updates.natural_gradient_step(q, message, beta1=1.0)
        resp = vb_gmm_responsibilities(q, y)
        elbos.append(vb_gmm_elbo(q, prior, y, resp))
    return VbGmmResult(posterior=q, responsibilities=resp, elbos=np.asarray(elbos))


def _student_logpdf(y, mean, prec, dof):
    """(n, k) log densities of multivariate t components with precision-form
    scale matrices (k, d, d) and per-component dof (k,)."""
    d = mean.shape[-1]
    chol = np.linalg.cholesky(linalg.symmetrize(np.linalg.inv(prec)))
    sol = np.linalg.solve(chol, np.swapaxes(y[None, :, :] - mean[:, None, :], -1, -2))
    delta = np.sum(sol**2, axis=-2).T
    logdet_prec = -linalg.logdet_from_chol(chol)
    return (
        gammaln(0.5 * (dof + d))
        - gammaln(0.5 * dof)
        - 0.5 * d * np.log(dof * np.pi)
        + 0.5 * logdet_prec
        - 0.5 * (dof + d) * np.log1p(delta / dof)
    )


def vb_gmm_predictive_logpdf(q, y):
    """Exact per-datum log posterior-predictive density, a Student mixture."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d = y.shape[1]
    alpha = expfam.to_standard(q.weights).alpha
    log_w = np.log(alpha) - np.log(alpha.sum())
    p = expfam.to_standard(q.components)
    dof = p.dof + 1.0 - d
    if np.any(dof <= 0):
        raise ContractError("posterior dof too small for a proper predictive")
    prec = (dof * p.kappa / (1.0 + p.kappa))[:, None, None] * p.scale
    return logsumexp(log_w + _student_logpdf(y, p.mean, prec, dof), axis=1)


# ---------------------------------------------------------------------------
# Linear dynamical system EM


@dataclass(frozen=True)
class LdsEmParams:
    trans: np.ndarray  # (d, d)
    trans_cov: np.ndarray  # (d, d)
    emit: np.ndarray  # (D, d)
    emit_cov: np.ndarray  # (D, D)
    init_mean: np.ndarray  # (d,)
    init_cov: np.ndarray  # (d, d)


@dataclass(frozen=True)
class SmoothedMoments:
    """Posterior moments of a sequence or block; cross[t] is Cov(x_{t+2}, x_{t+1})."""

    mean: np.ndarray  # (T, d) or (n_seq, T, d)
    cov: np.ndarray  # (T, d, d), shared by the block
    cross: np.ndarray  # (T - 1, d, d), shared by the block
    loglik: float


def _checked_sequences(seqs, min_len=1):
    seqs = np.asarray(seqs, dtype=float)
    if seqs.ndim != 3 or seqs.shape[0] < 1 or seqs.shape[1] < min_len:
        raise ContractError(f"need (n_seq >= 1, T >= {min_len}, obs_dim) sequences")
    if not np.all(np.isfinite(seqs)):
        raise ContractError("sequence rows contain non-finite values")
    return seqs


def lds_em_init(seqs, d, seed=0):
    """Principal-direction emission, mild dynamics, observation-scale noise."""
    seqs = np.asarray(seqs, dtype=float)
    flat = seqs.reshape(-1, seqs.shape[-1])
    obs_dim = flat.shape[1]
    if d > obs_dim:
        raise ContractError("latent dimension exceeds observation dimension")
    centered = flat - flat.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scales = svals[:d] / np.sqrt(max(flat.shape[0] - 1, 1))
    emit = vt[:d].T * scales
    resid = centered - (centered @ vt[:d].T) @ vt[:d]
    emit_var = max(float(resid.var()), 1e-3)
    return LdsEmParams(
        trans=0.9 * np.eye(d),
        trans_cov=0.1 * np.eye(d),
        emit=emit,
        emit_cov=emit_var * np.eye(obs_dim),
        init_mean=np.zeros(d),
        init_cov=np.eye(d),
    )


def lds_em_filter(params, y):
    """Kalman filter for a sequence or block; returns means, covs, predictions
    and the log-likelihood, shaped as the module docstring says."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    r = np.broadcast_to(params.emit_cov, (y.shape[-2],) + params.emit_cov.shape)
    out = infnet.kalman_filter(
        params.trans, params.trans_cov, params.init_mean, params.init_cov, y, params.emit, r
    )
    loglik = float(np.sum(out["log_z"]))
    return out["mu_filt"], out["p_filt"], out["mu_pred"], out["p_pred"], loglik


def lds_em_smooth(params, y):
    """Rauch-Tung-Striebel pass with the lag-one covariances EM needs; the
    gains and covariances are computed once per step and shared by a block."""
    xf, pf, xp, pp, loglik = lds_em_filter(params, y)
    t_len, d = pf.shape[:2]
    j, _, cond = infnet.rts_gains(params.trans, pf[:-1], pp[1:])
    # x_t = xf_t + J_t (x_{t+1} - xp_{t+1}) and P_t = cond_t + J_t P_{t+1} J_t^T,
    # the latter as vec P_t = vec cond_t + (J_t kron J_t) vec P_{t+1}
    xs = xf.copy()
    xs[..., :-1, :] -= np.einsum("tij,...tj->...ti", j, xp[..., 1:, :])
    infnet.backward_chain(xs, j)
    kron = np.einsum("tik,tjl->tijkl", j, j).reshape(t_len - 1, d * d, d * d)
    ps = np.concatenate([cond, pf[-1:]]).reshape(t_len, d * d)
    ps = linalg.symmetrize(infnet.backward_chain(ps, kron).reshape(t_len, d, d))
    cross = ps[1:] @ np.swapaxes(j, -1, -2)
    return SmoothedMoments(mean=xs, cov=ps, cross=cross, loglik=loglik)


def lds_em_fit(seqs, d, n_iter=50, init=None):
    """Batch EM over whole sequences; marginal likelihood is nondecreasing.

    Each iteration smooths the block in one call; the shared covariances
    enter the sufficient statistics once per sequence.
    """
    seqs = _checked_sequences(seqs, min_len=2)
    n_seq, t_len, _ = seqs.shape
    params = lds_em_init(seqs, d) if init is None else init
    syy = np.einsum("nti,ntj->ij", seqs, seqs)
    logliks = []
    for _ in range(n_iter):
        sm = lds_em_smooth(params, seqs)
        xs = sm.mean
        logliks.append(sm.loglik)
        second = n_seq * sm.cov + np.einsum("nti,ntj->tij", xs, xs)
        s10 = n_seq * sm.cross.sum(axis=0) + np.einsum(
            "nti,ntj->ij", xs[:, 1:], xs[:, :-1]
        )
        syx = np.einsum("nti,ntj->ij", seqs, xs)
        init_mean = xs[:, 0].sum(axis=0) / n_seq

        trans = s10 @ np.linalg.inv(second[:-1].sum(axis=0))
        trans_cov = linalg.symmetrize(
            (second[1:].sum(axis=0) - trans @ s10.T) / (n_seq * (t_len - 1))
        )
        emit = syx @ np.linalg.inv(second.sum(axis=0))
        emit_cov = linalg.symmetrize((syy - emit @ syx.T) / (n_seq * t_len))
        init_cov = linalg.symmetrize(
            second[0] / n_seq - np.outer(init_mean, init_mean)
        )
        params = LdsEmParams(
            trans=trans,
            trans_cov=trans_cov,
            emit=emit,
            emit_cov=emit_cov,
            init_mean=init_mean,
            init_cov=init_cov,
        )
    return params, np.asarray(logliks)


def lds_em_loglik(params, seqs):
    """Marginal log-likelihood summed over an (n_seq, T, D) block."""
    return lds_em_filter(params, _checked_sequences(seqs))[4]


def lds_em_tau_mae(params, seqs, tau):
    """Forecast MAE: filter to t, roll the mean tau steps, emit, compare.

    The average runs over sequences, the T - tau valid origins, and every
    observed coordinate; tau = 0 degenerates to filtered reconstruction.
    """
    seqs = _checked_sequences(seqs)
    if not 0 <= tau < seqs.shape[1]:
        raise ContractError("tau must lie in [0, T)")
    xf = lds_em_filter(params, seqs)[0]
    pred = models.forecast_means(xf, params.trans, tau)
    return float(np.mean(np.abs(seqs[:, tau:] - pred @ params.emit.T)))
