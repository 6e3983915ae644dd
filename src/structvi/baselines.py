"""Classical baselines fit directly to the observations.

Two reference models live here: batch variational-Bayes EM for a conjugate
Gaussian mixture, built on the same exponential-family machinery as the
structured model, and maximum-likelihood EM for a linear dynamical system,
filtered and smoothed by the Gaussian-chain code in ``infnet`` that the
structured dynamics model uses.  Both exist to be compared against, so each
exposes an honest held-out score: the mixture reports its exact posterior
predictive density, the dynamical system its filtered multi-step forecasts.

The LDS filter and smoother take one (T, D) sequence or an (n_seq, T, D)
block.  For a time-invariant LDS the filter covariances, innovation factors
and gains, and the smoother's gains and covariances, depend only on the
parameters and T.  ``LdsEmParams`` computes them once per parameter set and
length and keeps them read-only in a per-length memo:

  * the covariance pass, ``infnet.kalman_covariances`` with the constant
    emission noise as a broadcast (T, D, D) array, including the mean
    pass's drive A K_t and chain A (I - K_t C);
  * that chain's dense (T d, T d) operator (``infnet.chain_operator``, the
    forward orientation);
  * on first smooth, the RTS gains J_t, their chain's operator, and the
    smoothed and lag-one covariances.

A warm filter call then checks its input once (shape, width and one
finite test over the block) and runs only the mean pass
``infnet.kalman_means``: two products with shared gain stacks, the
forward chain, the emission product, one product with the S_t^-1 stack,
and one log Z reduction per sequence.  A warm smooth call adds only the
smoothed-mean chain, written into the filter's fresh means, and the test
log-likelihood and tau-ahead error check their block once and call the
same pass.  Each chain is one product of the block's (n_seq, T d) means
with its operator.  Past
``infnet.CHAIN_OPERATOR_MAX_ROWS`` (long sequences or large d) no operator
is kept and the chains run through ``infnet.backward_chain``, as chains on
any gains do.  Means carry the block's leading axis, covariances are shared
(T, d, d) arrays, and log-likelihoods are block totals.

Because the block shares its parameters, its work runs as matrix products:
the mean chains and the products with the shared gain stacks run over all
sequences at once (the operators, or ``infnet.backward_chain``, and
``infnet._mv`` on shared stacks), and EM's sufficient statistics are
matmuls over the (n_seq * T) rows of the block, the second moments one
time-major batched product.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import expfam, infnet, linalg, models, updates
from .errors import ContractError
from .linalg import logsumexp
from .models import LOG_2PI


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
    """The E-step: sum_n log sum_k rho_nk, which at r = softmax(log rho) is
    E_q[log p(y, z | theta)] + H[r], and the responsibilities r."""
    log_rho = expected_component_loglik(q, y) + expfam.to_mean(q.weights).values
    total, _, resp = models.normalized(log_rho)
    return total, resp


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
        total, resp = vb_gmm_responsibilities(q, y)
        elbos.append(total - updates.kl_to_prior(q, prior))
    return VbGmmResult(posterior=q, responsibilities=resp, elbos=np.asarray(elbos))


def vb_gmm_predictive_logpdf(q, y):
    """Exact per-datum log posterior-predictive density, a Student mixture."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d = y.shape[1]
    alpha = expfam.to_standard(q.weights).alpha
    log_w = np.log(alpha) - np.log(alpha.sum())
    mean, kappa, chol_winv, nu = expfam.nw_standard(q.components.values, q.dim)
    dof = nu + 1.0 - d
    if np.any(dof <= 0):
        raise ContractError("posterior dof too small for a proper predictive")
    # the shape (1 + kappa) / (kappa dof) inv(W) has this factor
    chol = np.sqrt((1.0 + kappa) / (kappa * dof))[:, None, None] * chol_winv
    offsets = (y[None, :, :] - mean[:, None, :]).swapaxes(-1, -2)  # (k, d, n)
    quad, logdet = linalg.chol_quad(chol, offsets)
    return logsumexp(log_w + models.student_log_kernel(quad.T, logdet, d, dof), axis=1)


# ---------------------------------------------------------------------------
# Linear dynamical system EM


@dataclass(frozen=True)
class LdsEmParams:
    """LDS parameters, stored as read-only float copies.

    The observation-free part of filtering and smoothing is computed once per
    parameter set and sequence length and kept, read-only, on the instance
    (outside the dataclass fields).  The arrays cannot change, so neither can
    what was computed from them; ``dataclasses.replace`` and copies build a
    new instance with its own memo.
    """

    trans: np.ndarray  # (d, d)
    trans_cov: np.ndarray  # (d, d)
    emit: np.ndarray  # (D, d)
    emit_cov: np.ndarray  # (D, D)
    init_mean: np.ndarray  # (d,)
    init_cov: np.ndarray  # (d, d)

    def __post_init__(self):
        for f in fields(self):
            arr = np.array(getattr(self, f.name), dtype=float)
            object.__setattr__(self, f.name, linalg.read_only(arr))
        object.__setattr__(self, "_by_length", {})

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _operator(gains, forward=False):
    """``infnet.chain_operator`` of read-only gains, read-only; None where the
    chain's R k rows exceed ``infnet.CHAIN_OPERATOR_MAX_ROWS``."""
    if (len(gains) + 1) * gains.shape[-1] > infnet.CHAIN_OPERATOR_MAX_ROWS:
        return None
    return linalg.read_only(infnet.chain_operator(gains, forward))


def _covariances(params, t_len):
    """The filter's covariance pass for length t_len, with the operator of
    its forward mean chain where it is kept, memoized on params."""
    memo = params._by_length
    if t_len not in memo:
        r = np.broadcast_to(params.emit_cov, (t_len,) + params.emit_cov.shape)
        cov = infnet.kalman_covariances(
            params.trans, params.trans_cov, params.init_cov, params.emit, r
        )
        cov = {k: linalg.read_only(v) for k, v in cov.items()}
        cov["chain_operator"] = _operator(cov["chain"], forward=True)
        memo[t_len] = cov
    return memo[t_len]


def _smoother_covariances(params, t_len):
    """RTS gains J_t with the operator of their mean chain where it is kept,
    smoothed covariances P_t and lag-one covariances for length t_len, added
    to the memoized covariance pass on first use."""
    cov = _covariances(params, t_len)
    if "smooth_gain" not in cov:
        pf = cov["p_filt"]
        j, _, cond = infnet.rts_gains(params.trans, pf[:-1], cov["p_pred"][1:])
        # P_t = cond_t + J_t P_{t+1} J_t^T, a two-sided chain on d x d rows
        ps = np.concatenate([cond, pf[-1:]])
        ps = linalg.symmetrize(infnet.backward_chain(ps, j, j.swapaxes(-1, -2)))
        cross = ps[1:] @ j.swapaxes(-1, -2)
        j = linalg.read_only(j)
        cov.update(
            smooth_gain=j, smooth_operator=_operator(j),
            smooth_cov=linalg.read_only(ps), smooth_cross=linalg.read_only(cross),
        )
    return cov


@dataclass(frozen=True)
class SmoothedMoments:
    """Posterior moments of a sequence or block; cross[t] is Cov(x_{t+2}, x_{t+1})."""

    mean: np.ndarray  # (T, d) or (n_seq, T, d)
    cov: np.ndarray  # (T, d, d), shared by the block
    cross: np.ndarray  # (T - 1, d, d), shared by the block
    loglik: float


def _checked_sequences(seqs, obs_dim=None, min_len=1, block=True):
    """seqs as a float (n_seq, T, D) block, or with ``block=False`` also one
    (T, D) sequence, with T >= min_len, finite rows and, given obs_dim,
    D = obs_dim; raises ContractError otherwise."""
    seqs = np.asarray(seqs, dtype=float)
    ndims = (3,) if block else (2, 3)
    if seqs.ndim not in ndims or min(seqs.shape[:-1]) < 1 or seqs.shape[-2] < min_len:
        lead = "n_seq >= 1, " if block else "[n_seq >= 1,] "
        raise ContractError(f"need ({lead}T >= {min_len}, obs_dim) sequences")
    if obs_dim is not None and seqs.shape[-1] != obs_dim:
        raise ContractError(
            f"sequences have {seqs.shape[-1]} observed coordinates, the parameters {obs_dim}"
        )
    if not np.isfinite(seqs).all():
        raise ContractError("sequence rows contain non-finite values")
    return seqs


def lds_em_init(seqs, d):
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
    and the log-likelihood, shaped as the module docstring says.  The
    covariances are the read-only ones shared by every call on ``params``
    at this length."""
    return _filter(params, _checked_sequences(y, params.emit.shape[0], block=False))


def _filter(params, y):
    """``lds_em_filter`` of sequences ``_checked_sequences`` has passed."""
    cov = _covariances(params, y.shape[-2])
    out = infnet.kalman_means(cov, params.trans, params.init_mean, y, params.emit)
    log_z = out["log_z"]  # a numpy scalar for one sequence, whose .sum() costs more
    loglik = float(log_z if y.ndim == 2 else log_z.sum())
    return out["mu_filt"], cov["p_filt"], out["mu_pred"], cov["p_pred"], loglik


def lds_em_smooth(params, y):
    """Rauch-Tung-Striebel pass with the lag-one covariances EM needs: the
    filter, then the smoothed-mean chain x_t = xf_t + J_t (x_{t+1} - xp_{t+1})
    through the memoized gains, as one product with their operator where it
    is kept; ``cov`` and ``cross`` are shared read-only."""
    xf, pf, xp, pp, loglik = lds_em_filter(params, y)
    cov = _smoother_covariances(params, pf.shape[0])
    j = cov["smooth_gain"]
    xs = xf  # the filter's fresh means, which nothing else holds
    xs[..., :-1, :] -= infnet._mv(j, xp[..., 1:, :])
    op = cov["smooth_operator"]
    if op is None:
        infnet.backward_chain(xs, j)
    else:
        xs = xs.reshape(-1, op.shape[0]).dot(op).reshape(xs.shape)
    return SmoothedMoments(
        mean=xs, cov=cov["smooth_cov"], cross=cov["smooth_cross"], loglik=loglik
    )


def lds_em_fit(seqs, d, n_iter=50, init=None):
    """Batch EM over whole sequences; marginal likelihood is nondecreasing.

    ``d`` must be a positive integer, equal to ``init``'s latent dimension
    when ``init`` is given, and ``n_iter`` non-negative.  Each iteration
    smooths the block in one call; the shared covariances enter the
    sufficient statistics once per sequence.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ContractError(f"latent dimension must be a positive integer, got {d!r}")
    if init is not None and init.trans.shape[0] != d:
        raise ContractError(
            f"init has latent dimension {init.trans.shape[0]}, the fit asks for {d}"
        )
    if not isinstance(n_iter, (int, np.integer)) or n_iter < 0:
        raise ContractError(f"n_iter must be a non-negative integer, got {n_iter!r}")
    seqs = _checked_sequences(seqs, None if init is None else init.emit.shape[0], min_len=2)
    n_seq, t_len, obs_dim = seqs.shape
    params = lds_em_init(seqs, d) if init is None else init
    flat = seqs.reshape(n_seq * t_len, obs_dim)
    syy = flat.T @ flat
    logliks = []
    for _ in range(n_iter):
        sm = lds_em_smooth(params, seqs)
        xs = sm.mean
        logliks.append(sm.loglik)
        by_time = xs.transpose(1, 0, 2)
        second = n_seq * sm.cov + by_time.swapaxes(-1, -2) @ by_time
        s10 = n_seq * sm.cross.sum(axis=0) + (
            xs[:, 1:].reshape(-1, d).T @ xs[:, :-1].reshape(-1, d)
        )
        syx = flat.T @ xs.reshape(n_seq * t_len, d)
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
    return _filter(params, _checked_sequences(seqs, params.emit.shape[0]))[4]


def lds_em_tau_mae(params, seqs, tau):
    """Forecast MAE: filter to t, roll the mean tau steps, emit, compare.

    The average runs over sequences, the T - tau valid origins, and every
    observed coordinate; tau = 0 degenerates to filtered reconstruction.
    ``tau`` is an integer in [0, T) (``models.check_tau``).
    """
    seqs = _checked_sequences(seqs, params.emit.shape[0])
    models.check_tau(tau, seqs.shape[1])
    xf = _filter(params, seqs)[0]
    pred = models.forecast_means(xf, params.trans, tau)
    return float(np.mean(np.abs(seqs[:, tau:] - pred @ params.emit.T)))
