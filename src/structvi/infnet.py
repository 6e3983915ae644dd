"""Posterior networks built as a product of two factors.

A recognition MLP maps each observation to a diagonal Gaussian factor
N(x_n | m_n, diag(v_n)); a structured factor couples the latents, either a
Gaussian mixture over independent rows or linear dynamics over a sequence.
The product is renormalized.  A network's ``prepare`` runs one encoder pass
(keeping its tape) and one factor pass, mixture scores or a forward filter;
from that record the network exposes

  * the log normalizer of the product (closed form for the mixture, a
    forward filter for the dynamics),
  * exact joint draws (``draw``) and their replay at fixed noise (``replay``),
  * hand-written adjoints of the log normalizer and of the sampling map on
    (m, v) and the factor parameters (``log_z_vjp``, ``pathwise_vjp``), and
  * ``phi_grad``: one encoder backward pass for summed (m, v) adjoints.

A dynamics network also prepares a (B, T, D) block of sequences: one encoder
pass over its B*T rows and one filter batched over the block, from which it
draws and replays; its adjoints take one sequence.

Parameter vectors are laid out as [encoder parameters, structured-factor
parameters], the factor part ordered as in the underlying ``models`` class.

Gradient convention: discrete mixture indicators are drawn but never
differentiated; pathwise derivatives flow only through the Gaussian
conditional at fixed indicators.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, models, nnet
from .errors import ContractError, InvalidParameterError, NumericalError
from .linalg import logsumexp

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class PosteriorSample:
    """One reparameterized joint draw plus everything needed to replay it."""

    x_star: np.ndarray
    z_star: Optional[np.ndarray]
    eps: np.ndarray
    log_z: float


@dataclass
class PreparedBatch:
    """One encoder pass with its tape and one structured-factor pass."""

    m: np.ndarray
    v: np.ndarray
    tape: nnet.GradTape
    log_z: float           # summed over the sequences of a block
    record: object         # MixtureRecord or FilterRecord


class ProductNet:
    """Recognition MLP times ``factor``; subclasses supply the factor pass."""

    @property
    def latent_dim(self):
        return self.factor.dim

    @property
    def n_encoder_params(self):
        return nnet.num_params(self.encoder)

    def phi_vector(self):
        return np.concatenate(
            [nnet.param_vector(self.encoder), self.factor.param_vector()]
        )

    def with_phi_vector(self, vec):
        n = self.n_encoder_params
        return type(self)(
            self.factor.with_param_vector(vec[n:]),
            nnet.set_param_vector(self.encoder, vec[:n]),
        )

    def prepare(self, y):
        m, v, tape = _encode_with_tape(self, y)
        return PreparedBatch(m, v, tape, *self._factor_pass(m, v))

    def phi_grad(self, prep, d_m, d_v, d_factor):
        """One encoder backward pass for summed (m, v) adjoints."""
        enc_grad, _ = nnet.backward(self.encoder, prep.tape, d_m, d_v)
        return np.concatenate([enc_grad, d_factor])


@dataclass
class GmmInferenceNet(ProductNet):
    mixture: models.GaussianMixture
    encoder: nnet.Mlp
    lead_rows = 0  # latent rows before the first observed row

    @property
    def factor(self):
        return self.mixture

    def batch_units(self, prior, batch):
        if not isinstance(prior, models.GaussianMixture):
            raise ContractError("a mixture posterior needs a mixture prior")
        if batch.ndim != 2:
            raise ContractError("a mixture posterior takes rows, not sequence blocks")
        return batch.shape[0]

    def checked_indicators(self, z, n):
        z = np.asarray(z)
        if not np.issubdtype(z.dtype, np.integer):
            raise ContractError("mixture indicators must be integers")
        if z.shape != (n,) or z.min() < 0 or z.max() >= self.mixture.n_components:
            raise ContractError("indicators must be one in-range label per row")
        return z

    def _factor_pass(self, m, v):
        chol = _combined_chol(self.mixture, v)
        log_z, _, resp = aggregate_scores(gmm_scores(self.mixture, m, v, chol))
        return log_z, MixtureRecord(resp=resp, chol=chol)

    def draw(self, prep, rng):
        """Indicators from one uniform block, then one normal block for eps."""
        cum = np.cumsum(prep.record.resp, axis=1)
        u = rng.random((cum.shape[0], 1))
        z = np.minimum((u > cum).sum(axis=1), cum.shape[1] - 1)
        return self.replay(prep, z, rng.standard_normal(prep.m.shape))

    def replay(self, prep, z, eps):
        x = gmm_reconstruct(self.mixture, prep.m, prep.v, z, eps)
        return PosteriorSample(x_star=x, z_star=z, eps=eps, log_z=prep.log_z)

    def log_z_vjp(self, prep):
        rec = prep.record
        return gmm_log_z_factor_grads(self.mixture, prep.m, prep.v, rec.resp, rec.chol)

    def pathwise_vjp(self, prep, drawn, grad_x):
        return gmm_pathwise_factor_vjp(
            self.mixture, prep.m, prep.v, drawn.z_star, drawn.eps, grad_x
        )


@dataclass
class LdsInferenceNet(ProductNet):
    dynamics: models.LinearDynamics
    encoder: nnet.Mlp
    lead_rows = 1  # the initial state

    @property
    def factor(self):
        return self.dynamics

    def batch_units(self, prior, batch):
        if not isinstance(prior, models.LinearDynamics):
            raise ContractError("a dynamics posterior needs a dynamics prior")
        return batch.shape[0] if batch.ndim == 3 else 1

    def checked_indicators(self, z, n):
        if z is not None:
            raise ContractError("sequence draws have no indicators")
        return z

    def _factor_pass(self, m, v):
        record = lds_filter(self.dynamics, m, v)
        return float(np.sum(record.log_z)), record

    def draw(self, prep, rng):
        """One ([B,] T+1, d) normal block."""
        *lead, t_len, d = prep.m.shape
        return self.replay(prep, None, rng.standard_normal((*lead, t_len + 1, d)))

    def replay(self, prep, z, eps):
        x = lds_reconstruct(self.dynamics, prep.record, eps)
        return PosteriorSample(x_star=x, z_star=None, eps=eps, log_z=prep.log_z)

    def log_z_vjp(self, prep):
        return lds_log_z_factor_grads(self.dynamics, prep.record)

    def pathwise_vjp(self, prep, drawn, grad_x):
        return lds_pathwise_factor_vjp(
            self.dynamics, prep.record, drawn.x_star, drawn.eps, grad_x
        )


def init_gmm_net(k, d, data_dim, hidden=(), rng=None, activation="tanh"):
    """Mixture factor at spread-out means with unit covariances."""
    rng = np.random.default_rng() if rng is None else rng
    mixture = models.GaussianMixture(
        logits=np.zeros(k),
        means=2.0 * rng.standard_normal((k, d)),
        chol_raw=np.zeros((k, linalg.tril_size(d))),
    )
    encoder = nnet.init_mlp(
        [data_dim, *hidden, 2 * d], [activation] * len(hidden), rng
    )
    return GmmInferenceNet(mixture=mixture, encoder=encoder)


def init_lds_net(d, data_dim, hidden=(), rng=None, activation="tanh"):
    """Mildly contractive dynamics with small process noise."""
    rng = np.random.default_rng() if rng is None else rng
    dynamics = models.LinearDynamics(
        trans=0.9 * np.eye(d),
        noise_raw=linalg.raw_from_spd(0.1 * np.eye(d)),
        init_mean=np.zeros(d),
        init_raw=np.zeros(linalg.tril_size(d)),
    )
    encoder = nnet.init_mlp(
        [data_dim, *hidden, 2 * d], [activation] * len(hidden), rng
    )
    return LdsInferenceNet(dynamics=dynamics, encoder=encoder)


def _encode_with_tape(net, y):
    """One encoder pass over rows, or over a (B, T, D) block as B*T rows."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mean, var, tape = nnet.forward(net.encoder, y.reshape(-1, y.shape[-1]))
    if mean.shape[1] != net.latent_dim:
        raise ContractError(
            f"encoder emits dim {mean.shape[1]}, structured factor has dim "
            f"{net.latent_dim}"
        )
    shape = y.shape[:-1] + (net.latent_dim,)
    return mean.reshape(shape), var.reshape(shape), tape


def encode(net, y):
    """Recognition-net factor parameters (m, v) for each observation row."""
    return _encode_with_tape(net, y)[:2]


def _guarded_chol(mats, what):
    if not np.all(np.isfinite(mats)):
        raise InvalidParameterError(f"{what} contains non-finite entries")
    try:
        return linalg.cholesky_spd(mats, what)
    except NumericalError as exc:
        raise InvalidParameterError(str(exc)) from None


# ---------------------------------------------------------------------------
# Mixture-structured factor


def _combined_chol(mixture, v):
    """(n, k, d, d) Cholesky factors of diag(v_n) + Sigma_k."""
    n, d = v.shape
    s = np.broadcast_to(mixture.covs, (n, mixture.n_components, d, d)).copy()
    idx = np.arange(d)
    s[:, :, idx, idx] += v[:, None, :]
    return _guarded_chol(s, "combined mixture covariance")


@dataclass
class MixtureRecord:
    """Mixture score pass over rows."""

    resp: np.ndarray  # (n, k) indicator marginals
    chol: np.ndarray  # (n, k, d, d) Cholesky factors of diag(v_n) + Sigma_k


def gmm_scores(mixture, m, v, chol=None):
    """(n, k) log of [weight_k x N(m_n | mu_k, diag(v_n) + Sigma_k)].

    ``chol`` is ``_combined_chol(mixture, v)`` when the caller has it.
    """
    d = m.shape[1]
    if chol is None:
        chol = _combined_chol(mixture, v)
    u = m[:, None, :] - mixture.means[None, :, :]
    sol = np.linalg.solve(chol, u[..., None])[..., 0]
    quad = np.sum(sol**2, axis=-1)
    logdet = linalg.logdet_from_chol(chol)
    return mixture.log_weights()[None, :] - 0.5 * (quad + logdet + d * LOG_2PI)


def aggregate_scores(scores):
    """(total log normalizer, per-datum log normalizers, responsibilities)."""
    per_datum = logsumexp(scores, axis=1)
    resp = np.exp(scores - per_datum[:, None])
    return float(per_datum.sum()), per_datum, resp


def gmm_log_z_parts(mixture, m, v):
    return aggregate_scores(gmm_scores(mixture, m, v))


def _mixture_precisions(mixture):
    covs = mixture.covs
    if not np.all(np.isfinite(covs)):
        raise InvalidParameterError("mixture covariance contains non-finite entries")
    return np.linalg.inv(covs)


def _conditional_parts(mixture, m, v, z):
    """Indicator precisions, conditional covariance, and b with mean cov @ b."""
    pk = _mixture_precisions(mixture)[z]
    idx = np.arange(m.shape[1])
    prec = pk.copy()
    prec[:, idx, idx] += 1.0 / v
    b = m / v + np.einsum("nij,nj->ni", pk, mixture.means[z])
    return pk, np.linalg.inv(prec), b


def gmm_conditional(mixture, m, v, z):
    """Mean and covariance of x_n given indicator z_n, vectorized over rows."""
    _, cov, b = _conditional_parts(mixture, m, v, np.asarray(z, dtype=int))
    return np.einsum("nij,nj->ni", cov, b), cov


def gmm_reconstruct(mixture, m, v, z, eps):
    """Deterministic sample given indicators and noise; the pathwise map."""
    mean, cov = gmm_conditional(mixture, m, v, z)
    chol = np.linalg.cholesky(cov)
    return mean + np.einsum("nij,nj->ni", chol, eps)


def gmm_log_z_factor_grads(mixture, m, v, resp, chol):
    """Gradients of the log normalizer with respect to (m, v) and the factor.

    ``resp`` and ``chol`` are the indicator marginals and combined-covariance
    factors of the same (m, v), as the score pass keeps them.
    """
    n, d = m.shape
    idx = np.arange(d)
    u = m[:, None, :] - mixture.means[None, :, :]
    su = linalg.chol_solve(chol, u[..., None])[..., 0]
    sinv = linalg.inv_from_chol(chol)
    d_m = -np.einsum("nk,nkd->nd", resp, su)
    d_means = np.einsum("nk,nkd->kd", resp, su)
    g = 0.5 * (
        np.einsum("nk,nki,nkl->nkil", resp, su, su)
        - resp[:, :, None, None] * sinv
    )
    d_v = np.sum(g[:, :, idx, idx], axis=1)
    d_raw = linalg.tril_raw_vjp(mixture.chol_raw, d, g.sum(axis=0))
    d_logits = resp.sum(axis=0) - n * mixture.weights
    d_factor = np.concatenate([d_logits, d_means.ravel(), d_raw.ravel()])
    return d_m, d_v, d_factor


def gmm_pathwise_factor_vjp(mixture, m, v, z, eps, grad_x):
    """Adjoint of the sampling map at fixed (z, eps), batched over rows.

    Indicators carry no gradient, so the weight-logit block is zero.
    """
    n, d = m.shape
    k = mixture.n_components
    z = np.asarray(z, dtype=int)
    pk, cov, b = _conditional_parts(mixture, m, v, z)
    mu = mixture.means[z]
    chol = np.linalg.cholesky(cov)

    g = grad_x
    cov_b = linalg.cholesky_vjp(chol, g[:, :, None] * eps[:, None, :])
    cov_b += g[:, :, None] * b[:, None, :]
    b_b = np.einsum("nij,nj->ni", cov, g)
    prec_b = -np.einsum("nij,njl,nlm->nim", cov, cov_b, cov)
    d_v = -np.diagonal(prec_b, axis1=-2, axis2=-1) / v**2 - b_b * m / v**2
    d_m = b_b / v
    pk_b = prec_b + b_b[:, :, None] * mu[:, None, :]
    d_means = np.zeros((k, d))
    np.add.at(d_means, z, np.einsum("nij,nj->ni", pk, b_b))
    g_cov = np.zeros((k, d, d))
    np.add.at(g_cov, z, -np.einsum("nij,njl,nlm->nim", pk, pk_b, pk))
    d_raw = linalg.tril_raw_vjp(mixture.chol_raw, d, g_cov)
    d_factor = np.concatenate([np.zeros(k), d_means.ravel(), d_raw.ravel()])
    return d_m, d_v, d_factor


# ---------------------------------------------------------------------------
# Dynamics-structured factor


@dataclass
class FilterRecord:
    """Forward filter pass over pseudo-observations (m_t, diag(v_t)).

    Shapes are for one sequence; a filter run on a (B, T, d) block gives
    every array a leading B axis and ``log_z`` one value per sequence.
    Per-step arrays are indexed 0..T-1 for step t = index + 1; filtered
    moments carry an extra row for the initial state.
    """

    m: np.ndarray          # (T, d) pseudo-observation means
    v: np.ndarray          # (T, d) pseudo-observation variances
    mu_pred: np.ndarray    # (T, d)
    p_pred: np.ndarray     # (T, d, d)
    chol_s: np.ndarray     # (T, d, d) innovation covariance factors
    s_inv: np.ndarray      # (T, d, d) inverse innovation covariances
    resid: np.ndarray      # (T, d)
    gain: np.ndarray       # (T, d, d)
    mu_filt: np.ndarray    # (T+1, d)
    p_filt: np.ndarray     # (T+1, d, d)
    log_z: object          # float; (B,) for a block
    smoother: Optional[tuple] = None  # filled by the first draw, see _smoother_factors


def _mv(mat, vec):
    """Matrix-vector products over matching leading axes."""
    return (mat @ vec[..., None])[..., 0]


def lds_filter(dyn, m, v):
    """Kalman forward pass over one (T, d) sequence or a (B, T, d) block.

    Each step's covariances, Cholesky factor, inverse and gain are computed
    once, batched over the block.  The log normalizer accumulates per-step
    prediction-error terms for each sequence.
    """
    lead, (t_len, d) = m.shape[:-2], m.shape[-2:]
    a = dyn.trans
    q = dyn.noise_cov
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(dyn.init_cov))):
        raise InvalidParameterError("dynamics covariances contain non-finite entries")
    mu_pred, resid = np.zeros(lead + (t_len, d)), np.zeros(lead + (t_len, d))
    p_pred, chol_s, s_inv, gain = (np.zeros(lead + (t_len, d, d)) for _ in range(4))
    mu_filt = np.zeros(lead + (t_len + 1, d))
    p_filt = np.zeros(lead + (t_len + 1, d, d))
    mu_filt[..., 0, :] = dyn.init_mean
    p_filt[..., 0, :, :] = dyn.init_cov
    log_z = np.zeros(lead)
    idx = np.arange(d)
    for t in range(t_len):
        mp = mu_filt[..., t, :] @ a.T
        pp = a @ p_filt[..., t, :, :] @ a.T + q
        s = pp.copy()
        s[..., idx, idx] += v[..., t, :]
        chol = _guarded_chol(s, "innovation covariance")
        e = m[..., t, :] - mp
        sol = np.linalg.solve(chol, e[..., None])[..., 0]
        log_z += -0.5 * (
            d * LOG_2PI + linalg.logdet_from_chol(chol) + np.sum(sol**2, axis=-1)
        )
        si = linalg.inv_from_chol(chol)
        k = pp @ si
        mu_filt[..., t + 1, :] = mp + _mv(k, e)
        p_filt[..., t + 1, :, :] = pp - k @ pp
        mu_pred[..., t, :], resid[..., t, :] = mp, e
        p_pred[..., t, :, :], chol_s[..., t, :, :] = pp, chol
        s_inv[..., t, :, :], gain[..., t, :, :] = si, k
    return FilterRecord(
        m=m, v=v, mu_pred=mu_pred, p_pred=p_pred, chol_s=chol_s, s_inv=s_inv,
        resid=resid, gain=gain, mu_filt=mu_filt, p_filt=p_filt,
        log_z=log_z if lead else float(log_z),
    )


def _smoother_factors(dyn, record):
    """Per step t: the gain J of x_t on x_{t+1}, the inverse predicted
    covariance it uses and the Cholesky factor of x_t's conditional; then the
    factor of the last filtered covariance.  Each is batched over a block.
    Computed on a record's first draw and shared with its pathwise adjoint;
    passes that never draw never compute them."""
    if record.smoother is None or record.smoother[0] is not dyn:
        steps = []
        for t in range(record.m.shape[-2]):
            p_filt = record.p_filt[..., t, :, :]
            pp1 = record.p_pred[..., t, :, :]
            pp1_inv = np.linalg.inv(pp1)
            j = p_filt @ dyn.trans.T @ pp1_inv
            cov = p_filt - j @ pp1 @ np.swapaxes(j, -1, -2)
            steps.append((j, pp1_inv, linalg.cholesky_spd(cov, "conditional covariance")))
        chol_t = linalg.cholesky_spd(record.p_filt[..., -1, :, :], "filtered covariance")
        record.smoother = (dyn, steps, chol_t)
    return record.smoother[1:]


def lds_reconstruct(dyn, record, eps):
    """Backward-sampling pass as a deterministic map of the noise block.

    ``eps`` has shape (..., T+1, d), where ``...`` ends with the record's
    block axis, if any; row t is consumed for x_t.  Returns latents with the
    initial state in row 0.
    """
    t_len = record.m.shape[-2]
    steps, chol_t = _smoother_factors(dyn, record)
    x = np.zeros(eps.shape)
    x[..., t_len, :] = record.mu_filt[..., t_len, :] + _mv(chol_t, eps[..., t_len, :])
    for t in range(t_len - 1, -1, -1):
        j, _, chol = steps[t]
        back = x[..., t + 1, :] - record.mu_pred[..., t, :]
        x[..., t, :] = record.mu_filt[..., t, :] + _mv(j, back) + _mv(chol, eps[..., t, :])
    return x


def _filter_reverse(dyn, record, ext_mf, ext_pf, ext_mp, ext_pp, ext_s, ext_e):
    """Reverse sweep of a single-sequence forward filter with externally
    injected adjoints.

    Returns gradients for (m, v) and the dynamics parameter vector.
    """
    t_len, d = record.m.shape
    a = dyn.trans
    d_m = np.zeros_like(record.m)
    d_v = np.zeros_like(record.v)
    a_b = np.zeros_like(a)
    q_b = np.zeros((d, d))
    mf_c = ext_mf[t_len].copy()
    pf_c = ext_pf[t_len].copy()
    for t in range(t_len - 1, -1, -1):
        s_inv = record.s_inv[t]
        pp = record.p_pred[t]
        k_gain = record.gain[t]
        e_b = ext_e[t].copy()
        s_b = ext_s[t].copy()
        mp_b = ext_mp[t].copy()
        pp_b = ext_pp[t].copy()
        # mu_filt = mu_pred + K e
        mp_b += mf_c
        k_b = np.outer(mf_c, record.resid[t])
        e_b += k_gain.T @ mf_c
        # p_filt = p_pred - K p_pred
        pp_b += pf_c - k_gain.T @ pf_c
        k_b += -pf_c @ pp.T
        # K = p_pred s_inv
        pp_b += k_b @ s_inv
        s_b += -s_inv @ pp.T @ k_b @ s_inv
        # s = p_pred + diag(v)
        pp_b += s_b
        d_v[t] += np.diagonal(s_b)
        # e = m - mu_pred
        d_m[t] += e_b
        mp_b += -e_b
        # mu_pred = A mu_filt[t], p_pred = A p_filt[t] A^T + Q
        prev_mf = record.mu_filt[t]
        prev_pf = record.p_filt[t]
        a_b += np.outer(mp_b, prev_mf)
        a_b += pp_b @ a @ prev_pf.T + pp_b.T @ a @ prev_pf
        q_b += pp_b
        mf_c = a.T @ mp_b + ext_mf[t]
        pf_c = a.T @ pp_b @ a + ext_pf[t]
    d_dyn = np.concatenate(
        [
            a_b.ravel(),
            linalg.tril_raw_vjp(dyn.noise_raw, d, q_b),
            mf_c,
            linalg.tril_raw_vjp(dyn.init_raw, d, pf_c),
        ]
    )
    return d_m, d_v, d_dyn


def _zero_ext(t_len, d):
    return (
        np.zeros((t_len + 1, d)),
        np.zeros((t_len + 1, d, d)),
        np.zeros((t_len, d)),
        np.zeros((t_len, d, d)),
        np.zeros((t_len, d, d)),
        np.zeros((t_len, d)),
    )


def lds_log_z_factor_grads(dyn, record):
    """Gradients of a single-sequence filter's log normalizer wrt (m, v) and
    the dynamics."""
    t_len, d = record.m.shape
    ext_mf, ext_pf, ext_mp, ext_pp, ext_s, ext_e = _zero_ext(t_len, d)
    for t in range(t_len):
        se = record.s_inv[t] @ record.resid[t]
        ext_s[t] = -0.5 * (record.s_inv[t] - np.outer(se, se))
        ext_e[t] = -se
    return _filter_reverse(dyn, record, ext_mf, ext_pf, ext_mp, ext_pp, ext_s, ext_e)


def lds_pathwise_factor_vjp(dyn, record, x, eps, grad_x):
    """Adjoint of the single-sequence backward-sampling map at fixed noise.

    ``x`` is the draw ``lds_reconstruct(dyn, record, eps)``.  Reverses the
    sampling recursion in execution-reverse order, then pushes the
    accumulated filtered/predicted adjoints through the filter reverse sweep.
    """
    t_len, d = record.m.shape
    a = dyn.trans
    ext_mf, ext_pf, ext_mp, ext_pp, ext_s, ext_e = _zero_ext(t_len, d)
    x_bar = np.array(grad_x, dtype=float, copy=True)
    a_b = np.zeros_like(a)
    steps, chol_t = _smoother_factors(dyn, record)
    for t in range(t_len):
        j, pp1_inv, chol = steps[t]
        pp1 = record.p_pred[t]
        xb = x_bar[t]
        cov_b = linalg.cholesky_vjp(chol, np.outer(xb, eps[t]))
        # cov = p_filt - J pp1 J^T
        ext_pf[t] += cov_b
        j_b = -(cov_b + cov_b.T) @ j @ pp1
        pp1_b = -j.T @ cov_b @ j
        # c = mu_filt + J (x[t+1] - mu_pred)
        ext_mf[t] += xb
        back = j.T @ xb
        x_bar[t + 1] += back
        ext_mp[t] += -back
        j_b += np.outer(xb, x[t + 1] - record.mu_pred[t])
        # J = p_filt A^T pp1_inv
        ext_pf[t] += j_b @ pp1_inv.T @ a
        a_b += pp1_inv @ j_b.T @ record.p_filt[t]
        pp1_inv_b = a @ record.p_filt[t] @ j_b
        pp1_b += -pp1_inv @ pp1_inv_b @ pp1_inv
        ext_pp[t] += pp1_b
    # terminal draw x_T = mu_filt[T] + chol(p_filt[T]) eps[T]
    ext_mf[t_len] += x_bar[t_len]
    ext_pf[t_len] += linalg.cholesky_vjp(chol_t, np.outer(x_bar[t_len], eps[t_len]))
    d_m, d_v, d_dyn = _filter_reverse(
        dyn, record, ext_mf, ext_pf, ext_mp, ext_pp, ext_s, ext_e
    )
    d_dyn[: d * d] += a_b.ravel()
    return d_m, d_v, d_dyn


# ---------------------------------------------------------------------------
# Whole-network operations, each one prepared pass


def posterior_log_z(net, y):
    """Log normalizer of the product posterior and the factor-pass record."""
    prep = net.prepare(y)
    return prep.log_z, prep.record


def gmm_log_z(net, y):
    """Log normalizer of the mixture product posterior and its (n, k)
    indicator marginals."""
    log_z, record = posterior_log_z(net, y)
    return log_z, record.resp


def posterior_sample(net, y, rng):
    """Exact joint draw with its noise; RNG order as in the net's ``draw``."""
    return net.draw(net.prepare(y), rng)


def grad_log_z(net, y):
    """Gradient of the log normalizer in the network's phi layout."""
    prep = net.prepare(y)
    return net.phi_grad(prep, *net.log_z_vjp(prep))


def pathwise_grad(net, y, z, eps, grad_x):
    """Phi-layout adjoint of x*(phi) at fixed indicators (None for dynamics)
    and noise."""
    prep = net.prepare(y)
    drawn = net.replay(prep, z, eps)
    return net.phi_grad(prep, *net.pathwise_vjp(prep, drawn, grad_x))


def lds_pathwise_grad(net, y, eps, grad_x):
    """Phi-layout adjoint of the sequence draw at fixed noise."""
    return pathwise_grad(net, y, None, eps, grad_x)


lds_log_z = posterior_log_z
gmm_sample = lds_sample = posterior_sample
gmm_pathwise_grad = pathwise_grad
