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
    (m, v) and the factor parameters (``log_z_vjp``, ``pathwise_vjp``; the
    latter adds a weighted copy of the former, so a gradient step needs one
    call), and
  * ``phi_grad``: one encoder backward pass for summed (m, v) adjoints.

Each network also gives ``posterior_mean``, the latents' posterior mean from
a prepared pass; ``ProductNet`` reads ``lead_rows`` from the factor and holds
the one check that a prior belongs to the factor's family.

A dynamics network also prepares a (B, T, D) block of sequences: one encoder
pass over its B*T rows and one filter batched over the block, from which it
draws and replays; its adjoints take one sequence.  ``prepare_blocks``
prepares several blocks; the dynamics network runs them through one filter,
each with its own encoder pass and its slice of the record.

The package's one Kalman filter, ``kalman_filter``, takes a dense emission.
It is two passes: ``kalman_covariances``, which reads no observation (the
covariances, gains, innovation factors and their log-determinants), then
``kalman_means``, which runs the observations through them.  The dynamics
factor's ``lds_filter`` runs both passes each time, with identity emission on
the pseudo-observations (m_t, diag v_t), because its covariances depend on
the encoder variances v.  ``baselines``' LDS-EM runs the covariance pass once
per parameter set and length and a mean pass per call.  Both share the RTS
gains and backward recursion.  The filter reverse sweep and the adjoints
assume the identity emission.

The dynamics factor has one Python loop over time with a nonlinear body:
the covariance pass's recursion (predicted covariance, innovation, its
inverse, gain, filtered covariance).  Every linear recursion over time runs
through ``backward_chain``: the filter means, the draw's
x_t = offset_t + J_t x_{t+1} and its adjoint, the filter reverse sweep's
carried adjoints, and the RTS smoother's means and covariances.  Everything
else (innovation factors, log normalizer terms, smoother gains and
conditional factors, draw offsets, per-step adjoints) is one numpy call
stacked over (..., T, d, d).

Parameter vectors are laid out as [encoder parameters, structured-factor
parameters], the factor part ordered as in the underlying ``models`` class.

Gradient convention: discrete mixture indicators are drawn but never
differentiated; pathwise derivatives flow only through the Gaussian
conditional at fixed indicators.
"""

from dataclasses import dataclass, fields
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

    def prepared(self, y, prep=None):
        """``prep`` when the caller has it, else ``prepare(y)``; a given
        ``prep`` must cover the rows of ``y`` (its m leads with y's shape)."""
        if prep is None:
            return self.prepare(y)
        if prep.m.shape[:-1] != np.shape(y)[:-1]:
            raise ContractError(
                f"prep covers rows {prep.m.shape[:-1]}, the batch has {np.shape(y)[:-1]}"
            )
        return prep

    @property
    def lead_rows(self):
        """Latent rows ahead of the first observed row, as the factor has."""
        return self.factor.lead_rows

    def batch_units(self, prior, batch):
        """Units (rows or sequences) in ``batch``, under a ``prior`` that
        must be of the factor's family."""
        if not isinstance(prior, type(self.factor)):
            raise ContractError(f"a {type(prior).__name__} prior does not fit a {type(self.factor).__name__} factor")
        return self._units(batch)

    def prepare_blocks(self, blocks):
        """``prepare`` of each block in ``blocks``."""
        return [self.prepare(b) for b in blocks]

    def phi_grad(self, prep, d_m, d_v, d_factor):
        """One encoder backward pass for summed (m, v) adjoints."""
        enc_grad, _ = nnet.backward(self.encoder, prep.tape, d_m, d_v)
        return np.concatenate([enc_grad, d_factor])


@dataclass
class GmmInferenceNet(ProductNet):
    mixture: models.GaussianMixture
    encoder: nnet.Mlp

    @property
    def factor(self):
        return self.mixture

    def _units(self, batch):
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

    def posterior_mean(self, prep):
        """E[x | y] of the prepared rows, responsibilities folded in."""
        n, k = prep.record.resp.shape
        # every (component, row) pair, component-major
        mean, _ = gmm_conditional(
            self.mixture, np.tile(prep.m, (k, 1)), np.tile(prep.v, (k, 1)),
            np.repeat(np.arange(k), n),
        )
        return np.einsum("nk,knd->nd", prep.record.resp, mean.reshape(k, n, -1))

    def log_z_vjp(self, prep):
        rec = prep.record
        return gmm_log_z_factor_grads(self.mixture, prep.m, prep.v, rec.resp, rec.chol)

    def pathwise_vjp(self, prep, drawn, grad_x, log_z_weight=0.0):
        out = gmm_pathwise_factor_vjp(
            self.mixture, prep.m, prep.v, drawn.z_star, drawn.eps, grad_x
        )
        if log_z_weight:
            lz = self.log_z_vjp(prep)
            out = tuple(p + log_z_weight * g for p, g in zip(out, lz))
        return out


@dataclass
class LdsInferenceNet(ProductNet):
    dynamics: models.LinearDynamics
    encoder: nnet.Mlp

    @property
    def factor(self):
        return self.dynamics

    def _units(self, batch):
        return batch.shape[0] if batch.ndim == 3 else 1

    def checked_indicators(self, z, n):
        if z is not None:
            raise ContractError("sequence draws have no indicators")
        return z

    def _factor_pass(self, m, v):
        record = lds_filter(self.dynamics, m, v)
        return float(np.sum(record.log_z)), record

    def prepare_blocks(self, blocks):
        """``prepare`` of each (n_i, T, D) block in ``blocks``, with one filter
        for them all.

        Each block keeps its own encoder pass, so its m, v and tape are those
        of ``prepare`` on it alone.  The filter runs once on the concatenated
        (m, v), and each block reads its slice of the record and sums its
        own log normalizer.
        """
        ms, vs, tapes = zip(*(_encode_with_tape(self, b) for b in blocks))
        if any(m.ndim != 3 or m.shape[1:] != ms[0].shape[1:] for m in ms):
            raise ContractError("stacked blocks are (n_i, T, data_dim) arrays of one T")
        record = lds_filter(self.dynamics, np.concatenate(ms), np.concatenate(vs))
        stops = np.cumsum([m.shape[0] for m in ms])
        out = []
        for m, v, tape, stop in zip(ms, vs, tapes, stops):
            part = record.block(slice(stop - m.shape[0], stop))
            out.append(PreparedBatch(m, v, tape, float(np.sum(part.log_z)), part))
        return out

    def draw(self, prep, rng):
        """One ([B,] T+1, d) normal block."""
        *lead, t_len, d = prep.m.shape
        return self.replay(prep, None, rng.standard_normal((*lead, t_len + 1, d)))

    def replay(self, prep, z, eps):
        x = lds_reconstruct(self.dynamics, prep.record, eps)
        return PosteriorSample(x_star=x, z_star=None, eps=eps, log_z=prep.log_z)

    def posterior_mean(self, prep):
        """Smoothed latent means of the prepared sequence or block, initial
        state in row 0: the zero-noise reconstruction is exactly them."""
        *lead, t_len, d = prep.m.shape
        return self.replay(prep, None, np.zeros((*lead, t_len + 1, d))).x_star

    def log_z_vjp(self, prep):
        return lds_log_z_factor_grads(self.dynamics, prep.record)

    def pathwise_vjp(self, prep, drawn, grad_x, log_z_weight=0.0):
        return lds_pathwise_factor_vjp(
            self.dynamics, prep.record, drawn.x_star, drawn.eps, grad_x, log_z_weight
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
    d_raw = linalg.tril_raw_vjp(mixture.chols, g.sum(axis=0))
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
    d_raw = linalg.tril_raw_vjp(mixture.chols, g_cov)
    d_factor = np.concatenate([np.zeros(k), d_means.ravel(), d_raw.ravel()])
    return d_m, d_v, d_factor


# ---------------------------------------------------------------------------
# Dynamics-structured factor


@dataclass
class FilterRecord:
    """``kalman_filter`` pass over pseudo-observations (m_t, diag(v_t)) with
    identity emission, as ``lds_filter`` runs it.

    Shapes are for one sequence; a filter run on a (B, T, d) block gives
    every array a leading B axis and ``log_z`` one value per sequence, so
    ``block`` slices a block record on its first axis.
    Per-step arrays are indexed 0..T-1 for step t = index + 1; filtered
    moments carry an extra row 0 for the unobserved initial state x_0.

    ``smoother`` is filled by the record's first draw (see
    ``_smoother_factors``) with ``(dyn, gain, pred_inv, chol)``, each stacked
    over time behind the record's block axis: the smoother gains J_t of x_t
    on x_{t+1} (T, d, d), the inverse predicted covariances they use
    (T, d, d), and (T+1, d, d) Cholesky factors whose rows 0..T-1 factor x_t's
    conditional covariance given x_{t+1} and whose row T factors the last
    filtered covariance.
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
    smoother: Optional[tuple] = None

    def block(self, rows):
        """The record of a block record's sequences ``rows`` (a slice): every
        field but ``smoother``, which the slice computes afresh, sliced on
        its first axis."""
        return FilterRecord(
            **{f.name: getattr(self, f.name)[rows] for f in fields(self) if f.name != "smoother"}
        )


def _mv(mat, vec):
    """Matrix-vector products over matching leading axes.

    A (T, a, b) stack shared by a (..., T, b) block runs as T products on a
    time-major view: the block's leading axes fold into one axis N first
    (so none of them can broadcast against T), the block is read as
    (T, N, b), and each step is one (N, b) @ (b, a) product.  Stacks with
    their own leading axes (per sequence), and single sequences, take one
    matrix-vector product per (..., T) entry.
    """
    if mat.ndim == 3 and vec.ndim > 2:
        rows = np.moveaxis(vec.reshape((-1,) + vec.shape[-2:]), 1, 0)
        out = np.moveaxis(rows @ _t(mat), 0, 1)
        return out.reshape(vec.shape[:-2] + out.shape[-2:])
    return (mat @ vec[..., None])[..., 0]


def _t(mats):
    """Transpose of each matrix in a stack."""
    return np.swapaxes(mats, -1, -2)


def kalman_covariances(trans, noise_cov, p1, emit, obs_cov):
    """The observation-free half of the Kalman forward pass for
    y_t = emit x_t + r_t, r_t ~ N(0, obs_cov[..., t]), from x_1's predicted
    covariance p1, with x_{t+1} = trans x_t + noise.

    Everything here takes the leading axes of ``obs_cov`` (..., T, D, D), so a
    noise shared by a block, passed as a broadcast (T, D, D) view, gives
    shared covariances.  The loop carries the covariance recursion only:
    predicted covariance, innovation S_t, one inverse of S_t, gain K_t and
    filtered covariance.  After it, one guarded Cholesky call over the stack
    of S_t gives the factors, their log-determinants and the non-finite/SPD
    check.  An S_t that is exactly singular falls back to the inverse of its
    jittered factor; one that inverts keeps its own inverse in the gain even
    where its factor needs jitter, which then reaches only the
    log-determinant.  Returns ``p_pred``, ``chol_s``, ``s_inv``, ``gain``,
    ``p_filt`` (T-row stacks, row t for step t + 1) and ``logdet_s`` as a dict.
    """
    t_len, obs_dim = obs_cov.shape[-3], obs_cov.shape[-1]
    d = trans.shape[0]
    covs = obs_cov.shape[:-2]
    p_pred, p_filt, gain = (np.zeros(covs + (d, n)) for n in (d, d, obs_dim))
    s, s_inv = (np.zeros(covs + (obs_dim, obs_dim)) for _ in range(2))
    pp = p1
    for t in range(t_len):
        p_pred[..., t, :, :] = pp
        pc = pp @ emit.T
        s[..., t, :, :] = st = emit @ pc + obs_cov[..., t, :, :]
        try:
            si = np.linalg.inv(st)
        except np.linalg.LinAlgError:
            si = linalg.inv_from_chol(_guarded_chol(st, "innovation covariance"))
        s_inv[..., t, :, :] = si
        gain[..., t, :, :] = k = pc @ si
        p_filt[..., t, :, :] = pf = pp - k @ _t(pc)
        pp = trans @ pf @ trans.T + noise_cov
    chol_s = _guarded_chol(s, "innovation covariance")
    return dict(
        p_pred=p_pred, chol_s=chol_s, s_inv=s_inv, gain=gain, p_filt=p_filt,
        logdet_s=linalg.logdet_from_chol(chol_s),
    )


def kalman_means(cov, trans, mu1, y, emit):
    """The data half of the Kalman forward pass: given ``kalman_covariances``'
    dict ``cov`` and x_1's predicted mean mu1, the means of the observations
    y (..., T, D), which may carry leading axes that ``cov`` broadcasts over.

    The predicted means are the linear chain
    mu_{t+1|t} = A (I - K_t C) mu_{t|t-1} + A K_t y_t, one ``backward_chain``
    call on time-reversed views.  Returns ``mu_pred``, ``resid``, ``mu_filt``
    and ``log_z`` (one value per sequence) as a dict.
    """
    gain, d = cov["gain"], trans.shape[0]
    mu_pred = np.empty(y.shape[:-1] + (d,))
    mu_pred[..., 0, :] = mu1
    k_prev = gain[..., :-1, :, :]
    mu_pred[..., 1:, :] = _mv(trans @ k_prev, y[..., :-1, :])
    chain = trans @ (np.eye(d) - k_prev @ emit)
    backward_chain(mu_pred[..., ::-1, :], chain[..., ::-1, :, :])
    resid = y - mu_pred @ emit.T
    mu_filt = mu_pred + _mv(gain, resid)
    quad = np.sum(resid * _mv(cov["s_inv"], resid), axis=-1)
    log_z = -0.5 * np.sum(y.shape[-1] * LOG_2PI + cov["logdet_s"] + quad, axis=-1)
    return dict(mu_pred=mu_pred, resid=resid, mu_filt=mu_filt, log_z=log_z)


def kalman_filter(trans, noise_cov, mu1, p1, y, emit, obs_cov):
    """Kalman forward pass from x_1's predicted moments (mu1, p1): the
    covariance pass ``kalman_covariances`` then the mean pass
    ``kalman_means``.  Means take the leading axes of ``y`` (..., T, D),
    covariances those of ``obs_cov`` (..., T, D, D).  ``lds_filter`` runs
    both passes on every call, since its noise comes from the encoder.
    Returns the ``FilterRecord`` fields as a dict of T-row arrays (row t for
    step t + 1), ``log_z`` one value per sequence.
    """
    cov = kalman_covariances(trans, noise_cov, p1, emit, obs_cov)
    out = dict(cov, **kalman_means(cov, trans, mu1, y, emit))
    del out["logdet_s"]
    return out


def lds_filter(dyn, m, v):
    """The model's forward pass over one (T, d) sequence or a (B, T, d) block:
    ``kalman_filter`` with identity emission and observation noise diag(v_t),
    started from the prediction of x_1 from the unobserved initial state x_0,
    whose moments the record keeps as its filtered row 0."""
    a, q, p0 = dyn.trans, dyn.noise_cov, dyn.init_cov
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p0))):
        raise InvalidParameterError("dynamics covariances contain non-finite entries")
    lead, d = m.shape[:-2], m.shape[-1]
    v_diag = np.zeros(v.shape + (d,))
    v_diag[..., np.arange(d), np.arange(d)] = v
    out = kalman_filter(a, q, dyn.init_mean @ a.T, a @ p0 @ a.T + q, m, np.eye(d), v_diag)
    for key, first in (("mu_filt", dyn.init_mean), ("p_filt", p0)):
        head = np.broadcast_to(first, lead + (1,) + first.shape)
        out[key] = np.concatenate([head, out[key]], axis=-1 - first.ndim)
    if not lead:
        out["log_z"] = float(out["log_z"])
    return FilterRecord(m=m, v=v, **out)


def rts_gains(trans, p_filt, p_pred_next):
    """Rauch-Tung-Striebel gains, stacked over time: for filtered covariances
    P_t and the predicted covariances P_{t+1|t} of the next step, returns
    J_t = P_t A^T P_{t+1|t}^-1 (the gain of x_t on x_{t+1}), the inverses
    P_{t+1|t}^-1 it uses, and x_t's covariance given x_{t+1},
    P_t - J_t P_{t+1|t} J_t^T."""
    pred_inv = np.linalg.inv(p_pred_next)
    j = p_filt @ trans.T @ pred_inv
    return j, pred_inv, p_filt - j @ p_pred_next @ _t(j)


def backward_chain(x, j):
    """x_t = x_t + J_t x_{t+1} backward over time, in place.

    ``x`` is (..., R, k) with its last row final, ``j`` the (..., R-1, k, k)
    gains; returns ``x``.  Every linear recursion over time takes this form:
    the filter means and the draw's adjoint (as forward chains, on
    time-reversed views), the draw, the filter reverse sweep, and the RTS
    smoother's means and (as vec P_t with gains J_t kron J_t) covariances.

    The loop runs on one of two views of ``x``.  Gains without leading axes,
    (R-1, k, k), are shared by the whole block: every leading axis of ``x``
    folds into one column axis N, so ``x`` is viewed as (R, k, N) and each
    step is one (k, k) @ (k, N) product.  Gains with leading axes (per
    sequence) keep one (..., k, 1) column per sequence, broadcast against
    those axes.  Where the fold cannot be a view of ``x`` (its leading axes
    are strided unevenly), the loop runs on a folded copy that is written
    back, so ``x`` is updated in place either way.
    """
    copied = False
    if j.ndim == 3:
        folded = x.reshape((-1,) + x.shape[-2:])
        copied = not np.may_share_memory(folded, x)
        cols, gains = folded.transpose(1, 2, 0), j
    else:
        cols, gains = np.moveaxis(x, -2, 0)[..., None], np.moveaxis(j, -3, 0)
    for t in range(gains.shape[0] - 1, -1, -1):
        cols[t] += gains[t] @ cols[t + 1]
    if copied:
        x[...] = folded.reshape(x.shape)
    return x


def _smoother_factors(dyn, record):
    """(gain, pred_inv, chol) of ``FilterRecord.smoother``, each one call
    stacked over time and block.  Computed on a record's first draw and
    shared with its pathwise adjoint; passes that never draw never compute
    them."""
    if record.smoother is None or record.smoother[0] is not dyn:
        j, pp1_inv, cov = rts_gains(dyn.trans, record.p_filt[..., :-1, :, :], record.p_pred)
        chol = np.concatenate(
            [
                linalg.cholesky_spd(cov, "conditional covariance"),
                linalg.cholesky_spd(record.p_filt[..., -1:, :, :], "filtered covariance"),
            ],
            axis=-3,
        )
        record.smoother = (dyn, j, pp1_inv, chol)
    return record.smoother[1:]


def lds_reconstruct(dyn, record, eps):
    """Backward-sampling pass as a deterministic map of the noise block.

    ``eps`` has shape (..., T+1, d), where ``...`` ends with the record's
    block axis, if any; row t is consumed for x_t.  Returns latents with the
    initial state in row 0.  The offsets mu_filt - J mu_pred + chol eps are
    one stacked call; the loop keeps only x_t = offset_t + J_t x_{t+1}.
    """
    t_len = record.m.shape[-2]
    j, _, chol = _smoother_factors(dyn, record)
    x = record.mu_filt + _mv(chol, eps)
    x[..., :t_len, :] -= _mv(j, record.mu_pred)
    return backward_chain(x, j)


def _filter_reverse(dyn, record, ext_mf, ext_pf, ext_mp, ext_pp, log_z_weight):
    """Reverse sweep of a single-sequence ``lds_filter`` pass, whose emission
    is the identity (``kalman_filter`` with emit = I).

    Carries the externally injected adjoints of the filtered moments
    (``ext_mf``, ``ext_pf``, (T+1, ...)) and predicted moments (``ext_mp``,
    ``ext_pp``, (T, ...)) plus ``log_z_weight`` times those of the log
    normalizer back to (m, v) and the dynamics parameter vector.  The sweep
    is linear in what it carries, so one pass serves any such sum.

    With K_t the gain, e_t the residual and se_t = S_t^-1 e_t, step t
    reverses to
        mu_pred adjoint = c_mp + (I - K_t)^T u_{t+1}
        p_pred adjoint  = c_pp + (I - K_t)^T (w_{t+1} (I - K_t) + u_{t+1} se_t^T)
    where (u_r, w_r) are the adjoints of filtered row r and c_mp, c_pp
    gather the injected adjoints.  With G_t = A^T (I - K_t)^T and
    b_t = A^T se_t, the carried adjoints form one linear chain
        u_t = ext_mf[t] + A^T c_mp[t] + G_t u_{t+1}
        w_t = ext_pf[t] + A^T c_pp[t] A + G_t u_{t+1} b_t^T + G_t w_{t+1} G_t^T
    on [u_t, vec w_t], run as one ``backward_chain`` call whose per-step gain
    [[G_t, 0], [G_t kron b_t, G_t kron G_t]] is (d + d^2) x (d + d^2); every
    other adjoint follows stacked over time.
    """
    t_len, d = record.m.shape
    a = dyn.trans
    k_gain, s_inv = record.gain, record.s_inv
    se = _mv(s_inv, record.resid)
    # log Z = sum_t -0.5 (log|S_t| + e_t^T S_t^-1 e_t) + const
    e_lz = -log_z_weight * se
    s_lz = -0.5 * log_z_weight * (s_inv - se[:, :, None] * se[:, None, :])
    c_mp = ext_mp - e_lz
    c_pp = ext_pp + s_lz
    i_k = np.eye(d) - k_gain
    i_kt = _t(i_k)
    g = a.T @ i_kt
    chain_gain = np.zeros((t_len, d + d * d, d + d * d))
    chain_gain[:, :d, :d] = g
    chain_gain[:, d:, :d] = np.einsum("tik,tj->tijk", g, se @ a).reshape(t_len, d * d, d)
    chain_gain[:, d:, d:] = np.einsum("tik,tjl->tijkl", g, g).reshape(t_len, d * d, d * d)
    carry = np.concatenate([ext_mf, ext_pf.reshape(t_len + 1, d * d)], axis=1)
    carry[:t_len, :d] += c_mp @ a
    carry[:t_len, d:] += (a.T @ c_pp @ a).reshape(t_len, d * d)
    backward_chain(carry, chain_gain)
    mf_c, pf_c = carry[0, :d], carry[0, d:].reshape(d, d)
    mf_in, pf_in = carry[1:, :d], carry[1:, d:].reshape(t_len, d, d)
    mp_b = c_mp + _mv(i_kt, mf_in)
    pp_b = c_pp + i_kt @ (pf_in @ i_k + mf_in[:, :, None] * se[:, None, :])
    kt = _t(k_gain)
    # e = m - mu_pred;  S = p_pred + diag(v)
    d_m = e_lz + _mv(kt, mf_in)
    s_b = s_lz + kt @ (pf_in @ k_gain - mf_in[:, :, None] * se[:, None, :])
    d_v = np.diagonal(s_b, axis1=-2, axis2=-1).copy()
    # mu_pred = A mu_filt[t];  p_pred = A p_filt[t] A^T + Q
    prev_mf, prev_pf = record.mu_filt[:t_len], record.p_filt[:t_len]
    a_b = np.sum(
        mp_b[:, :, None] * prev_mf[:, None, :]
        + pp_b @ a @ _t(prev_pf)
        + _t(pp_b) @ a @ prev_pf,
        axis=0,
    )
    init_chol, noise_chol = linalg.tril_from_raw(np.stack([dyn.init_raw, dyn.noise_raw]), d)
    d_dyn = np.concatenate(
        [
            a_b.ravel(),
            linalg.tril_raw_vjp(noise_chol, pp_b.sum(axis=0)),
            mf_c,
            linalg.tril_raw_vjp(init_chol, pf_c),
        ]
    )
    return d_m, d_v, d_dyn


def lds_log_z_factor_grads(dyn, record):
    """Gradients of a single-sequence filter's log normalizer wrt (m, v) and
    the dynamics."""
    t_len, d = record.m.shape
    return _filter_reverse(
        dyn, record, np.zeros((t_len + 1, d)), np.zeros((t_len + 1, d, d)),
        np.zeros((t_len, d)), np.zeros((t_len, d, d)), 1.0,
    )


def lds_pathwise_factor_vjp(dyn, record, x, eps, grad_x, log_z_weight=0.0):
    """Adjoint of the single-sequence backward-sampling map at fixed noise,
    plus ``log_z_weight`` times the log normalizer's gradient.

    ``x`` is the draw ``lds_reconstruct(dyn, record, eps)``.  The sampling
    recursion's adjoint, xbar_{t+1} += J_t^T xbar_t, is one ``backward_chain``
    call on time-reversed views; the adjoints of the smoother factors follow
    stacked over time, and one filter reverse sweep pushes them, with the
    log normalizer's, back to (m, v) and the dynamics.
    """
    t_len, d = record.m.shape
    a = dyn.trans
    j, pp1_inv, chol = _smoother_factors(dyn, record)
    jt = _t(j)
    x_bar = np.array(grad_x, dtype=float, copy=True)
    backward_chain(x_bar[::-1], jt[::-1])
    xb = x_bar[:t_len]
    back = _mv(jt, xb)
    # x_t = c_t + chol_t eps_t; row T's chol factors p_filt[T] itself
    ext_pf = linalg.cholesky_vjp(chol, x_bar[:, :, None] * eps[:, None, :])
    cov_b = ext_pf[:t_len].copy()
    # cov = p_filt - J pp1 J^T
    pp1 = record.p_pred
    j_b = -(cov_b + _t(cov_b)) @ j @ pp1
    pp1_b = -jt @ cov_b @ j
    # c = mu_filt + J (x[t+1] - mu_pred)
    j_b += xb[:, :, None] * (x[1:] - record.mu_pred)[:, None, :]
    # J = p_filt A^T pp1_inv
    p_filt = record.p_filt[:t_len]
    ext_pf[:t_len] += j_b @ _t(pp1_inv) @ a
    a_b = np.sum(pp1_inv @ _t(j_b) @ p_filt, axis=0)
    pp1_b -= pp1_inv @ (a @ p_filt @ j_b) @ pp1_inv
    # c's mean terms: mu_filt[t] (all rows, T included) and -J mu_pred
    d_m, d_v, d_dyn = _filter_reverse(
        dyn, record, x_bar, ext_pf, -back, pp1_b, log_z_weight
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


def grad_log_z(net, y):
    """Gradient of the log normalizer in the network's phi layout."""
    prep = net.prepare(y)
    return net.phi_grad(prep, *net.log_z_vjp(prep))


lds_log_z = posterior_log_z
