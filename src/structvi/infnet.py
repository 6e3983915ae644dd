"""Posterior networks built as a product of two factors.

A recognition MLP maps each observation to a diagonal Gaussian factor
N(x_n | m_n, diag(v_n)); a structured factor couples the latents, either a
Gaussian mixture over independent rows or linear dynamics over a sequence.
The product is renormalized.  A network's ``prepare`` runs one encoder pass
(keeping its tape) and one factor pass, mixture scores or a forward filter;
from that record the network exposes

  * the log normalizer of the product (closed form for the mixture, a
    forward filter for the dynamics),
  * exact joint draws (``draw``), one or ``n_samples`` stacked ahead of the
    batch axes, and their replay at fixed noise (``replay``), each holding
    the factors its sampling map used,
  * hand-written adjoints of the log normalizer and of the sampling map on
    (m, v) and the factor parameters (``log_z_vjp``, ``pathwise_vjp``; the
    latter reads its draw's factors and adds a weighted copy of the former,
    so a gradient step needs one call), and
  * ``phi_grad``: one encoder backward pass for summed (m, v) adjoints.

Each network also gives ``posterior_mean``, the latents' posterior mean from
a prepared pass; ``ProductNet`` reads ``lead_rows`` from the factor and holds
the one check that a prior belongs to the factor's family.

A dynamics network also prepares a (B, T, D) block of sequences: one encoder
pass over its B*T rows and one filter batched over the block, from which it
draws and replays; its adjoints take one sequence.  ``prepare_blocks``
prepares several blocks; the dynamics network runs them through one filter,
each with its own encoder pass and its slice of the record.

The package's one Kalman filter takes a dense emission, or ``emit=None``
for the identity, whose products it skips.  It is two passes:
``kalman_covariances``, which reads no observation (the covariances, gains,
innovation factors and their log-determinants), then ``kalman_means``,
which runs the observations through them.  The dynamics
factor's ``lds_filter`` runs both passes each time, with ``emit=None`` on the
pseudo-observations (m_t, diag v_t), because its covariances depend on the
encoder variances v; multiplying finite numbers by I is exact, so its record
is the one a dense identity would give.  ``baselines``' LDS-EM runs the
covariance pass once per parameter set and length with its dense emission,
and a mean pass per call.  Both share the RTS gains and backward recursion.
The filter reverse sweep and the adjoints take ``lds_filter``'s records, so
their emission is the identity.

The dynamics factor has one Python loop over time with a nonlinear body:
the covariance pass's recursion (predicted covariance, innovation, its
inverse, gain, filtered covariance).  At small d its cost is per-call
overhead, so where a step holds one matrix (one sequence, or LDS-EM's
shared noise) it multiplies by ``ndarray.dot``, which reaches the BLAS
routine that ``np.matmul`` reaches for 2-d operands, and so gives the same
bits, without the ufunc's dispatch; a block's steps keep ``np.matmul``.
Every linear recursion over time runs through ``backward_chain`` (or the
operator below that stands for it): the filter means, the draw's
x_t = offset_t + J_t x_{t+1} and its adjoint, the filter reverse sweep's
carried adjoints, and the RTS smoother's means and covariances.  Everything
else (innovation factors, log normalizer terms, smoother gains and
conditional factors, draw offsets, per-step adjoints) is one numpy call
stacked over (..., T, d, d).

A chain over R rows whose gains the block shares (one sequence, or an
LDS-EM block) runs one doubling loop of ceil(log2 R) levels, the prefix-scan
form of the recursion (as in Sarkka and Garcia-Fernandez's parallel-in-time
smoothers), vector and two-sided chains alike, while its steps are small
enough that numpy's per-call overhead sets their cost: one rule,
``doubling_pays``, bounds one step's operands.  Per-sequence gains (the
dynamics factor's blocks) and large gains keep the one R-1-step loop: their
levels would cost more products than the loop saves.  A vector chain whose
gains serve many calls (LDS-EM's fixed parameters) can instead be kept as
one dense (R k, R k) ``chain_operator``, which runs each call as one matrix
product; LDS-EM keeps its filter's and smoother's mean chains so while R k
is at most ``CHAIN_OPERATOR_MAX_ROWS``.

Axes move by ndarray methods (``swapaxes``, ``transpose``), not by
``np.moveaxis`` or ``np.swapaxes``, whose argument checks cost more than the
small stacked calls they would serve.

The mixture factor's normalizer, sum_k pi_k N(m_n | mu_k, Sigma_k + diag v_n),
is the factor's own density at per-row covariances, so its scores and their
adjoints are ``models.GaussianMixture``'s at the factors built here.

Parameter vectors are laid out as [encoder parameters, structured-factor
parameters].  The factor is a ``models`` prior class, which owns its part:
the adjoints here end at the factor's moments (weight logits, means and
covariances; or transition, noise covariance, initial mean and initial
covariance), and the factor's ``param_grad`` lays them out in its vector
through the raw-Cholesky chain rule.

Gradient convention: discrete mixture indicators are drawn but never
differentiated; pathwise derivatives flow only through the Gaussian
conditional at fixed indicators.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import linalg, models, nnet
from .errors import ContractError, InvalidParameterError, NumericalError
from .models import LOG_2PI


@dataclass
class PosteriorSample:
    """One reparameterized joint draw, the indicators and noise that replay
    it, and the factors its pathwise adjoint reads (``gmm_draw_factors`` of
    the drawn rows or ``_smoother_factors``)."""

    x_star: np.ndarray
    z_star: Optional[np.ndarray]
    eps: np.ndarray
    factors: tuple


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
        return linalg.flatten([nnet.param_vector(self.encoder), self.factor.param_vector()])

    def with_phi_vector(self, vec):
        n = self.n_encoder_params
        return type(self)(
            self.factor.with_param_vector(vec[n:]),
            nnet.set_param_vector(self.encoder, vec[:n]),
        )

    def prepare(self, y):
        m, v, tape = _encode_with_tape(self, y)
        return PreparedBatch(m, v, tape, *self._factor_pass(m, v))

    @property
    def lead_rows(self):
        """Latent rows ahead of the first observed row, as the factor has."""
        return self.factor.lead_rows

    def checked_prior(self, prior):
        """``prior``, which must be of the factor's family."""
        if not isinstance(prior, type(self.factor)):
            raise ContractError(
                f"a {type(prior).__name__} prior does not fit a {type(self.factor).__name__} factor"
            )
        return prior

    def batch_units(self, prior, batch):
        """Units (rows or sequences) in ``batch``, under a ``prior`` of the
        factor's family."""
        self.checked_prior(prior)
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
        log_z, _, resp = models.normalized(gmm_scores(self.mixture, m, v, chol))
        return log_z, MixtureRecord(resp=resp, chol=chol)

    def draw(self, prep, rng, n_samples=None):
        """Per sample, indicators from one uniform block, then one normal
        block for eps; ``n_samples`` stacks the samples ahead of the rows."""
        cum = np.cumsum(prep.record.resp, axis=1)
        z, eps = [], []
        for _ in range(n_samples or 1):
            u = rng.random((cum.shape[0], 1))
            z.append(np.minimum((u > cum).sum(axis=1), cum.shape[1] - 1))
            eps.append(rng.standard_normal(prep.m.shape))
        stack = np.stack if n_samples else (lambda draws: draws[0])
        return self.replay(prep, stack(z), stack(eps))

    def replay(self, prep, z, eps):
        """One ``gmm_reconstruct`` over every row of every stacked sample."""
        rows = lambda a: np.broadcast_to(a, eps.shape).reshape(-1, eps.shape[-1])
        m, v, flat_z = rows(prep.m), rows(prep.v), np.ravel(z)
        factors = gmm_draw_factors(self.mixture, m, v, flat_z)
        x = gmm_reconstruct(self.mixture, m, v, flat_z, rows(eps), factors)
        return PosteriorSample(x_star=x.reshape(eps.shape), z_star=z, eps=eps, factors=factors)

    def posterior_mean(self, prep):
        """E[x | y] of the prepared rows: each component's conditional mean
        cov @ b, as a draw forms it, weighted by the responsibilities."""
        n, k = prep.record.resp.shape
        # every (component, row) pair, component-major
        _, cov, b = _conditional_parts(
            self.mixture, np.tile(prep.m, (k, 1)), np.tile(prep.v, (k, 1)),
            np.repeat(np.arange(k), n),
        )
        mean = np.einsum("nij,nj->ni", cov, b)
        return np.einsum("nk,knd->nd", prep.record.resp, mean.reshape(k, n, -1))

    def log_z_vjp(self, prep):
        rec = prep.record
        return gmm_log_z_factor_grads(self.mixture, prep.m, prep.v, rec.resp, rec.chol)

    def pathwise_vjp(self, prep, drawn, grad_x, log_z_weight=0.0):
        out = gmm_pathwise_factor_vjp(self.mixture, prep.m, prep.v, drawn, grad_x)
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

    def draw(self, prep, rng, n_samples=None):
        """One ([B,] T+1, d) normal block; ``n_samples`` draws one
        ([B,] S, T+1, d) block and moves its sample axis to the front, which
        for one sequence is S successive draws."""
        *lead, t_len, d = prep.m.shape
        eps = _axis_first(rng.standard_normal((*lead, n_samples or 1, t_len + 1, d)))
        return self.replay(prep, None, eps if n_samples else eps[0])

    def replay(self, prep, z, eps):
        factors = _smoother_factors(self.dynamics, prep.record)
        x = lds_reconstruct(self.dynamics, prep.record, eps, factors)
        return PosteriorSample(x_star=x, z_star=None, eps=eps, factors=factors)

    def posterior_mean(self, prep):
        """Smoothed latent means of the prepared sequence or block, initial
        state in row 0: the zero-noise reconstruction, which reads only the
        RTS gains (see ``lds_reconstruct``)."""
        return lds_reconstruct(self.dynamics, prep.record)

    def log_z_vjp(self, prep):
        return lds_log_z_factor_grads(self.dynamics, prep.record)

    def pathwise_vjp(self, prep, drawn, grad_x, log_z_weight=0.0):
        return lds_pathwise_factor_vjp(self.dynamics, prep.record, drawn, grad_x, log_z_weight)


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
    """Mixture score pass over rows, as its score adjoints read it."""

    resp: np.ndarray  # (n, k) indicator marginals
    chol: np.ndarray  # (n, k, d, d) Cholesky factors of diag(v_n) + Sigma_k


def gmm_scores(mixture, m, v, chol=None):
    """(n, k) log of [weight_k x N(m_n | mu_k, diag(v_n) + Sigma_k)], the
    mixture's scores at ``chol``, ``_combined_chol(mixture, v)`` if None."""
    return mixture.scores(m, _combined_chol(mixture, v) if chol is None else chol)


def gmm_log_z_parts(mixture, m, v):
    return models.normalized(gmm_scores(mixture, m, v))


def _conditional_parts(mixture, m, v, z):
    """Indicator precisions, conditional covariance, and b with mean cov @ b."""
    pk = mixture.precisions[z]
    idx = np.arange(m.shape[1])
    prec = pk.copy()
    prec[:, idx, idx] += 1.0 / v
    b = m / v + np.einsum("nij,nj->ni", pk, mixture.means[z])
    return pk, np.linalg.inv(prec), b


def gmm_draw_factors(mixture, m, v, z):
    """A draw's (pk, cov, b, chol): ``_conditional_parts`` at indicators z
    and the Cholesky factor of cov, which a diverging prior can leave
    indefinite: that raises InvalidParameterError."""
    pk, cov, b = _conditional_parts(mixture, m, v, np.asarray(z, dtype=int))
    try:
        return pk, cov, b, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise InvalidParameterError(
            "mixture conditional covariance is not positive definite"
        ) from None


def gmm_reconstruct(mixture, m, v, z, eps, factors=None):
    """Deterministic sample given indicators and noise; the pathwise map,
    from ``factors``, their ``gmm_draw_factors``, when the caller has them."""
    _, cov, b, chol = factors or gmm_draw_factors(mixture, m, v, z)
    return np.einsum("nij,nj->ni", cov, b) + np.einsum("nij,nj->ni", chol, eps)


def gmm_log_z_factor_grads(mixture, m, v, resp, chol):
    """Gradients of the log normalizer with respect to (m, v) and the factor,
    the mixture's score adjoints; v moves its rows' covariance diagonals.

    ``resp`` and ``chol`` are the indicator marginals and combined-covariance
    factors of the same (m, v), as the score pass keeps them.
    """
    d_m, d_logits, d_means, g = mixture.score_adjoints(m, resp, chol)
    d_v = np.diagonal(g, axis1=-2, axis2=-1).sum(axis=1)
    return d_m, d_v, mixture.param_grad(d_logits, d_means, g.sum(axis=0))


def gmm_pathwise_factor_vjp(mixture, m, v, drawn, grad_x):
    """Adjoint of the sampling map at the fixed (z, eps) of ``drawn``, one
    unstacked draw of the rows (m, v), from the draw's factors.

    Indicators carry no gradient, so the weight-logit block is zero.
    """
    d, k = m.shape[1], mixture.n_components
    z, eps, g = drawn.z_star, drawn.eps, grad_x
    pk, cov, b, chol = drawn.factors
    mu = mixture.means[z]

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
    return d_m, d_v, mixture.param_grad(np.zeros(k), d_means, g_cov)


# ---------------------------------------------------------------------------
# Dynamics-structured factor


@dataclass
class FilterRecord:
    """Kalman pass over pseudo-observations (m_t, diag(v_t)) with identity
    emission, ``emit=None``, as ``lds_filter`` runs it.

    Shapes are for one sequence; a filter run on a (B, T, d) block gives
    every array a leading B axis and ``log_z`` one value per sequence, so
    ``block`` slices a block record on its first axis.
    Per-step arrays are indexed 0..T-1 for step t = index + 1; filtered
    moments carry an extra row 0 for the unobserved initial state x_0.
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

    def block(self, rows):
        """The record of a block record's sequences ``rows`` (a slice): every
        field sliced on its first axis."""
        return FilterRecord(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def _mv(mat, vec):
    """Matrix-vector products over matching leading axes.

    A (T, a, b) stack shared by a (..., T, b) block runs as T products on a
    time-major view: the block's leading axes fold into one axis N first
    (by their product, so a block of empty time slices folds too; none of
    them can broadcast against T), the block is read as
    (T, N, b), and each step is one (N, b) @ (b, a) product.  Stacks with
    their own leading axes (per sequence), and single sequences, take one
    matrix-vector product per (..., T) entry.
    """
    if mat.ndim == 3 and vec.ndim > 2:
        rows = vec.reshape((math.prod(vec.shape[:-2]),) + vec.shape[-2:]).transpose(1, 0, 2)
        out = (rows @ _t(mat)).transpose(1, 0, 2)
        return out.reshape(vec.shape[:-2] + out.shape[-2:])
    return (mat @ vec[..., None])[..., 0]


def _t(mats):
    """Transpose of each matrix in a stack."""
    return mats.swapaxes(-1, -2)


def _axis_first(a):
    """View of ``a`` with its axis -3 (time, or a draw's sample axis) first:
    ``np.moveaxis(a, -3, 0)`` as one transpose, without its argument checks."""
    lead = a.ndim - 3
    return a.transpose(lead, *range(lead), lead + 1, lead + 2)


def kalman_covariances(trans, noise_cov, p1, emit, obs_cov):
    """The observation-free half of the Kalman forward pass for
    y_t = emit x_t + r_t, r_t ~ N(0, obs_cov[..., t]), from x_1's predicted
    covariance p1, with x_{t+1} = trans x_t + noise.  ``emit=None`` is the
    identity (D = d): the loop skips its two products with it, and the chain
    its product with the gains.

    Everything here takes the leading axes of ``obs_cov`` (..., T, D, D), so a
    noise shared by a block, passed as a broadcast (T, D, D) view, gives
    shared covariances.  The loop carries the covariance recursion only:
    predicted covariance, innovation S_t, one inverse of S_t, gain K_t and
    filtered covariance, each step writing into its row of the returned
    stacks, and no prediction past the last step, which nothing reads.  After
    it, one guarded Cholesky call over the stack of S_t gives the factors,
    their log-determinants and the non-finite/SPD check.  An S_t that is
    exactly singular falls back to the inverse of its jittered factor; one
    that inverts keeps its own inverse in the gain even where its factor
    needs jitter, which then reaches only the log-determinant.  Returns
    ``p_pred``, ``chol_s``, ``s_inv``, ``gain``, ``p_filt`` (T-row stacks,
    row t for step t + 1), ``logdet_s``, and the mean pass's drive A K_t and
    chain A (I - K_t C) (T-1 rows) as a dict.

    When each step holds one matrix (``obs_cov`` is (T, D, D): one sequence,
    or LDS-EM's shared noise), the loop multiplies by ``np.ndarray.dot``,
    which skips the ufunc dispatch that is half of a 2 x 2 ``np.matmul``'s
    cost; a block keeps ``np.matmul``.  numpy runs a 2-d float product
    through the same BLAS routine either way, so the bits are the same.
    ``dot`` checks the floating-point status as the ufunc does, so an
    overflow warns (as "in dot") and ``np.errstate`` governs it on both
    routes; a non-finite S_t raises InvalidParameterError on both, from the
    guarded Cholesky.
    """
    t_len, obs_dim = obs_cov.shape[-3], obs_cov.shape[-1]
    d = trans.shape[0]
    covs = obs_cov.shape[:-2]
    p_pred, p_filt, gain = (np.zeros(covs + (d, n)) for n in (d, d, obs_dim))
    s, s_inv = (np.zeros(covs + (obs_dim, obs_dim)) for _ in range(2))
    # time-major views: step t reads and writes row t of every stack
    pp_t, pf_t, k_t, s_t, si_t, r_t = (
        _axis_first(a) for a in (p_pred, p_filt, gain, s, s_inv, obs_cov)
    )
    # a one-matrix step's rows are C-contiguous, as dot's out= needs
    mm = np.ndarray.dot if obs_cov.ndim == 3 else np.matmul
    trans_t = trans.T
    emit_t = None if emit is None else emit.T
    pp_t[:1] = p1
    for t in range(t_len):
        pp = pp_t[t]
        pc = pp if emit is None else mm(pp, emit_t)
        st = np.add(pc if emit is None else mm(emit, pc), r_t[t], out=s_t[t])
        try:
            si = np.linalg.inv(st)
        except np.linalg.LinAlgError:
            si = linalg.inv_from_chol(_guarded_chol(st, "innovation covariance"))
        si_t[t] = si
        k = mm(pc, si, out=k_t[t])
        pf = np.subtract(pp, mm(k, pc.swapaxes(-1, -2)), out=pf_t[t])
        if t + 1 < t_len:
            np.add(mm(mm(trans, pf), trans_t), noise_cov, out=pp_t[t + 1])
    chol_s = _guarded_chol(s, "innovation covariance")
    k_prev = gain[..., :-1, :, :]
    return dict(
        p_pred=p_pred, chol_s=chol_s, s_inv=s_inv, gain=gain, p_filt=p_filt,
        logdet_s=linalg.logdet_from_chol(chol_s),
        drive=trans @ k_prev,
        chain=trans @ (np.eye(d) - (k_prev if emit is None else k_prev @ emit)),
    )


def kalman_means(cov, trans, mu1, y, emit):
    """The data half of the Kalman forward pass: given ``kalman_covariances``'
    dict ``cov`` and x_1's predicted mean mu1, the means of the observations
    y (..., T, D), which may carry leading axes that ``cov`` broadcasts over.

    The predicted means are the linear chain
    mu_{t+1|t} = A (I - K_t C) mu_{t|t-1} + A K_t y_t, with ``cov``'s chain
    and drive, one ``backward_chain`` call on time-reversed views;
    ``emit=None``, as in ``kalman_covariances``, skips C mu_pred.  A ``cov``
    that holds the chain's forward ``chain_operator`` under that key (not
    None) runs the chain as one product with it instead.  Returns
    ``mu_pred``, ``resid``, ``mu_filt`` and ``log_z`` (one value per
    sequence) as a dict.

    Each sequence's log Z is one reduction over its T D contiguous entries
    of e_t * S_t^-1 e_t, plus the sum of its T log|S_t| and the constant
    T D log 2 pi, so a block's value for a sequence is summed exactly as a
    call on that sequence alone sums it.  A single (T, D) sequence takes its
    emission product as one 2-d ``ndarray.dot``, which skips the ufunc
    dispatch of ``np.matmul`` and runs the same BLAS routine; a block keeps
    ``np.matmul``, whose per-sequence products a folded 2-d product would
    round differently.
    """
    mu_pred = np.empty(y.shape[:-1] + (trans.shape[0],))
    mu_pred[..., 0, :] = mu1
    mu_pred[..., 1:, :] = _mv(cov["drive"], y[..., :-1, :])
    op = cov.get("chain_operator")
    if op is None:
        backward_chain(mu_pred[..., ::-1, :], cov["chain"][..., ::-1, :, :])
    else:
        mu_pred = mu_pred.reshape(-1, op.shape[0]).dot(op).reshape(mu_pred.shape)
    if emit is None:
        resid = y - mu_pred
    else:
        resid = y - (mu_pred.dot(emit.T) if y.ndim == 2 else mu_pred @ emit.T)
    mu_filt = mu_pred + _mv(cov["gain"], resid)
    quad = (resid * _mv(cov["s_inv"], resid)).reshape(y.shape[:-2] + (-1,)).sum(-1)
    log_z = -0.5 * (y.shape[-2] * y.shape[-1] * LOG_2PI + cov["logdet_s"].sum(-1) + quad)
    return dict(mu_pred=mu_pred, resid=resid, mu_filt=mu_filt, log_z=log_z)


def lds_filter(dyn, m, v):
    """The model's forward pass over one (T, d) sequence or a (B, T, d) block:
    ``kalman_covariances`` then ``kalman_means``, with identity emission
    (``emit=None``) and observation noise diag(v_t), started from the
    prediction of x_1 from the unobserved initial state x_0, whose moments
    the record keeps as its filtered row 0.  The dynamics' covariances are
    ``dyn.covs``, which raise on overflow.  A diverging transition overflows
    the predicted covariances without a warning, and the innovation factor's
    guard raises InvalidParameterError."""
    a = dyn.trans
    p0, q = dyn.covs
    lead, d = m.shape[:-2], m.shape[-1]
    v_diag = np.zeros(v.shape + (d,))
    v_diag[..., np.arange(d), np.arange(d)] = v
    with np.errstate(over="ignore", invalid="ignore"):
        cov = kalman_covariances(a, q, a @ p0 @ a.T + q, None, v_diag)
        out = dict(cov, **kalman_means(cov, a, dyn.init_mean @ a.T, m, None), m=m, v=v)
    for key, first in (("mu_filt", dyn.init_mean), ("p_filt", p0)):
        head = np.broadcast_to(first, lead + (1,) + first.shape)
        out[key] = np.concatenate([head, out[key]], axis=-1 - first.ndim)
    if not lead:
        out["log_z"] = float(out["log_z"])
    return FilterRecord(**{f.name: out[f.name] for f in fields(FilterRecord)})


def rts_gains(trans, p_filt, p_pred_next):
    """Rauch-Tung-Striebel gains, stacked over time: for filtered covariances
    P_t and the predicted covariances P_{t+1|t} of the next step, returns
    J_t = P_t A^T P_{t+1|t}^-1 (the gain of x_t on x_{t+1}), the inverses
    P_{t+1|t}^-1 it uses, and x_t's covariance given x_{t+1},
    P_t - J_t P_{t+1|t} J_t^T."""
    pred_inv = np.linalg.inv(p_pred_next)
    j = p_filt @ trans.T @ pred_inv
    return j, pred_inv, p_filt - j @ p_pred_next @ _t(j)


# A shared-gain chain runs in doubling levels while one step's operands, the
# k x k gain and the k x m rows (for a two-sided chain also the m x m right
# gain), hold at most this many numbers.  There a step costs about one numpy
# call whatever its size, so ceil(log2 R) stacked calls beat R-1 small ones;
# past it the levels' extra products cost more.
# Measured on a 2-vCPU host at R = 21: k = 2 doubles up to m = 126 and wins
# to about m = 128; at k = 32 building the levels alone costs more than the
# whole loop.  Two-sided, (k, m) = (2, 3) ran in 24 us against the loop's
# 43, (8, 9) in 37 against 46, and (16, 17) lost, 69 against 52.
DOUBLING_MAX_OPERANDS = 256

# A fitted LDS keeps each mean chain as one (R k, R k) ``chain_operator``
# while the chain's R k rows number at most this.  A warm chain is then one
# product in place of ceil(log2 R) levels or R-1 steps, but every parameter
# set builds its two operators, in O(R^2 k^3), and an EM fit smooths each
# set once.  Measured on a 2-vCPU host, one EM iteration on 35 sequences
# against cached doubling levels read 0.94-0.98x at (d, T) = (2, 20),
# 0.95-1.06x at R k = 80, 0.91-1.09x at (5, 20), and 1.04-1.38x at
# (6, 20), (8, 20), (10, 20), (12, 20) and (4, 64), 1.5x at (16, 16).  A warm
# one-sequence filter and smooth read 0.44-0.67x at every one of those
# sizes, so a fit that skipped the build could take a larger bound.  Within
# it the product beat ``backward_chain`` on blocks of up to 1000 sequences.
CHAIN_OPERATOR_MAX_ROWS = 80


def doubling_pays(k, m, two_sided=False):
    """Whether ``backward_chain`` runs a chain on shared k x k gains in
    doubling levels: one step's operands, the gain and a k x m row (for a
    two-sided chain also the m x m right gain), hold at most
    ``DOUBLING_MAX_OPERANDS`` numbers."""
    return k * k + k * m + (m * m if two_sided else 0) <= DOUBLING_MAX_OPERANDS


def chain_operator(j, forward=False):
    """The (R k, R k) matrix M of the vector chain on shared gains ``j``
    (R-1, k, k): for (..., R, k) rows x, ``backward_chain(x, j)`` is
    ``x.reshape(-1, R k) @ M``, or with ``forward`` the forward chain
    X_{t+1} = X_{t+1} + J_t X_t, which ``backward_chain`` runs on
    time-reversed views of x and ``j``.

    Block (s, t) of M is the transpose of X_t's coefficient on x_s, the
    product J_t ... J_{s-1} (forward: J_{t-1} ... J_s) where the chain
    reaches row t from row s, the identity at s = t, and 0 elsewhere.  It is
    built as R-1 ``ndarray.dot`` updates of the coefficient rows on an
    identity, each row block from its neighbour's, so M costs O(R^2 k^3)
    and (R k)^2 numbers: it pays only while R k is small
    (``CHAIN_OPERATOR_MAX_ROWS``), for gains that serve many chains.
    """
    r, k = len(j) + 1, j.shape[-1]
    # row block t of the coefficients: X_t = sum_s phi[t, :, s k:(s+1) k] x_s
    phi = np.eye(r * k).reshape(r, k, r * k)
    if forward:
        for t in range(r - 1):
            s = (t + 1) * k
            phi[t + 1, :, :s] = j[t].dot(phi[t, :, :s])
    else:
        for t in range(r - 2, -1, -1):
            s = (t + 1) * k
            phi[t, :, s:] = j[t].dot(phi[t + 1, :, s:])
    return phi.reshape(r * k, r * k).T


def backward_chain(x, j, right=None):
    """X_t = X_t + J_t X_{t+1} R_t backward over time, in place.

    ``x`` holds (..., R, k) vector rows, or with ``right`` (..., R, k, m)
    matrix rows, its last row final; ``j`` holds the (..., R-1, k, k) gains
    J_t and ``right`` the (..., R-1, m, m) gains R_t; returns ``x``.  Every
    linear recursion over time takes this form: on vectors, the filter means
    and the draw's adjoint (as forward chains, on time-reversed views), the
    draw and the RTS smoother's means; on matrices, the RTS smoother's
    covariances (R_t = J_t^T) and the filter reverse sweep.

    Vector rows with gains shared by the block, (R-1, k, k), fold every
    leading axis of ``x`` into one column axis m, an (R, k, m) view (or a
    folded copy written back where the leading axes are strided unevenly).
    A chain on one (R, k, m) stack whose gains are shared runs in
    ceil(log2 R) doubling levels where ``doubling_pays``: level l, with
    s = 2^l, adds L_t X_{t+s} R'_t to every row t < R-s as one stacked
    update, where L_t = J_t ... J_{t+s-1} and R'_t = R_{t+s-1} ... R_t, and
    builds the next level's products from this one's.  After level l each
    row holds the chain's terms from up to 2^(l+1) rows ahead, so the last
    level leaves the chain's sum.

    Every other chain runs the R-1-step loop on time-first views (a vector
    is a (k, 1) column), broadcast against the gains' leading axes: large
    gains or many columns, whose levels' extra products cost more than the
    loop's calls; per-sequence gains, whose levels for every sequence
    measured slower than the loop on blocks of 16 sequences; and a two-sided
    chain on a block of stacks, which no caller runs.
    """
    two_sided, copied = right is not None, False
    if not two_sided and j.ndim == 3:
        folded = x.reshape((-1,) + x.shape[-2:])
        copied = not np.may_share_memory(folded, x)
        cols = folded.transpose(1, 2, 0)
    else:
        cols = _axis_first(x if two_sided else x[..., None])
    shared = j.ndim == cols.ndim == 3 and (not two_sided or right.ndim == 3)
    if shared and doubling_pays(*cols.shape[1:], two_sided):
        left, s = j, 1
        while s < len(cols):
            step = left @ cols[s:]
            cols[:-s] += step @ right if two_sided else step
            if 2 * s < len(cols):
                left = left[:-s] @ left[s:]
                right = right[s:] @ right[:-s] if two_sided else None
            s *= 2
    else:
        gains = _axis_first(j)
        for t in range(gains.shape[0] - 1, -1, -1):
            step = gains[t] @ cols[t + 1]
            cols[t] += step @ right[..., t, :, :] if two_sided else step
    if copied:
        x[...] = folded.reshape(x.shape)
    return x


def _smoother_factors(dyn, record):
    """A dynamics draw's factors, each one call stacked over time behind the
    record's block axis: the smoother gains J_t of x_t on x_{t+1} (T, d, d),
    the inverse predicted covariances they use (T, d, d), and (T+1, d, d)
    Cholesky factors, one call, whose rows 0..T-1 factor x_t's conditional
    covariance given x_{t+1} and whose row T the last filtered covariance."""
    j, pp1_inv, cov = rts_gains(dyn.trans, record.p_filt[..., :-1, :, :], record.p_pred)
    covs = np.concatenate([cov, record.p_filt[..., -1:, :, :]], axis=-3)
    return j, pp1_inv, linalg.cholesky_spd(covs, "smoother covariance")


def lds_reconstruct(dyn, record, eps=None, factors=None):
    """Backward-sampling pass as a deterministic map of the noise block.

    ``eps`` has shape (..., T+1, d), where ``...`` ends with the record's
    block axis, if any; row t is consumed for x_t.  Returns latents with the
    initial state in row 0.  The offsets mu_filt - J mu_pred + chol eps are
    one stacked call; the loop keeps only x_t = offset_t + J_t x_{t+1}.
    ``factors`` are the record's ``_smoother_factors`` when the caller has them.

    ``eps=None`` is the zero-noise map, the smoothed means.  It needs only
    ``rts_gains``' J, with no conditional factors and no product with a zero
    noise block.  Its result equals that of zero noise.
    """
    t_len = record.m.shape[-2]
    if eps is not None:
        j, _, chol = factors or _smoother_factors(dyn, record)
        x = record.mu_filt + _mv(chol, eps)
    else:
        j = rts_gains(dyn.trans, record.p_filt[..., :-1, :, :], record.p_pred)[0]
        x = record.mu_filt.copy()
    x[..., :t_len, :] -= _mv(j, record.mu_pred)
    return backward_chain(x, j)


def _filter_reverse(dyn, record, ext_mf, ext_pf, ext_mp, ext_pp, ext_a, log_z_weight):
    """Reverse sweep of a single-sequence ``lds_filter`` pass, whose emission
    is the identity (``emit=None``).

    Carries the externally injected adjoints of the filtered moments
    (``ext_mf``, ``ext_pf``, (T+1, ...)), predicted moments (``ext_mp``,
    ``ext_pp``, (T, ...)) and transition (``ext_a``) plus ``log_z_weight``
    times those of the log normalizer back to (m, v) and the dynamics
    parameter vector, which ``dyn.param_grad`` lays out.  The sweep is linear
    in what it carries, so one pass serves any such sum.

    With K_t the gain, e_t the residual and se_t = S_t^-1 e_t, step t
    reverses to
        mu_pred adjoint = c_mp + (I - K_t)^T u_{t+1}
        p_pred adjoint  = c_pp + (I - K_t)^T (w_{t+1} (I - K_t) + u_{t+1} se_t^T)
    where (u_r, w_r) are the adjoints of filtered row r and c_mp, c_pp
    gather the injected adjoints.  With G_t = A^T (I - K_t)^T and
    b_t = A^T se_t, the carried adjoints form one linear chain
        u_t = ext_mf[t] + A^T c_mp[t] + G_t u_{t+1}
        w_t = ext_pf[t] + A^T c_pp[t] A + G_t (w_{t+1} G_t^T + u_{t+1} b_t^T)
    on Z_t = [w_t | u_t], d x (d+1), run as one two-sided ``backward_chain``
    call Z_t += G_t Z_{t+1} H_t with H_t = [[G_t^T, 0], [b_t^T, 1]]; every
    other adjoint follows stacked over time.  An injected adjoint may be 0.
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
    right, carry = np.zeros((t_len, d + 1, d + 1)), np.zeros((t_len + 1, d, d + 1))
    right[:, :d, :d], right[:, d, :d], right[:, d, d] = i_k @ a, se @ a, 1.0
    carry[..., :d], carry[..., d] = ext_pf, ext_mf
    carry[:t_len] += a.T @ np.concatenate([c_pp @ a, c_mp[:, :, None]], axis=2)
    backward_chain(carry, a.T @ i_kt, right)
    pf_c, mf_c = carry[0, :, :d], carry[0, :, d]
    pf_in, mf_in = carry[1:, :, :d], carry[1:, :, d]
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
    return d_m, d_v, dyn.param_grad(a_b + ext_a, pp_b.sum(axis=0), mf_c, pf_c)


def lds_log_z_factor_grads(dyn, record):
    """Gradients of a single-sequence filter's log normalizer wrt (m, v) and
    the dynamics."""
    return _filter_reverse(dyn, record, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def lds_pathwise_factor_vjp(dyn, record, drawn, grad_x, log_z_weight=0.0):
    """Adjoint of the single-sequence backward-sampling map at the noise of
    ``drawn``, an unstacked draw from ``record`` whose x and factors it
    reads, plus ``log_z_weight`` times the log normalizer's gradient.

    The sampling recursion's adjoint, xbar_{t+1} += J_t^T xbar_t, is one
    ``backward_chain`` call on time-reversed views; the adjoints of the
    smoother factors follow stacked over time, and one filter reverse sweep
    pushes them, with the log normalizer's, back to (m, v) and the dynamics.
    """
    t_len = record.m.shape[0]
    a = dyn.trans
    x, eps = drawn.x_star, drawn.eps
    j, pp1_inv, chol = drawn.factors
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
    return _filter_reverse(dyn, record, x_bar, ext_pf, -back, pp1_b, a_b, log_z_weight)


# ---------------------------------------------------------------------------
# Whole-network operations, each one prepared pass


def lds_log_z(net, y):
    """Log normalizer of the product posterior and the factor-pass record,
    for either network."""
    prep = net.prepare(y)
    return prep.log_z, prep.record


def gmm_log_z(net, y):
    """Log normalizer of the mixture product posterior and its (n, k)
    indicator marginals."""
    log_z, record = lds_log_z(net, y)
    return log_z, record.resp


def grad_log_z(net, y):
    """Gradient of the log normalizer in the network's phi layout."""
    prep = net.prepare(y)
    return net.phi_grad(prep, *net.log_z_vjp(prep))
