"""Monte Carlo evaluation of the structured evidence bound and its gradients.

One joint draw from the posterior yields an unbiased bound estimate that
splits into five bookkeeping terms: the decoder likelihood, the entropy of
the recognition factor, the prior density at the draw, the structured-factor
density at the draw, and the log normalizer.  The first four are Monte Carlo
terms evaluated at the sample; the normalizer is exact.  Gradients reuse the
same draw.  Generative parameters see the sample directly, while the
variational vector collects the pathwise chain through the draw, the direct
dependence of both factor densities on their own parameters, and the
normalizer gradient.  Gradients through the sampled indicators are dropped.

Each estimate runs one encoder pass and one structured-factor pass (mixture
scores or a forward filter) through ``net.prepare``, and every draw comes from
that record.  With gradients, the pathwise, entropy and log-normalizer
adjoints on the encoder outputs are summed before one encoder backward pass;
without them no backward pass runs at all.  The log normalizer's adjoints
enter through the network's pathwise adjoint, so for the dynamics one filter
reverse sweep serves both.  The mixture-versus-dynamics
decisions live on the network classes in ``infnet`` and the prior classes in
``models``.

Per-datum terms are scaled by n_total over the batch size so every estimate
targets the full-data bound.  Mixture-structured batches are row arrays;
a dynamics-structured batch is one (T, data_dim) sequence, and the unit of
batching is then the whole sequence.  ``block_bound_estimate`` evaluates a
(n_seq, T, data_dim) block of sequences with one prepared pass and returns
the sum of their estimates.  Its samples are one draw stacked ahead of the
block axis: one reconstruction, one decoder pass and one density call serve
them all, the Monte Carlo terms average over the sample axis, and the exact
log normalizer enters once.
"""

from dataclasses import dataclass

import numpy as np

from . import infnet, models
from .errors import ContractError, NumericalError

LOG_2PI = np.log(2.0 * np.pi)

TERM_NAMES = (
    "decoder_term",
    "dnn_entropy_term",
    "prior_term",
    "pgm_factor_term",
    "log_z_term",
)


@dataclass(frozen=True)
class BoundEstimate:
    """Five-way split of one bound estimate; terms carry the n_total scale."""

    total: float
    decoder_term: float
    dnn_entropy_term: float
    prior_term: float
    pgm_factor_term: float
    log_z_term: float


@dataclass(frozen=True)
class GradBundle:
    """Gradient blocks for one draw, in the flat parameter-vector layouts."""

    grad_theta_nn: np.ndarray
    grad_theta_pgm: np.ndarray
    grad_phi: np.ndarray
    sample: infnet.PosteriorSample
    bound: BoundEstimate


def _prepared(model, net, batch, n_total, block=False, prep=None):
    """Checked batch, its prepared record, and the n_total / units scale.

    A ``block`` batch is (n_seq, T, data_dim); n_total None means the batch
    is the whole data set.  ``prep`` is ``net.prepare(batch)`` when the
    caller has it, and must cover the batch's rows.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != (3 if block else 2) or 0 in batch.shape[:-1]:
        shape = "(n_seq, T, data_dim)" if block else "(rows, data_dim)"
        raise ContractError(f"a batch is a nonempty {shape} array")
    units = net.batch_units(model.prior, batch)
    if model.prior.dim != net.latent_dim:
        raise ContractError("prior and posterior latent dimensions differ")
    n_total = units if n_total is None else n_total
    if n_total < units:
        raise ContractError("n_total must cover at least the batch")
    return batch, net.prepared(batch, prep), n_total / units


def _term(name, fn):
    """Evaluate one bound term, translating any numeric failure to its name.

    A broken contract (say, a decoder whose width differs from the data) is
    a caller's mistake, not divergence, and keeps its type.
    """
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except ContractError:
        raise
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"{name} is not finite") from exc
    if not np.isfinite(out[0] if isinstance(out, tuple) else out):
        raise NumericalError(f"{name} is not finite")
    return out


def _assemble(model, net, batch, prep, drawn, scale, want_grads):
    """Estimate at one draw, plus every gradient block when ``want_grads``;
    without gradients no backward pass runs.

    A draw may stack samples ahead of the batch's own axes (a block's
    (n_samples, n_seq, T+1, d)); the Monte Carlo terms then average over
    them.  Gradients take a single sample.
    """
    x = drawn.x_star
    x_rows = x[..., net.lead_rows :, :]
    m, v = prep.m, prep.v
    n_draws = x_rows.size // m.size
    decode = models.decode_loglik if want_grads else models.decode_loglik_value
    density = models.log_prior_with_grads if want_grads else models.log_prior
    # A sequence block, every sample of it, decodes as one stack of rows.
    flat = lambda a: a.reshape(-1, a.shape[-1])
    y_rows = np.broadcast_to(batch, x_rows.shape[:-1] + batch.shape[-1:])
    dec = _term("decoder_term", lambda: decode(model.decoder, flat(x_rows), flat(y_rows)))
    pri = _term("prior_term", lambda: density(model.prior, x))
    fac = _term("pgm_factor_term", lambda: density(net.factor, x))
    terms = (dec, pri, fac)  # with gradients each is (value, *gradients)
    values = [t[0] for t in terms] if want_grads else terms
    dec_val, pri_val, fac_val = (val / n_draws for val in values)
    diff = x_rows - m
    ent_logq = float(np.sum(-0.5 * (LOG_2PI + np.log(v)) - 0.5 * diff**2 / v)) / n_draws
    for name, val in (("dnn_entropy_term", -ent_logq), ("log_z_term", prep.log_z)):
        if not np.isfinite(val):
            raise NumericalError(f"{name} is not finite")
    est = BoundEstimate(
        total=scale * (dec_val - ent_logq + pri_val - fac_val + prep.log_z),
        decoder_term=scale * dec_val,
        dnn_entropy_term=-scale * ent_logq,
        prior_term=scale * pri_val,
        pgm_factor_term=-scale * fac_val,
        log_z_term=scale * prep.log_z,
    )
    if not want_grads:
        return est
    _, dec_dtheta, dec_dx = dec
    _, pri_dx, pri_dtheta = pri
    _, fac_dx, fac_dphi = fac

    # Pathwise adjoint of everything the draw feeds: decoder rows, both
    # factor densities, and the recognition entropy through x at fixed (m, v).
    g_x = pri_dx - fac_dx
    g_x[net.lead_rows :] += dec_dx + diff / v
    # The log normalizer's adjoints ride along with the pathwise ones (one
    # reverse sweep for the dynamics); the entropy's direct dependence on
    # (m, v) joins them, so the encoder runs one backward pass.
    d_m, d_v, d_factor = net.pathwise_vjp(prep, drawn, scale * g_x, scale)
    d_m = d_m - scale * diff / v
    d_v = d_v + scale * (0.5 / v - 0.5 * diff**2 / v**2)
    phi = net.phi_grad(prep, d_m, d_v, d_factor - scale * fac_dphi)

    blocks = {
        "grad_theta_nn": scale * dec_dtheta,
        "grad_theta_pgm": scale * pri_dtheta,
        "grad_phi": phi,
    }
    for name, g in blocks.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"{name} is not finite")
    return GradBundle(sample=drawn, bound=est, **blocks)


def _replayed(model, net, batch, z, eps, n_total):
    batch, prep, scale = _prepared(model, net, batch, n_total)
    z = net.checked_indicators(z, batch.shape[0])
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (batch.shape[0] + net.lead_rows, net.latent_dim):
        raise ContractError("noise must be one latent vector per latent row")
    return batch, prep, net.replay(prep, z, eps), scale


def bound_with_noise(model, net, batch, z, eps, n_total):
    """Bound estimate at fixed indicators and noise.

    This is the finite-difference-friendly entry point: with (z, eps) held,
    the estimate is a smooth function of every parameter block.
    """
    replayed = _replayed(model, net, batch, z, eps, n_total)
    return _assemble(model, net, *replayed, want_grads=False)


def _mean_estimate(ests):
    if len(ests) == 1:
        return ests[0]
    mean = lambda name: float(np.mean([getattr(e, name) for e in ests]))
    return BoundEstimate(**{name: mean(name) for name in ("total", *TERM_NAMES)})


def bound_estimate(model, net, batch, rng, n_total, n_samples=1, prep=None):
    """Single-draw bound estimate; n_samples above one averages fresh draws
    from one prepared batch, and ``prep`` is that batch's prepared pass when
    the caller has it."""
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    batch, prep, scale = _prepared(model, net, batch, n_total, prep=prep)
    return _mean_estimate([
        _assemble(model, net, batch, prep, net.draw(prep, rng), scale, want_grads=False)
        for _ in range(n_samples)
    ])


def block_bound_estimate(model, net, seqs, rng, n_samples=1, prep=None):
    """Sum over a (n_seq, T, data_dim) block of each sequence's bound
    estimate, averaged over n_samples draws; one encoder pass and one filter
    serve the whole block, and ``prep`` is that pass when the caller has it.

    The noise is one (n_seq, n_samples, T+1, d) normal block: the stream
    that ``bound_estimate(..., n_total=1, n_samples)`` on each sequence in
    turn consumes, so the two agree to rounding.  It is replayed as one
    (n_samples, n_seq, T+1, d) draw and scored by one ``_assemble`` call:
    the Monte Carlo terms average over the samples, and log Z enters once.
    """
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    seqs, prep, scale = _prepared(model, net, seqs, None, block=True, prep=prep)
    n_seq, t_len = seqs.shape[:2]
    eps = rng.standard_normal((n_seq, n_samples, t_len + net.lead_rows, net.latent_dim))
    drawn = net.replay(prep, None, eps.swapaxes(0, 1))
    return _assemble(model, net, seqs, prep, drawn, scale, want_grads=False)


def gradients_with_noise(model, net, batch, z, eps, n_total):
    """Gradient bundle for a replayed draw; shares noise with the bound."""
    replayed = _replayed(model, net, batch, z, eps, n_total)
    return _assemble(model, net, *replayed, want_grads=True)


def bound_gradients(model, net, batch, rng, n_total):
    """One-draw gradient bundle for a training step."""
    batch, prep, scale = _prepared(model, net, batch, n_total)
    return _assemble(model, net, batch, prep, net.draw(prep, rng), scale, want_grads=True)
