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
scores or a forward filter) through ``net.prepare``; every draw comes from
that record and holds the factors its pathwise adjoint reads, so a gradient
step builds them once.  With gradients, the pathwise, entropy and
log-normalizer adjoints on the encoder outputs are summed before one encoder
backward pass; without them no backward pass runs at all.  The log
normalizer's adjoints enter through the network's pathwise adjoint, so for the
dynamics one filter reverse sweep serves both.  The prior and the factor
densities at the draw come from the prior's ``paired_densities``: a mixture
makes its two calls, the dynamics score both in one stacked pass, and either
way each is its own term, with its own non-finite check and name.  The
mixture-versus-dynamics decisions live on the network classes in ``infnet``
and the prior classes in ``models``.

Per-datum terms are scaled by n_total over the batch's units so every
estimate targets the full-data bound.  A mixture's units are rows; a
dynamics model's unit is a whole sequence, and its batch is one
(T, data_dim) sequence or a (n_seq, T, data_dim) block.  ``bound_estimate``
takes any of them and all its samples from one stacked ``net.draw``, the
sample axis ahead of the batch's own axes: one reconstruction, one decoder
pass and one call per density serve every sample, the Monte Carlo terms
average over the sample axis, and the exact log normalizer enters once.
``bound_gradients`` scores one unstacked draw of rows or one sequence with
gradients; the dynamics adjoints take no block.
"""

from dataclasses import dataclass

import numpy as np

from . import infnet, models
from .errors import ContractError, NumericalError
from .models import LOG_2PI

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

    A draw may stack samples ahead of the batch's own axes, as
    ``net.draw(prep, rng, n_samples)`` gives them; the Monte Carlo terms then
    average over them.  Gradients take one unstacked draw of rows or of one
    sequence.
    """
    if want_grads and batch.ndim == 3:
        raise ContractError("gradients take rows or one (T, data_dim) sequence, not a block")
    x = drawn.x_star
    x_rows = x[..., net.lead_rows :, :]
    m, v = prep.m, prep.v
    n_draws = x_rows.size // m.size
    decode = models.decode_loglik if want_grads else models.decode_loglik_value
    # Every sample, and every sequence of a block, decodes as one stack of rows.
    flat = lambda a: a.reshape(-1, a.shape[-1])
    y_rows = np.broadcast_to(batch, x_rows.shape[:-1] + batch.shape[-1:])
    dec = _term("decoder_term", lambda: decode(model.decoder, flat(x_rows), flat(y_rows)))
    prior_density, factor_density = model.prior.paired_densities(net.factor, x, want_grads)
    pri = _term("prior_term", prior_density)
    fac = _term("pgm_factor_term", factor_density)
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


def _estimate(model, net, units, n_total, prep, draw, want_grads):
    """The estimator behind every entry point, and every check on its inputs:
    the checked units' prepared pass (``prep`` when the caller has it, which
    must cover the units: its m leads with their shape), the draw
    ``draw(prep)`` from it, and its ``_assemble`` score at the n_total / units
    scale; n_total None means the units are the whole data set."""
    units = np.asarray(units, dtype=float)
    if units.ndim not in (2, 3) or 0 in units.shape[:-1]:
        raise ContractError("a batch is a nonempty (rows, data_dim) or (n_seq, T, data_dim) array")
    n_units = net.batch_units(model.prior, units)
    if model.prior.dim != net.latent_dim:
        raise ContractError("prior and posterior latent dimensions differ")
    n_total = n_units if n_total is None else n_total
    if n_total < n_units:
        raise ContractError("n_total must cover at least the batch")
    if prep is None:
        prep = net.prepare(units)
    elif prep.m.shape[:-1] != units.shape[:-1]:
        raise ContractError(
            f"prep covers rows {prep.m.shape[:-1]}, the batch has {units.shape[:-1]}"
        )
    return _assemble(model, net, units, prep, draw(prep), n_total / n_units, want_grads)


def _replay(net, batch, z, eps):
    """The draw at fixed indicators and noise, checked against the batch."""
    *lead, rows, _ = np.shape(batch)
    z = net.checked_indicators(z, rows)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (*lead, rows + net.lead_rows, net.latent_dim):
        raise ContractError("noise must be one latent vector per latent row")
    return lambda prep: net.replay(prep, z, eps)


def bound_with_noise(model, net, batch, z, eps, n_total):
    """Bound estimate at fixed indicators and noise.

    This is the finite-difference-friendly entry point: with (z, eps) held,
    the estimate is a smooth function of every parameter block.
    """
    return _estimate(model, net, batch, n_total, None, _replay(net, batch, z, eps), False)


def gradients_with_noise(model, net, batch, z, eps, n_total):
    """Gradient bundle for a replayed draw; shares noise with the bound."""
    return _estimate(model, net, batch, n_total, None, _replay(net, batch, z, eps), True)


def bound_estimate(model, net, units, rng, n_total=None, n_samples=1, prep=None):
    """Bound estimate of mixture rows, one (T, data_dim) sequence or a
    (n_seq, T, data_dim) block (the sum of its sequences' estimates), averaged
    over ``n_samples`` draws stacked into one."""
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    draw = lambda p: net.draw(p, rng, n_samples)
    return _estimate(model, net, units, n_total, prep, draw, False)


def bound_gradients(model, net, batch, rng, n_total):
    """One-draw gradient bundle for a training step on rows or one sequence."""
    return _estimate(model, net, batch, n_total, None, lambda p: net.draw(p, rng), True)
