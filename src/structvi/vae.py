"""Plain variational autoencoder evaluated along an independent code path.

This module exists so the structured bound can be cross-checked: when the
structured factor and the model prior are both standard normal, the product
posterior collapses to a diagonal Gaussian and the structured bound must
equal the ordinary single-sample ELBO computed here.  Nothing below touches
the structured-posterior code; the chain rule is written out by hand on the
diagonal parametrization.
"""

import numpy as np

from . import nnet

LOG_2PI = np.log(2.0 * np.pi)


def product_posterior(m, v):
    """Moments of N(x|m, v) x N(x|0, 1), renormalized; all diagonal."""
    mu = m / (1.0 + v)
    s2 = v / (1.0 + v)
    return mu, s2


def elbo_and_grads(decoder, encoder, y, eps):
    """ELBO plus decoder and encoder parameter gradients, all hand-chained.

    The encoder emits (m, v); the posterior is the product of N(m, v) with
    the standard-normal prior factor, matching the collapsed structured case.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    m, v, enc_tape = nnet.forward(encoder, y)
    mu, s2 = product_posterior(m, v)
    sd = np.sqrt(s2)
    x = mu + sd * eps

    mean, var, dec_tape = nnet.forward(decoder, x)
    resid = y - mean
    loglik = np.sum(-0.5 * (LOG_2PI + np.log(var)) - 0.5 * resid**2 / var)
    log_prior = np.sum(-0.5 * (LOG_2PI + x**2))
    neg_entropy = np.sum(-0.5 * (LOG_2PI + np.log(s2)) - 0.5 * eps**2)
    elbo = float(loglik + log_prior - neg_entropy)

    # With x = mu + sd * eps substituted, the entropy term depends on s2
    # only through its log-determinant, so the pathwise part carries just
    # the decoder and prior terms.
    dec_grad, dx = nnet.backward(decoder, dec_tape, resid / var,
                                 -0.5 / var + 0.5 * resid**2 / var**2)
    dx = dx - x
    d_mu = dx
    d_s2 = dx * eps / (2.0 * sd) + 0.5 / s2
    d_m = d_mu / (1.0 + v)
    d_v = -d_mu * m / (1.0 + v) ** 2 + d_s2 / (1.0 + v) ** 2
    enc_grad, _ = nnet.backward(encoder, enc_tape, d_m, d_v)
    return elbo, dec_grad, enc_grad
