"""Parameter-update rules.

Four families of update live here:

* natural-gradient steps on the conjugate posterior over mixture parameters
  (a convex combination in natural coordinates, which at step size one and
  full-batch statistics IS the exact conjugate posterior);
* plain and adagrad ascent steps for network and inference-net parameters
  (adagrad's state is one accumulator array, which a step replaces);
* the variational optimizer that maintains a Gaussian search distribution
  whose variance contracts as curvature accumulates;
* Gaussian coordinate-wise posteriors over network weights.

Sign conventions: sgd/adagrad ascend (callers pass bound gradients), van_step
descends (callers pass gradients of a loss), and bayes_nn_step follows the
natural-parameter convex combination, so zero likelihood gradients pull the
posterior to its prior.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expfam, linalg
from .errors import ContractError, InvalidParameterError

NG_MAX_HALVINGS = 10


@dataclass(frozen=True)
class PgmPosterior:
    """Dirichlet block over the K weights plus every component's
    Normal-Wishart block, stacked as one (K, d*d + d + 2) natural array.

    The flat layout is the Dirichlet block, then the component blocks in
    order.  ``standard``, the components' checked standard form, is computed
    once per posterior: the domain check that admits a natural-gradient step's
    result computes it, and that posterior's draws and mean read it.
    """

    weights: expfam.NaturalParamVector
    components: expfam.NaturalParamVector

    @property
    def n_components(self):
        return self.weights.dim

    @property
    def dim(self):
        return self.components.dim

    def flat_values(self):
        return linalg.flatten([self.weights.values, self.components.values])

    def with_flat_values(self, flat):
        blocks = (self.weights, self.components)
        values = linalg.unflatten(flat, [b.values.shape for b in blocks])
        return PgmPosterior(*(b.replace_values(v) for b, v in zip(blocks, values)))

    @cached_property
    def standard(self):
        """``expfam.nw_standard`` of the components, read-only; raises
        InvalidParameterError outside the domain."""
        standard = expfam.nw_standard(self.components.values, self.dim)
        return tuple(map(linalg.read_only, standard))

    def in_domain(self):
        if not expfam.in_natural_domain(self.weights):
            return False
        try:
            self.standard
        except InvalidParameterError:
            return False
        return True


def default_gmm_prior(k, d, alpha0=1.0, kappa0=0.1):
    """Weakly informative conjugate prior used everywhere by default: mean 0,
    scale I and d + 2 degrees of freedom for every component."""
    weights = expfam.to_natural_vector(expfam.DirichletParam(alpha=np.full(k, alpha0)))
    comp = expfam.to_natural_vector(
        expfam.NormalWishartParam(mean=np.zeros(d), kappa=kappa0, scale=np.eye(d), dof=d + 2.0)
    )
    comps = comp.replace_values(np.tile(comp.values, (k, 1)))
    return PgmPosterior(weights=weights, components=comps)


def responsibilities_matrix(z, k, n):
    """Hard labels or row-normalized responsibilities -> (n, k) matrix."""
    z = np.asarray(z)
    if z.ndim == 1:
        if z.size != n:
            raise ContractError("label vector length mismatch")
        zi = z.astype(int)
        if np.any(zi < 0) or np.any(zi >= k):
            raise ContractError("labels must lie in [0, K)")
        return np.eye(k)[zi]
    if z.shape != (n, k):
        raise ContractError("responsibility matrix shape mismatch")
    return np.asarray(z, dtype=float)


def gmm_statistics(x, z, k):
    """Flat sufficient statistics of rows ``x`` at hard labels or (n, k)
    responsibilities ``z``, in ``PgmPosterior``'s layout: the k counts, then
    each component's (weighted sum, count, weighted scatter, count)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    resp = responsibilities_matrix(z, k, x.shape[0])
    counts = resp.sum(axis=0)
    sums = resp.T @ x
    scatters = np.einsum("nj,ni,nl->jil", resp, x, x)
    return linalg.flatten([counts, expfam.pack_normal_wishart(sums, counts, scatters, counts)])


def conjugate_gmm_message(prior, x_star, z_star, n_total):
    """Prior naturals plus the minibatch's ``gmm_statistics`` scaled by
    n_total / batch."""
    n = np.atleast_2d(x_star).shape[0]
    stats = gmm_statistics(x_star, z_star, prior.n_components)
    return prior.with_flat_values(prior.flat_values() + (n_total / n) * stats)


def natural_gradient_step(q, message, beta1):
    """lambda <- (1 - beta1) lambda + beta1 message, with domain guarding.

    A candidate that leaves the natural domain triggers step halving, up to
    ten times, before raising.
    """
    if not 0.0 <= beta1 <= 1.0:
        raise ContractError("beta1 must lie in [0, 1]")
    if message.n_components != q.n_components or message.dim != q.dim:
        raise ContractError("message layout mismatch")
    beta = beta1
    for _ in range(NG_MAX_HALVINGS + 1):
        flat = (1.0 - beta) * q.flat_values() + beta * message.flat_values()
        cand = q.with_flat_values(flat)
        if cand.in_domain():
            return cand
        beta *= 0.5
    raise InvalidParameterError(
        "natural-gradient step left the natural domain after halvings"
    )


def posterior_mean_params(q):
    """Plug-in point parameters: E[pi], E[mu_k], and C_k / sqrt(nu_k), the lower
    factor of E[Lam_k]^-1, for the factor C_k of inv(W_k) from ``nw_standard``."""
    alpha = expfam.to_standard(q.weights).alpha
    mean, _, chol, dof = q.standard
    return alpha / alpha.sum(), mean, chol / np.sqrt(dof)[:, None, None]


def sample_gmm_params(q, rng):
    """Draw (pi, means, lower Cholesky factors of the covariances) from the
    posterior: the weights, then every component in one
    ``expfam.sample_normal_wishart`` call on the cached ``standard`` form."""
    pi = expfam.sample(q.weights, rng)
    return (pi, *expfam.sample_normal_wishart(q.standard, rng))


def kl_to_prior(q, prior):
    return expfam.kl_divergence(q.weights, prior.weights) + float(
        np.sum(expfam.kl_divergence(q.components, prior.components))
    )


# ---------------------------------------------------------------------------
# Euclidean steps

def _finite_or_warn(grad, what):
    if not np.all(np.isfinite(grad)):
        warnings.warn(f"non-finite gradient in {what}; step skipped", RuntimeWarning)
        return False
    return True


def sgd_step(params, grad, beta):
    """Ascent step params + beta * grad."""
    if beta <= 0:
        raise ContractError("beta must be positive")
    grad = np.asarray(grad, dtype=float)
    if not _finite_or_warn(grad, "sgd_step"):
        return np.asarray(params, dtype=float)
    return np.asarray(params, dtype=float) + beta * grad


def adagrad_step(params, grad, accum, beta):
    """Ascent with per-coordinate scaling by sqrt of accumulated squares.

    ``accum`` is the sum of squared gradients so far (zeros at the start);
    returns (params, accum) with a new accumulator array, never writing into
    the one given.  A non-finite gradient returns both unchanged.
    """
    if beta <= 0:
        raise ContractError("beta must be positive")
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if not _finite_or_warn(grad, "adagrad_step"):
        return params, accum
    accum = accum + grad**2
    step = beta * grad / (np.sqrt(accum) + 1e-8)
    return params + step, accum


# ---------------------------------------------------------------------------
# variational optimizer over deterministic parameters

@dataclass(frozen=True)
class VanState:
    """Gaussian search distribution, diagonal covariance."""

    mu: np.ndarray
    sigma2: np.ndarray

    @classmethod
    def init(cls, mu, sigma2):
        mu = np.asarray(mu, dtype=float)
        return cls(mu=mu, sigma2=np.full_like(mu, float(sigma2)))


def van_step(state, grad_fn, hess_diag_fn, beta, rng):
    """One step of the second-order search-distribution update.

    Draws phi* = mu + sigma * eps, accumulates curvature into the precision,
    then moves the mean against the gradient scaled by the updated variance.
    Minimizes the caller's objective.  Negative curvature is floored at zero,
    so the precision never decreases.
    """
    if beta <= 0:
        raise ContractError("beta must be positive")
    eps = rng.standard_normal(state.mu.shape)
    phi_star = state.mu + np.sqrt(state.sigma2) * eps
    grad = np.asarray(grad_fn(phi_star), dtype=float)
    curv = np.maximum(np.asarray(hess_diag_fn(phi_star), dtype=float), 0.0)
    if not (_finite_or_warn(grad, "van_step") and _finite_or_warn(curv, "van_step")):
        return state
    prec = 1.0 / state.sigma2 + 2.0 * beta * curv
    sigma2 = 1.0 / prec
    mu = state.mu - beta * sigma2 * grad
    return VanState(mu=mu, sigma2=sigma2)


# ---------------------------------------------------------------------------
# Gaussian posteriors over network weights

@dataclass(frozen=True)
class BayesNnPosterior:
    mu: np.ndarray
    sigma2: np.ndarray
    mu0: float
    sigma0_sq: float


def bayes_nn_step(post, grad_mu, grad_sigma2, beta):
    """Natural-parameter convex combination toward prior-plus-likelihood.

    grad_mu is dE[log lik]/d mu and grad_sigma2 is dE[log lik]/d sigma2; the
    second derivative identity E[f''] = 2 dE/d sigma2 converts the latter into
    curvature.  Zero likelihood gradients contract the posterior onto its
    prior; the 1-d conjugate case converges to the exact posterior.
    """
    if not 0.0 <= beta <= 1.0:
        raise ContractError("beta must lie in [0, 1]")
    if beta == 0.0:
        return post
    grad_mu = np.asarray(grad_mu, dtype=float)
    curv = 2.0 * np.asarray(grad_sigma2, dtype=float)  # E[f'']
    if not (_finite_or_warn(grad_mu, "bayes_nn_step") and _finite_or_warn(curv, "bayes_nn_step")):
        return post
    prior_prec = 1.0 / post.sigma0_sq
    prec = 1.0 / post.sigma2
    lin = post.mu * prec  # first natural parameter

    prec_new = (1.0 - beta) * prec + beta * (prior_prec - curv)
    bad = prec_new <= 0
    if np.any(bad):
        warnings.warn(
            "bayes_nn_step precision went nonpositive; floored", RuntimeWarning
        )
        prec_new = np.where(bad, 1e-3 * prior_prec, prec_new)
    lin_new = (1.0 - beta) * lin + beta * (
        post.mu0 * prior_prec + grad_mu - post.mu * curv
    )
    sigma2_new = 1.0 / prec_new
    return BayesNnPosterior(
        mu=lin_new * sigma2_new,
        sigma2=sigma2_new,
        mu0=post.mu0,
        sigma0_sq=post.sigma0_sq,
    )
