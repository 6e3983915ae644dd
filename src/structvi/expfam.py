"""Minimal exponential families in fixed canonical coordinates.

Every family here uses base measure h = 1, density
``exp(<eta, T(theta)> - A(eta))`` against Lebesgue measure on its domain
(the open simplex for the Dirichlet).  The canonical coordinate layouts,
chosen once and relied on by the rest of the package:

dirichlet (dim K)
    T(pi) = log pi,  eta = alpha - 1.  Flat layout: (K,).

normal_wishart (dim d)
    Over (mu, Lam) with density N(mu | m, (kappa Lam)^-1) W(Lam | W, nu).
    T = (Lam mu, -mu^T Lam mu / 2, -Lam / 2, log|Lam| / 2) and
    eta = (kappa m, kappa, inv(W) + kappa m m^T, nu - d).
    Flat layout: (d,), (1,), (d*d,) row-major, (1,).
    A draw is (mu, the lower Cholesky factor of inv(Lam)); Lam is never formed.

Mean coordinates are E[T] in the identical layout, so ``kl_divergence``
reduces to the bregman form A(p) - A(q) - <p - q, E_q[T]> for any pair
within one family.

A Normal-Wishart value array may carry leading axes, one member per index:
a (K, d*d + d + 2) array is K members, and every map here converts, checks,
scores or samples the whole stack in one call.  A stack is in the domain when
every member is.  ``log_partition`` and ``kl_divergence`` return a Python
float for a single member and one value per member for a stack.

``scipy.special`` loads on the first call that needs a special function
(these families' log partitions and moments; the VB-GMM baseline's Student
predictive needs none).  Importing it raises the package's import peak from
34 to 55 MB of resident memory, which the dynamics, LDS-EM and
structured-mixture paths never pay.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ContractError, InvalidParameterError

DIRICHLET = "dirichlet"
NORMAL_WISHART = "normal_wishart"


@dataclass(frozen=True)
class NaturalParamVector:
    """Coordinate array tagged with family, dimension, and coordinate kind.

    ``values`` is one member's flat layout, or for the Normal-Wishart a stack
    of them along leading axes.
    """

    family: str
    dim: int
    values: np.ndarray
    coords: str = "natural"

    def replace_values(self, values):
        return replace(self, values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class DirichletParam:
    alpha: np.ndarray


@dataclass(frozen=True)
class NormalWishartParam:
    mean: np.ndarray
    kappa: float
    scale: np.ndarray
    dof: float


def _require(cond, msg):
    if not cond:
        raise InvalidParameterError(msg)


def _spd_or_none(mat):
    try:
        return np.linalg.cholesky(linalg.symmetrize(mat))
    except np.linalg.LinAlgError:
        return None


# ---------------------------------------------------------------------------
# packing helpers

def pack_normal_wishart(e1, e2, e3, e4):
    """Concatenate the blocks along the last axis, behind ``e1``'s leading axes."""
    e1 = np.asarray(e1, dtype=float)
    lead = e1.shape[:-1]
    rest = [np.reshape(np.asarray(e, dtype=float), lead + (-1,)) for e in (e2, e3, e4)]
    return np.concatenate([e1] + rest, axis=-1)


def split_normal_wishart(values, d):
    e1 = values[..., :d]
    e2 = values[..., d : d + 1]
    e3 = values[..., d + 1 : d + 1 + d * d].reshape(values.shape[:-1] + (d, d))
    e4 = values[..., d + 1 + d * d :]
    return e1, e2, e3, e4


# ---------------------------------------------------------------------------
# standard <-> natural

def to_natural_vector(param):
    """Validate a standard parameterization and convert to natural coordinates."""
    if isinstance(param, DirichletParam):
        alpha = np.asarray(param.alpha, dtype=float)
        # A single entry is the degenerate point mass; it keeps one-component
        # mixtures inside the same machinery.
        _require(alpha.ndim == 1 and alpha.size >= 1, "dirichlet needs >= 1 entry")
        _require(np.all(alpha > 0), "dirichlet concentration must be positive")
        return NaturalParamVector(DIRICHLET, alpha.size, alpha - 1.0)

    if isinstance(param, NormalWishartParam):
        m = np.asarray(param.mean, dtype=float)
        w = np.asarray(param.scale, dtype=float)
        d = m.size
        _require(param.kappa > 0, "kappa must be positive")
        _require(param.dof > d - 1, "dof must exceed dim - 1")
        chol = _spd_or_none(w)
        _require(chol is not None, "scale matrix must be SPD")
        winv = linalg.inv_from_chol(chol)
        vals = pack_normal_wishart(
            param.kappa * m,
            param.kappa,
            winv + param.kappa * np.outer(m, m),
            param.dof - d,
        )
        return NaturalParamVector(NORMAL_WISHART, d, vals)

    raise ContractError(f"unknown parameter type {type(param).__name__}")


def nw_standard(values, d):
    """(mean, kappa, Cholesky factor of inv(W), dof) of every member of the
    Normal-Wishart natural ``values`` of dimension d, after the domain
    checks; one factorization covers the whole stack."""
    e1, e2, e3, e4 = split_normal_wishart(values, d)
    kappa = e2[..., 0]
    _require(np.all(kappa > 0), "kappa must be positive")
    mean = e1 / kappa[..., None]
    outer = mean[..., :, None] * mean[..., None, :]
    winv = linalg.symmetrize(e3) - kappa[..., None, None] * outer
    chol = _spd_or_none(winv)
    _require(chol is not None, "inverse scale must be SPD")
    dof = e4[..., 0] + d
    _require(np.all(dof > d - 1), "dof must exceed dim - 1")
    return mean, kappa, chol, dof


def _check_natural(nat):
    if nat.coords != "natural":
        raise ContractError(f"expected natural coordinates, got {nat.coords}")
    if nat.family not in (DIRICHLET, NORMAL_WISHART):
        raise ContractError(f"unknown family {nat.family}")


def to_standard(nat):
    """Natural coordinates back to the standard parameterization."""
    _check_natural(nat)
    if nat.family == DIRICHLET:
        return DirichletParam(alpha=nat.values + 1.0)
    mean, kappa, chol, dof = nw_standard(nat.values, nat.dim)
    return NormalWishartParam(mean, kappa, linalg.inv_from_chol(chol), dof)


def in_natural_domain(nat):
    """True when the coordinates describe a normalizable member; for a stack,
    when every member does."""
    _check_natural(nat)
    if nat.family == DIRICHLET:
        return bool(np.all(nat.values > -1.0))
    try:
        nw_standard(nat.values, nat.dim)
    except InvalidParameterError:
        return False
    return True


# ---------------------------------------------------------------------------
# log partition and moment maps

def scipy_special():
    # Imported on first use: scipy.special alone adds about 20 MB of RSS.
    from scipy import special

    return special


def _multidigamma_half(nu, d):
    i = np.arange(1, d + 1)
    digamma = scipy_special().digamma
    return 0.5 * np.sum(digamma(0.5 * (nu[..., None] + 1 - i)), axis=-1)


def log_partition(nat):
    _check_natural(nat)
    v, d = nat.values, nat.dim
    if nat.family == DIRICHLET:
        alpha = v + 1.0
        _require(np.all(alpha > 0), "dirichlet domain violated")
        special = scipy_special()
        return float(np.sum(special.gammaln(alpha)) - special.gammaln(alpha.sum()))
    _, kappa, chol, dof = nw_standard(v, d)
    val = (
        -0.5 * d * np.log(kappa)
        + 0.5 * d * np.log(2 * np.pi)
        + 0.5 * dof * d * np.log(2.0)
        - 0.5 * dof * linalg.logdet_from_chol(chol)  # log|W| = -log|inv(W)|
        + scipy_special().multigammaln(0.5 * dof, d)
    )
    return float(val) if v.ndim == 1 else val


def to_mean(nat):
    """Mean coordinates E[T] in the family's layout."""
    _check_natural(nat)
    d = nat.dim
    if nat.family == DIRICHLET:
        alpha = nat.values + 1.0
        digamma = scipy_special().digamma
        vals = digamma(alpha) - digamma(alpha.sum())
    else:
        mean, kappa, chol, dof = nw_standard(nat.values, d)
        e_lam = dof[..., None, None] * linalg.inv_from_chol(chol)
        e_lam_mu = (e_lam @ mean[..., None])[..., 0]
        e_quad = -0.5 * (np.sum(mean * e_lam_mu, axis=-1) + d / kappa)
        e_logdet = (
            2.0 * _multidigamma_half(dof, d)
            + d * np.log(2.0)
            - linalg.logdet_from_chol(chol)
        )
        vals = pack_normal_wishart(e_lam_mu, e_quad, -0.5 * e_lam, 0.5 * e_logdet)
    return NaturalParamVector(nat.family, d, np.asarray(vals, dtype=float), coords="mean")


# ---------------------------------------------------------------------------
# divergences and sampling

def kl_divergence(q, p):
    """KL(q || p) within one family via the bregman form of A; member by
    member for two stacks of one shape."""
    if q.family != p.family or q.dim != p.dim or q.values.shape != p.values.shape:
        raise ContractError("kl_divergence needs matching families, dims and shapes")
    _check_natural(q)
    _check_natural(p)
    mean_q = to_mean(q).values
    kl = log_partition(p) - log_partition(q) - np.sum((p.values - q.values) * mean_q, -1)
    kl = np.where(kl > -1e-9, np.maximum(kl, 0.0), kl)
    return float(kl) if q.values.ndim == 1 else kl


def sample(nat, rng):
    """One draw: the Dirichlet's weights, or ``sample_normal_wishart`` of the
    Normal-Wishart's ``nw_standard`` form."""
    _check_natural(nat)
    if nat.family == DIRICHLET:
        return rng.dirichlet(nat.values + 1.0)
    return sample_normal_wishart(nw_standard(nat.values, nat.dim), rng)


def sample_normal_wishart(standard, rng):
    """One Normal-Wishart draw (mean, L), stacked for a stack, from the
    checked standard form (m, kappa, C, nu) that ``nw_standard`` returns; L
    is the lower Cholesky factor of inv(Lam).  With the factor C of inv(W)
    and the upper Bartlett matrix B (the lower one reversed, so
    B B^T ~ W(I, nu)), Lam = C^-T B B^T C^-1, so L = C B^-T and the mean is
    m + L z / sqrt(kappa).  The draws come in three blocks over the whole
    stack: B's chi-square diagonals, its normals above them, then the mean
    normals.
    """
    mean, kappa, chol_winv, dof = standard
    d = mean.shape[-1]
    bart = np.zeros(dof.shape + (d, d))
    idx = np.arange(d)
    bart[..., idx, idx] = np.sqrt(rng.chisquare(dof[..., None] - idx[::-1]))
    if d > 1:
        rr, cc = np.triu_indices(d, 1)
        bart[..., rr, cc] = rng.standard_normal(dof.shape + (rr.size,))
    chol = chol_winv @ np.linalg.inv(bart).swapaxes(-1, -2)
    z = rng.standard_normal(dof.shape + (d,))
    return mean + (chol @ z[..., None])[..., 0] / np.sqrt(kappa)[..., None], chol
