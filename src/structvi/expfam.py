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

Mean coordinates are E[T] in the identical layout, so ``kl_divergence``
reduces to the bregman form A(p) - A(q) - <p - q, E_q[T]> for any pair
within one family.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import linalg
from .errors import ContractError, InvalidParameterError

DIRICHLET = "dirichlet"
NORMAL_WISHART = "normal_wishart"


@dataclass(frozen=True)
class NaturalParamVector:
    """Flat coordinate vector tagged with family, dimension, and coordinate kind."""

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
    return np.concatenate(
        [
            np.asarray(e1, dtype=float).ravel(),
            np.atleast_1d(np.asarray(e2, dtype=float)),
            np.asarray(e3, dtype=float).ravel(),
            np.atleast_1d(np.asarray(e4, dtype=float)),
        ]
    )


def split_normal_wishart(values, d):
    e1 = values[:d]
    e2 = values[d : d + 1]
    e3 = values[d + 1 : d + 1 + d * d].reshape(d, d)
    e4 = values[d + 1 + d * d :]
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


def to_standard(nat):
    """Natural coordinates back to the standard parameterization."""
    _check_coords(nat, "natural")
    v, d = nat.values, nat.dim
    if nat.family == DIRICHLET:
        return DirichletParam(alpha=v + 1.0)
    if nat.family == NORMAL_WISHART:
        e1, e2, e3, e4 = split_normal_wishart(v, d)
        kappa = float(e2[0])
        _require(kappa > 0, "kappa must be positive")
        m = e1 / kappa
        winv = linalg.symmetrize(e3) - kappa * np.outer(m, m)
        chol = _spd_or_none(winv)
        _require(chol is not None, "inverse scale must be SPD")
        nu = float(e4[0]) + d
        _require(nu > d - 1, "dof must exceed dim - 1")
        return NormalWishartParam(
            mean=m, kappa=kappa, scale=linalg.inv_from_chol(chol), dof=nu
        )
    raise ContractError(f"unknown family {nat.family}")


def in_natural_domain(nat):
    """True when the coordinates describe a normalizable member."""
    try:
        to_standard(nat)
    except InvalidParameterError:
        return False
    if nat.family == DIRICHLET:
        return bool(np.all(nat.values > -1.0))
    return True


def _check_coords(nat, want):
    if nat.coords != want:
        raise ContractError(f"expected {want} coordinates, got {nat.coords}")


# ---------------------------------------------------------------------------
# log partition and moment maps

def _multigammaln_half(nu, d):
    return special.multigammaln(0.5 * nu, d)


def _multidigamma_half(nu, d):
    i = np.arange(1, d + 1)
    return 0.5 * np.sum(special.digamma(0.5 * (nu + 1 - i)))


def log_partition(nat):
    _check_coords(nat, "natural")
    v, d = nat.values, nat.dim
    if nat.family == DIRICHLET:
        alpha = v + 1.0
        _require(np.all(alpha > 0), "dirichlet domain violated")
        return float(np.sum(special.gammaln(alpha)) - special.gammaln(alpha.sum()))
    if nat.family == NORMAL_WISHART:
        p = to_standard(nat)
        chol_w = np.linalg.cholesky(linalg.symmetrize(p.scale))
        logdet_w = linalg.logdet_from_chol(chol_w)
        return float(
            -0.5 * d * np.log(p.kappa)
            + 0.5 * d * np.log(2 * np.pi)
            + 0.5 * p.dof * d * np.log(2.0)
            + 0.5 * p.dof * logdet_w
            + _multigammaln_half(p.dof, d)
        )
    raise ContractError(f"unknown family {nat.family}")


def to_mean(nat):
    """Mean coordinates E[T] in the family's flat layout."""
    _check_coords(nat, "natural")
    d = nat.dim
    p = to_standard(nat)
    if nat.family == DIRICHLET:
        vals = special.digamma(p.alpha) - special.digamma(p.alpha.sum())
    elif nat.family == NORMAL_WISHART:
        e_lam = p.dof * p.scale
        e_lam_mu = e_lam @ p.mean
        e_quad = -0.5 * (p.mean @ e_lam @ p.mean + d / p.kappa)
        chol_w = np.linalg.cholesky(linalg.symmetrize(p.scale))
        e_logdet = (
            2.0 * _multidigamma_half(p.dof, d)
            + d * np.log(2.0)
            + linalg.logdet_from_chol(chol_w)
        )
        vals = pack_normal_wishart(e_lam_mu, e_quad, -0.5 * e_lam, 0.5 * e_logdet)
    else:
        raise ContractError(f"unknown family {nat.family}")
    return NaturalParamVector(nat.family, d, np.asarray(vals, dtype=float), coords="mean")


# ---------------------------------------------------------------------------
# divergences and sampling

def kl_divergence(q, p):
    """KL(q || p) within one family via the bregman form of A."""
    if q.family != p.family or q.dim != p.dim:
        raise ContractError("kl_divergence needs matching families and dims")
    _check_coords(q, "natural")
    _check_coords(p, "natural")
    mean_q = to_mean(q).values
    kl = log_partition(p) - log_partition(q) - float((p.values - q.values) @ mean_q)
    return max(kl, 0.0) if kl > -1e-9 else kl


def sample(nat, rng):
    """One draw; the Normal-Wishart returns a (mean, precision) pair."""
    _check_coords(nat, "natural")
    p = to_standard(nat)
    if nat.family == DIRICHLET:
        return rng.dirichlet(p.alpha)
    if nat.family == NORMAL_WISHART:
        d = nat.dim
        chol_w = linalg.cholesky_spd(p.scale, "wishart scale")
        bart = np.zeros((d, d))
        for i in range(d):
            bart[i, i] = np.sqrt(rng.chisquare(p.dof - i))
            bart[i, :i] = rng.standard_normal(i)
        factor = chol_w @ bart  # lam = factor factor^T
        lam = factor @ factor.T
        z = rng.standard_normal(d)
        mu = p.mean + np.linalg.solve(factor.T, z) / np.sqrt(p.kappa)
        return mu, lam
    raise ContractError(f"unknown family {nat.family}")
