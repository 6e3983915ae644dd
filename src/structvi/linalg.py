"""Small dense linear-algebra helpers used throughout the package.

Conventions fixed here once:

* SPD matrices are factored as lower-triangular Cholesky factors.
* Unconstrained storage of an SPD matrix is the lower triangle of its
  Cholesky factor, row-major via ``np.tril_indices``, with the diagonal
  kept in log space.  Any real vector therefore maps to a valid SPD matrix.
* On factorization failure a jitter of ``1e-8 * trace / d`` is added to the
  diagonal, retrying up to three times before raising.
* Every flat parameter vector (network weights, prior parameters, the
  conjugate posterior's naturals, their gradients) is its arrays raveled in
  order: ``flatten`` writes one and ``unflatten`` reads it back.
* Constants that depend only on d (the triangle's index sets, its mask and
  flat positions) are built once per d by ``_tril_cache``, and every cached
  or memoized array is made read-only by ``read_only``, so no caller can
  change it for the next.  The helpers mask and gather through these
  constants and through ndarray methods, not ``np.tril`` or ``np.diagonal``,
  whose per-call cost is several times theirs at d = 2; the entries and the
  arithmetic are the same.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, InvalidParameterError, NumericalError

JITTER_SCALE = 1e-8
MAX_JITTER_TRIES = 3


def read_only(arr):
    """``arr``, marked read-only."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Triangle:
    """The d x d lower triangle's constants, each read-only."""

    rows: np.ndarray  # np.tril_indices(d), row-major
    cols: np.ndarray
    diag_slots: np.ndarray  # positions of the diagonal in that order
    idx: np.ndarray  # arange(d)
    lower: np.ndarray  # the boolean mask np.tril keeps
    flat: np.ndarray  # row-major flat positions rows * d + cols
    half_diag: np.ndarray  # 0.5 on the diagonal, 1 elsewhere


@lru_cache(maxsize=None)
def _tril_cache(d):
    rows, cols = np.tril_indices(d)
    arrays = (
        rows, cols, np.flatnonzero(rows == cols), np.arange(d),
        np.tri(d, dtype=bool), rows * d + cols, 1.0 - 0.5 * np.eye(d),
    )
    return _Triangle(*map(read_only, arrays))


def flatten(arrays):
    """One flat vector of the ndarrays ``arrays``, each raveled, in order."""
    return np.concatenate([a.ravel() for a in arrays])


def unflatten(vec, shapes):
    """Arrays of ``shapes`` read in order from the flat vector ``vec``, the
    inverse of ``flatten``; they are views of one fresh copy of ``vec``.  A
    vector of another length is a contract error."""
    sizes = [math.prod(shape) for shape in shapes]
    vec = np.array(vec, dtype=float)
    if vec.shape != (sum(sizes),):
        raise ContractError(f"flat vector has shape {vec.shape}, the layout needs ({sum(sizes)},)")
    parts, stop = [], 0
    for shape, size in zip(shapes, sizes):
        parts.append(vec[stop : stop + size].reshape(shape))
        stop += size
    return parts


def check_sizes(*shapes):
    """InvalidParameterError for a float array shape that numpy cannot hold:
    a dimension or a byte count past its index type's range."""
    limit = np.iinfo(np.intp).max
    for shape in shapes:
        if max(shape) > limit or 8 * math.prod(shape) > limit:
            raise InvalidParameterError(f"an array of shape {shape} is past numpy's index range")


def symmetrize(a):
    return 0.5 * (a + a.swapaxes(-1, -2))


def cholesky_spd(mat, what="matrix"):
    """Lower Cholesky factor with trace-scaled jitter retries.

    A stack is factored in one call.  If that fails, each matrix is factored
    on its own and only those that fail are retried with their own jitter,
    so one bad matrix leaves the factors of the rest of the stack unchanged.
    """
    mat = symmetrize(np.asarray(mat, dtype=float))
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    d = mat.shape[-1]
    flat = mat.reshape(-1, d, d)
    out = np.empty_like(flat)
    for i, one in enumerate(flat):
        out[i] = _jittered_cholesky(one, what)
    return out.reshape(mat.shape)


def _jittered_cholesky(mat, what):
    d = mat.shape[-1]
    jitter = JITTER_SCALE * np.trace(mat) / d
    for attempt in range(MAX_JITTER_TRIES + 1):
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            mat = mat + jitter * (10.0**attempt) * np.eye(d)
    raise NumericalError(f"cholesky failed for {what} after jitter retries")


def inv_from_chol(chol):
    """(L L^T)^-1 = L^-T L^-1 given the lower factor, batched over a stack."""
    l_inv = np.linalg.inv(chol)
    return l_inv.swapaxes(-1, -2) @ l_inv


def logdet_from_chol(chol):
    return 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)


def chol_quad(chol, cols):
    """(squared norms of L^-1 b over the columns b of ``cols`` (..., d, m),
    log|L L^T|) for the lower factors L of ``chol`` (..., d, d): the
    package's one Mahalanobis solve, which every density reads."""
    sol = np.linalg.solve(chol, cols)
    return np.sum(sol**2, axis=-2), logdet_from_chol(chol)


def tril_size(d):
    return d * (d + 1) // 2


def tril_from_raw(raw, d):
    """Unconstrained vector -> lower Cholesky factor (log-diagonal storage)."""
    raw = np.asarray(raw, dtype=float)
    tri = _tril_cache(d)
    chol = np.zeros(raw.shape[:-1] + (d, d))
    chol[..., tri.rows, tri.cols] = raw
    chol[..., tri.idx, tri.idx] = np.exp(raw[..., tri.diag_slots])
    return chol


def raw_from_tril(chol):
    """Inverse of tril_from_raw; requires a positive diagonal."""
    chol = np.asarray(chol, dtype=float)
    d = chol.shape[-1]
    tri = _tril_cache(d)
    raw = chol[..., tri.rows, tri.cols].copy()
    raw[..., tri.diag_slots] = np.log(np.diagonal(chol, axis1=-2, axis2=-1))
    return raw


def raw_from_spd(mat):
    return raw_from_tril(np.linalg.cholesky(symmetrize(np.asarray(mat, dtype=float))))


def tril_raw_vjp(chol, grad_mat):
    """Pull a full-matrix adjoint of M = L L^T back to the raw vector of L.

    ``chol`` is the factor L, ``tril_from_raw`` of that raw vector.
    ``grad_mat`` is the derivative of a scalar with respect to every entry of
    M treated independently (so symmetric in value for symmetric functions).
    """
    d = chol.shape[-1]
    tri = _tril_cache(d)
    grad_chol = (grad_mat + grad_mat.swapaxes(-1, -2)) @ chol
    out = grad_chol.reshape(grad_chol.shape[:-2] + (d * d,)).take(tri.flat, -1)
    out[..., tri.diag_slots] *= chol.diagonal(0, -2, -1)
    return out


def cholesky_vjp(chol, grad_chol):
    """Adjoint of A -> cholesky(A), symmetric full-matrix form.

    Given dF/dL on the lower factor, returns dF/dA with A treated as a
    symmetric matrix produced upstream.
    """
    tri = _tril_cache(chol.shape[-1])
    # only lower entries of the factor exist; discard any upper-part adjoint
    p = chol.swapaxes(-1, -2) @ np.where(tri.lower, grad_chol, 0.0)
    # keep the lower triangle, halve the diagonal
    p = np.where(tri.lower, p * tri.half_diag, 0.0)
    lt_inv = np.linalg.inv(chol)
    w = lt_inv.swapaxes(-1, -2) @ p @ lt_inv
    return symmetrize(w)


def logsumexp(x, axis=None, keepdims=False):
    """Max-shifted log-sum-exp; a lean stand-in for the scipy version.

    The scipy implementation dominates profiles when called per minibatch on
    small arrays, so the hot paths use this one.  All -inf rows return -inf,
    silently as in scipy.  With ``axis=None`` and ``keepdims=False`` the
    result is a Python float.
    """
    x = np.asarray(x, dtype=float)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(x - m), axis=axis, keepdims=True)
    # A zero sum is an all -inf row: its log is -inf, without the warning.
    out = np.log(s, out=np.full_like(s, -np.inf), where=s != 0.0) + m
    if keepdims:
        return out
    return np.squeeze(out, axis=axis) if axis is not None else out.item()
