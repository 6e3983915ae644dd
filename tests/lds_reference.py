"""Per-time-step reference for the dynamics factor in ``structvi.infnet``.

The filter, smoother factors, backward sampling and both adjoints written
as one Python loop over time with per-step numpy calls.  The package stacks
everything but the recursions over time; the parity tests in
``test_infnet.py`` check it against these loops.  Records come from this
module's ``lds_filter``.
"""

import numpy as np

from structvi import linalg
from structvi.errors import InvalidParameterError
from structvi.infnet import LOG_2PI, FilterRecord, _guarded_chol


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
    Recomputed on every call."""
    steps = []
    for t in range(record.m.shape[-2]):
        p_filt = record.p_filt[..., t, :, :]
        pp1 = record.p_pred[..., t, :, :]
        pp1_inv = np.linalg.inv(pp1)
        j = p_filt @ dyn.trans.T @ pp1_inv
        cov = p_filt - j @ pp1 @ np.swapaxes(j, -1, -2)
        steps.append((j, pp1_inv, linalg.cholesky_spd(cov, "conditional covariance")))
    chol_t = linalg.cholesky_spd(record.p_filt[..., -1, :, :], "filtered covariance")
    return steps, chol_t


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
            linalg.tril_raw_vjp(linalg.tril_from_raw(dyn.noise_raw, d), q_b),
            mf_c,
            linalg.tril_raw_vjp(linalg.tril_from_raw(dyn.init_raw, d), pf_c),
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
