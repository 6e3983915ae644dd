import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from structvi import baselines, expfam, infnet, linalg, models, updates
from structvi.errors import ContractError


def blob_data(rng, centers, n_per):
    rows = [c + 0.4 * rng.standard_normal((n_per, len(c))) for c in centers]
    return np.concatenate(rows, axis=0)


def test_vb_gmm_bound_monotone():
    rng = np.random.default_rng(0)
    y = blob_data(rng, [(-2.0, 0.0), (2.0, 1.0), (0.0, -2.5)], 70)
    res = baselines.vb_gmm_fit(y, k=3, n_iter=40, seed=1)
    diffs = np.diff(res.elbos)
    assert np.all(diffs >= -1e-8)
    assert res.elbos[-1] > res.elbos[0]


def test_vb_gmm_k1_recovers_conjugate_posterior():
    rng = np.random.default_rng(2)
    n, d = 40, 2
    y = rng.standard_normal((n, d)) + np.array([0.7, -0.4])
    res = baselines.vb_gmm_fit(y, k=1, n_iter=3)
    comps = res.posterior.components
    comp = expfam.to_standard(comps.replace_values(comps.values[0]))
    alpha = expfam.to_standard(res.posterior.weights).alpha

    kappa0, alpha0, nu0 = 0.1, 1.0, d + 2.0
    ybar = y.mean(axis=0)
    scatter = (y - ybar).T @ (y - ybar)
    kappa_n = kappa0 + n
    assert alpha[0] == pytest.approx(alpha0 + n, rel=1e-12)
    assert comp.kappa == pytest.approx(kappa_n, rel=1e-12)
    assert comp.dof == pytest.approx(nu0 + n, rel=1e-12)
    np.testing.assert_allclose(comp.mean, n * ybar / kappa_n, rtol=1e-10)
    winv_n = np.eye(d) + scatter + (kappa0 * n / kappa_n) * np.outer(ybar, ybar)
    np.testing.assert_allclose(np.linalg.inv(comp.scale), winv_n, rtol=1e-8)


def test_vb_gmm_separated_blobs_hard_responsibilities():
    rng = np.random.default_rng(3)
    y = blob_data(rng, [(-8.0, 0.0), (8.0, 0.0)], 60)
    res = baselines.vb_gmm_fit(y, k=2, n_iter=25, seed=4)
    assert np.all(res.responsibilities.max(axis=1) > 0.999)
    means = expfam.to_standard(res.posterior.components).mean
    found = means[np.argsort(means[:, 0])]
    np.testing.assert_allclose(found[:, 0], [-8.0, 8.0], atol=0.3)


def test_vb_gmm_predictive_matches_parameter_sampling():
    rng = np.random.default_rng(5)
    y = blob_data(rng, [(-1.5, 0.5), (1.5, -0.5)], 30)
    res = baselines.vb_gmm_fit(y, k=2, n_iter=15, seed=6)
    test_rows = np.array([[0.0, 0.0], [-1.2, 0.8], [2.5, -1.0]])
    exact = np.exp(baselines.vb_gmm_predictive_logpdf(res.posterior, test_rows))

    draws = 20_000
    dens = np.empty((draws, test_rows.shape[0]))
    for s in range(draws):
        pi, means, chols = updates.sample_gmm_params(res.posterior, rng)
        cols = np.zeros(test_rows.shape[0])
        for j in range(2):
            sol = np.linalg.solve(chols[j], (test_rows - means[j]).T)
            quad = np.sum(sol**2, axis=0)
            logdet = 2.0 * np.sum(np.log(np.diag(chols[j])))
            cols += pi[j] * np.exp(-0.5 * (quad + logdet + 2 * np.log(2 * np.pi)))
        dens[s] = cols
    mc = dens.mean(axis=0)
    se = dens.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mc - exact) < 3.0 * se)


def test_vb_gmm_predictive_normalizes_d1():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((25, 1)) * 1.3 + 0.4
    res = baselines.vb_gmm_fit(y, k=2, n_iter=10, seed=8)
    grid = np.linspace(-100.0, 100.0, 200_001)
    dens = np.exp(baselines.vb_gmm_predictive_logpdf(res.posterior, grid[:, None]))
    mass = np.trapezoid(dens, grid)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 3])
def test_vb_gmm_predictive_matches_scipy_student_mixture(d, k):
    """The predictive is the mixture of the posterior's Student t's: weights
    alpha_k / sum(alpha), location m_k, df nu_k + 1 - d and shape
    (1 + kappa_k) / (kappa_k df) W_k^-1, summed here with scipy's density.
    Blobs of unequal size give each component its own dof."""
    rng = np.random.default_rng(40 + d)
    centers = 3.0 * rng.standard_normal((3, d))
    y = np.concatenate([c + 0.5 * rng.standard_normal((n, d)) for c, n in zip(centers, (9, 20, 41))])
    q = baselines.vb_gmm_fit(y, k=k, n_iter=8, seed=d).posterior
    alpha = expfam.to_standard(q.weights).alpha
    p = expfam.to_standard(q.components)
    df = p.dof + 1.0 - d
    if k > 1:
        assert np.unique(df).size == k
    rows = np.concatenate([y[::7], 4.0 * rng.standard_normal((5, d))])
    comps = [
        np.log(alpha[j] / alpha.sum())
        + stats.multivariate_t(
            p.mean[j], (1 + p.kappa[j]) / (p.kappa[j] * df[j]) * np.linalg.inv(p.scale[j]), df[j]
        ).logpdf(rows).reshape(-1)
        for j in range(k)
    ]
    want = np.logaddexp.reduce(np.stack(comps, axis=1), axis=1)
    got = baselines.vb_gmm_predictive_logpdf(q, rows)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_vb_gmm_fit_deterministic():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((80, 2))
    a = baselines.vb_gmm_fit(y, k=3, n_iter=12, seed=11)
    b = baselines.vb_gmm_fit(y, k=3, n_iter=12, seed=11)
    np.testing.assert_array_equal(a.elbos, b.elbos)
    np.testing.assert_array_equal(
        a.posterior.flat_values(), b.posterior.flat_values()
    )


# ---------------------------------------------------------------------------
# LDS-EM


def random_lds_params(rng, d, obs_dim):
    spd = lambda n, s: linalg.symmetrize(
        s * (np.eye(n) * 0.4 + 0.2 * (lambda b: b @ b.T)(rng.standard_normal((n, n))))
    )
    return baselines.LdsEmParams(
        trans=0.5 * rng.standard_normal((d, d)),
        trans_cov=spd(d, 1.0),
        emit=rng.standard_normal((obs_dim, d)),
        emit_cov=spd(obs_dim, 0.8),
        init_mean=rng.standard_normal(d),
        init_cov=spd(d, 1.0),
    )


def simulate(params, rng, n_seq, t_len):
    d = params.trans.shape[0]
    obs_dim = params.emit.shape[0]
    lx = np.linalg.cholesky(params.init_cov)
    lq = np.linalg.cholesky(params.trans_cov)
    lr = np.linalg.cholesky(params.emit_cov)
    ys = np.empty((n_seq, t_len, obs_dim))
    for s in range(n_seq):
        x = params.init_mean + lx @ rng.standard_normal(d)
        for t in range(t_len):
            if t > 0:
                x = params.trans @ x + lq @ rng.standard_normal(d)
            ys[s, t] = params.emit @ x + lr @ rng.standard_normal(obs_dim)
    return ys


def dense_lds_oracle(params, y):
    """Joint-Gaussian conditioning oracle for one sequence."""
    t_len, obs_dim = y.shape
    d = params.trans.shape[0]
    mean_x = np.empty((t_len, d))
    mean_x[0] = params.init_mean
    for t in range(1, t_len):
        mean_x[t] = params.trans @ mean_x[t - 1]
    cov_x = np.zeros((t_len, t_len, d, d))
    cov_x[0, 0] = params.init_cov
    for t in range(1, t_len):
        for s in range(t):
            cov_x[t, s] = params.trans @ cov_x[t - 1, s]
            cov_x[s, t] = cov_x[t, s].T
        cov_x[t, t] = params.trans @ cov_x[t - 1, t - 1] @ params.trans.T + params.trans_cov
    sxx = cov_x.transpose(0, 2, 1, 3).reshape(t_len * d, t_len * d)
    h = np.kron(np.eye(t_len), params.emit)
    syy = h @ sxx @ h.T + np.kron(np.eye(t_len), params.emit_cov)
    sxy = sxx @ h.T
    mx = mean_x.ravel()
    my = h @ mx
    resid = y.ravel() - my
    gain = sxy @ np.linalg.inv(syy)
    post_mean = (mx + gain @ resid).reshape(t_len, d)
    post_cov = sxx - gain @ sxy.T
    sign, logdet = np.linalg.slogdet(syy)
    loglik = -0.5 * (
        y.size * np.log(2 * np.pi) + logdet + resid @ np.linalg.solve(syy, resid)
    )
    return post_mean, post_cov, float(loglik)


def test_smoother_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for case in range(10):
        d = 1 + case % 2
        obs_dim = 1 + (case + 1) % 3
        t_len = 2 + case % 4
        params = random_lds_params(rng, d, obs_dim)
        y = simulate(params, rng, 1, t_len)[0]
        sm = baselines.lds_em_smooth(params, y)
        post_mean, post_cov, loglik = dense_lds_oracle(params, y)
        assert sm.loglik == pytest.approx(loglik, abs=1e-8)
        np.testing.assert_allclose(sm.mean, post_mean, atol=1e-8)
        for t in range(t_len):
            blk = post_cov[t * d : (t + 1) * d, t * d : (t + 1) * d]
            np.testing.assert_allclose(sm.cov[t], blk, atol=1e-8)
        for t in range(t_len - 1):
            blk = post_cov[(t + 1) * d : (t + 2) * d, t * d : (t + 1) * d]
            np.testing.assert_allclose(sm.cross[t], blk, atol=1e-8)


def test_em_loglik_monotone_and_improves():
    rng = np.random.default_rng(17)
    truth = baselines.LdsEmParams(
        trans=np.array([[0.85]]),
        trans_cov=np.array([[0.3]]),
        emit=np.array([[1.0], [-0.5]]),
        emit_cov=0.2 * np.eye(2),
        init_mean=np.zeros(1),
        init_cov=np.eye(1),
    )
    seqs = simulate(truth, rng, 6, 30)
    params, logliks = baselines.lds_em_fit(seqs, d=1, n_iter=30)
    assert np.all(np.diff(logliks) >= -1e-6)
    assert logliks[-1] > logliks[0] + 10.0
    assert baselines.lds_em_loglik(params, seqs) >= logliks[-1] - 1e-6


def test_filter_uses_only_past_observations():
    rng = np.random.default_rng(19)
    params = random_lds_params(rng, 1, 2)
    y = simulate(params, rng, 1, 8)[0]
    xf, _, _, _, _ = baselines.lds_em_filter(params, y)
    for t in range(8):
        xf_prefix, _, _, _, _ = baselines.lds_em_filter(params, y[: t + 1])
        np.testing.assert_allclose(xf[t], xf_prefix[-1], atol=1e-12)


def test_tau_mae_zero_is_filtered_reconstruction():
    rng = np.random.default_rng(23)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 3, 10)
    mae0 = baselines.lds_em_tau_mae(params, seqs, tau=0)
    total, count = 0.0, 0
    for y in seqs:
        xf, _, _, _, _ = baselines.lds_em_filter(params, y)
        err = np.abs(y - xf @ params.emit.T)
        total += err.sum()
        count += err.size
    assert mae0 == pytest.approx(total / count, rel=1e-12)


def test_tau_mae_matches_bruteforce_rollout():
    rng = np.random.default_rng(29)
    params = random_lds_params(rng, 1, 2)
    seqs = simulate(params, rng, 2, 7)
    tau = 3
    mae = baselines.lds_em_tau_mae(params, seqs, tau)
    total, count = 0.0, 0
    for y in seqs:
        for t in range(7 - tau):
            xf, _, _, _, _ = baselines.lds_em_filter(params, y[: t + 1])
            x = xf[-1]
            for _ in range(tau):
                x = params.trans @ x
            err = np.abs(y[t + tau] - params.emit @ x)
            total += err.sum()
            count += err.size
    assert mae == pytest.approx(total / count, rel=1e-12)


def test_tau_mae_contracts():
    rng = np.random.default_rng(31)
    params = random_lds_params(rng, 1, 2)
    seqs = simulate(params, rng, 2, 5)
    with pytest.raises(ContractError):
        baselines.lds_em_tau_mae(params, seqs, tau=5)
    with pytest.raises(ContractError):
        baselines.lds_em_tau_mae(params, seqs[0], tau=1)


@pytest.mark.parametrize(
    "tau", [1.0, 0.5, np.float64(1.0), True, np.bool_(True), "1", None],
    ids=["float", "half", "np-float", "bool", "np-bool", "str", "none"],
)
def test_tau_mae_rejects_a_tau_that_is_not_an_integer(tau):
    """A float tau inside [0, T) is a contract error, as is a bool."""
    rng = np.random.default_rng(83)
    params = random_lds_params(rng, 1, 2)
    seqs = simulate(params, rng, 2, 5)
    with pytest.raises(ContractError, match="tau must be an integer"):
        baselines.lds_em_tau_mae(params, seqs, tau)


def test_tau_mae_accepts_numpy_integers():
    rng = np.random.default_rng(89)
    params = random_lds_params(rng, 1, 2)
    seqs = simulate(params, rng, 2, 5)
    want = baselines.lds_em_tau_mae(params, seqs, 2)
    for tau in (np.int64(2), np.int32(2), np.uint8(2)):
        assert baselines.lds_em_tau_mae(params, seqs, tau) == want


def test_one_step_block_equals_its_single_sequences():
    """An (n, 1, D) block, whose mean pass has no drive rows, filters,
    smooths and scores as its n one-step sequences do."""
    rng = np.random.default_rng(79)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 4, 1)
    xf, pf, xp, pp, block_ll = baselines.lds_em_filter(params, seqs)
    block = baselines.lds_em_smooth(params, seqs)
    assert block.mean.shape == xf.shape == xp.shape == (4, 1, 2)
    assert block.cross.shape == (0, 2, 2)
    per_seq = []
    for n, y in enumerate(seqs):
        one_xf, one_pf, one_xp, one_pp, one_ll = baselines.lds_em_filter(params, y)
        one = baselines.lds_em_smooth(params, y)
        for got, want in ((xf[n], one_xf), (xp[n], one_xp), (block.mean[n], one.mean)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        for got, want in ((pf, one_pf), (pp, one_pp), (block.cov, one.cov)):
            np.testing.assert_array_equal(got, want)
        per_seq.append(one_ll)
    assert block_ll == block.loglik == pytest.approx(sum(per_seq), rel=1e-12)
    assert baselines.lds_em_loglik(params, seqs) == block_ll
    assert baselines.lds_em_tau_mae(params, seqs, 0) == pytest.approx(
        np.mean(np.abs(seqs - xf @ params.emit.T)), rel=1e-12
    )


def batched_cases(rng):
    for d, obs_dim, t_len in ((1, 1, 2), (1, 3, 4), (2, 2, 3), (2, 3, 6), (3, 2, 5)):
        params = random_lds_params(rng, d, obs_dim)
        yield params, simulate(params, rng, 4, t_len)


def test_batched_smoother_matches_dense_oracle():
    rng = np.random.default_rng(37)
    for params, seqs in batched_cases(rng):
        d = params.trans.shape[0]
        t_len = seqs.shape[1]
        sm = baselines.lds_em_smooth(params, seqs)
        xf, pf, xp, pp, filt_ll = baselines.lds_em_filter(params, seqs)
        assert sm.mean.shape == xf.shape == xp.shape == (seqs.shape[0], t_len, d)
        assert sm.cov.shape == pf.shape == pp.shape == (t_len, d, d)
        total = 0.0
        for n, y in enumerate(seqs):
            post_mean, post_cov, loglik = dense_lds_oracle(params, y)
            total += loglik
            np.testing.assert_allclose(sm.mean[n], post_mean, atol=1e-8)
            for t in range(t_len):
                blk = post_cov[t * d : (t + 1) * d, t * d : (t + 1) * d]
                np.testing.assert_allclose(sm.cov[t], blk, atol=1e-8)
                prefix_mean, prefix_cov, _ = dense_lds_oracle(params, y[: t + 1])
                np.testing.assert_allclose(xf[n, t], prefix_mean[t], atol=1e-8)
                np.testing.assert_allclose(pf[t], prefix_cov[t * d :, t * d :], atol=1e-8)
            for t in range(t_len - 1):
                blk = post_cov[(t + 1) * d : (t + 2) * d, t * d : (t + 1) * d]
                np.testing.assert_allclose(sm.cross[t], blk, atol=1e-8)
        assert sm.loglik == pytest.approx(total, abs=1e-8)
        assert filt_ll == sm.loglik


def test_single_sequence_equals_block_slice():
    rng = np.random.default_rng(41)
    for params, seqs in batched_cases(rng):
        block = baselines.lds_em_smooth(params, seqs)
        block_filt = baselines.lds_em_filter(params, seqs)
        for n, y in enumerate(seqs):
            one = baselines.lds_em_smooth(params, y)
            assert one.mean.shape == y.shape[:1] + params.trans.shape[:1]
            np.testing.assert_allclose(one.mean, block.mean[n], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(one.cov, block.cov, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(one.cross, block.cross, rtol=1e-12, atol=1e-12)
            xf, pf, xp, pp, _ = baselines.lds_em_filter(params, y)
            np.testing.assert_allclose(xf, block_filt[0][n], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(xp, block_filt[2][n], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(pf, block_filt[1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(pp, block_filt[3], rtol=1e-12, atol=1e-12)
        per_seq = sum(baselines.lds_em_smooth(params, y).loglik for y in seqs)
        assert block.loglik == pytest.approx(per_seq, rel=1e-12)


def test_em_iteration_smooths_block_once(monkeypatch):
    rng = np.random.default_rng(43)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 5, 7)
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (baselines, "lds_em_smooth"),
        (baselines, "lds_em_filter"),
        (linalg, "cholesky_spd"),
    ):
        count(module, name)
    baselines.lds_em_fit(seqs, d=2, n_iter=1, init=params)
    assert calls == {"lds_em_smooth": 1, "lds_em_filter": 1, "cholesky_spd": 1}


@pytest.mark.parametrize("lead", [(), (3,)])
def test_em_filter_equals_model_filter_on_pseudo_observations(lead):
    """Initial-state indexing of the two callers of the Kalman passes.

    The model's chain starts at an unobserved x_0 and the record keeps it as
    row 0; EM's first state x_1 is observed.  With emission I, R = diag(v),
    and x_1's predicted moments as EM's initial ones, EM's rows are the
    model's rows 1..T, and the log-likelihood is the model's log Z.
    """
    rng = np.random.default_rng(53)
    d, t_len = 2, 6
    dyn = models.LinearDynamics(
        trans=0.6 * np.eye(d) + 0.2 * rng.standard_normal((d, d)),
        noise_raw=0.3 * rng.standard_normal(linalg.tril_size(d)),
        init_mean=rng.standard_normal(d),
        init_raw=0.3 * rng.standard_normal(linalg.tril_size(d)),
    )
    a, q = dyn.trans, dyn.noise_cov
    v_one = np.exp(0.5 * rng.standard_normal(d))
    m = rng.standard_normal(lead + (t_len, d))
    params = baselines.LdsEmParams(
        trans=a, trans_cov=q, emit=np.eye(d), emit_cov=np.diag(v_one),
        init_mean=a @ dyn.init_mean, init_cov=a @ dyn.init_cov @ a.T + q,
    )
    xf, pf, xp, pp, loglik = baselines.lds_em_filter(params, m)
    rec = infnet.lds_filter(dyn, m, np.broadcast_to(v_one, m.shape))
    np.testing.assert_allclose(xf, rec.mu_filt[..., 1:, :], rtol=1e-12)
    np.testing.assert_allclose(xp, rec.mu_pred, rtol=1e-12)
    for got, want in ((pf, rec.p_filt[..., 1:, :, :]), (pp, rec.p_pred)):
        np.testing.assert_allclose(np.broadcast_to(got, want.shape), want, rtol=1e-12)
    assert loglik == pytest.approx(float(np.sum(rec.log_z)), rel=1e-12)


def test_em_filter_and_smoother_run_one_chain_core(monkeypatch):
    rng = np.random.default_rng(59)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 4, 6)
    calls = {}
    for name in ("kalman_covariances", "kalman_means"):
        core = getattr(infnet, name)

        def counted(*args, _name=name, _core=core):
            calls[_name] = calls.get(_name, 0) + 1
            return _core(*args)

        monkeypatch.setattr(infnet, name, counted)
    baselines.lds_em_filter(params, seqs)
    baselines.lds_em_filter(params, seqs[0])
    baselines.lds_em_smooth(params, seqs)
    assert calls == {"kalman_covariances": 1, "kalman_means": 3}
    baselines.lds_em_filter(params, seqs[:, :4])
    assert calls == {"kalman_covariances": 2, "kalman_means": 4}
    baselines.lds_em_smooth(dataclasses.replace(params), seqs)
    assert calls == {"kalman_covariances": 3, "kalman_means": 5}


def fresh_copy(params):
    return baselines.LdsEmParams(
        **{f.name: getattr(params, f.name).copy() for f in dataclasses.fields(params)}
    )


def assert_same_outputs(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_warm_memo_outputs_equal_fresh_params():
    rng = np.random.default_rng(61)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 4, 7)
    for y in (seqs, seqs[1], seqs[:, :5], seqs[2, :5], seqs, seqs[1]):
        for entry, fields in (
            (baselines.lds_em_filter, lambda out: out),
            (baselines.lds_em_smooth, lambda sm: (sm.mean, sm.cov, sm.cross, sm.loglik)),
        ):
            assert_same_outputs(fields(entry(params, y)), fields(entry(fresh_copy(params), y)))
    assert sorted(params._by_length) == [5, 7]


def test_memo_and_params_are_read_only():
    rng = np.random.default_rng(67)
    source = random_lds_params(rng, 2, 3)
    seqs = simulate(source, rng, 3, 6)
    trans = source.trans.copy()
    params = dataclasses.replace(source, trans=trans)
    want = baselines.lds_em_smooth(fresh_copy(params), seqs)
    trans[0, 0] += 1.0
    for name in ("trans", "emit_cov"):
        with pytest.raises(ValueError):
            getattr(params, name)[0, 0] = 0.0
    _, pf, _, pp, _ = baselines.lds_em_filter(params, seqs)
    sm = baselines.lds_em_smooth(params, seqs)
    for shared in (pf, pp, sm.cov, sm.cross):
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 0.0
    assert_same_outputs((sm.mean, sm.cov, sm.cross), (want.mean, want.cov, want.cross))
    for dup in (copy.copy(params), copy.deepcopy(params)):
        assert dup._by_length == {}
        assert not dup.trans.flags.writeable
        assert_same_outputs(
            baselines.lds_em_filter(dup, seqs), baselines.lds_em_filter(params, seqs)
        )


def test_fitted_params_reuse_their_chain_operators(monkeypatch):
    """Once a length has been smoothed, filter and smooth calls at that length
    build no chain operator; a new length builds its filter chain's once.
    Every cached operator is a read-only (T d, T d) matrix."""
    rng = np.random.default_rng(71)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 4, 9)
    baselines.lds_em_smooth(params, seqs)
    calls = []
    build = infnet.chain_operator
    monkeypatch.setattr(
        infnet, "chain_operator", lambda j, forward=False: calls.append(forward) or build(j, forward)
    )
    for y in (seqs, seqs[1], seqs[:2], seqs[3]):
        baselines.lds_em_filter(params, y)
        baselines.lds_em_smooth(params, y)
    assert calls == []
    baselines.lds_em_filter(params, seqs[:, :5])
    assert calls == [True]
    long, short = params._by_length[9], params._by_length[5]
    ops = (long["chain_operator"], long["smooth_operator"], short["chain_operator"])
    assert [op.shape for op in ops] == [(18, 18), (18, 18), (10, 10)]
    for op in ops:
        with pytest.raises(ValueError):
            op[0, 0] = 0.0


@pytest.mark.parametrize("d, t_len, chains", [(2, 9, 0), (32, 6, 6)])
def test_warm_mean_chains_skip_backward_chain_where_an_operator_is_kept(
    monkeypatch, d, t_len, chains
):
    """Warm filter and smooth calls, on a block and on one sequence, make no
    ``infnet.backward_chain`` call where T d is within
    ``infnet.CHAIN_OPERATOR_MAX_ROWS``; at d = 32 no operator is kept and
    each mean chain is one call (filter 1, smooth 2, per input)."""
    assert (t_len * d <= infnet.CHAIN_OPERATOR_MAX_ROWS) == (chains == 0)
    rng = np.random.default_rng(73)
    params = random_lds_params(rng, d, 3)
    seqs = simulate(params, rng, 3, t_len)
    baselines.lds_em_smooth(params, seqs)
    calls = []
    chain = infnet.backward_chain
    monkeypatch.setattr(
        infnet, "backward_chain", lambda *a, **k: calls.append(1) or chain(*a, **k)
    )
    for y in (seqs, seqs[1]):
        baselines.lds_em_filter(params, y)
        baselines.lds_em_smooth(params, y)
    assert len(calls) == chains


def test_lds_em_contract_errors_keep_their_type():
    rng = np.random.default_rng(47)
    params = random_lds_params(rng, 1, 2)
    seqs = simulate(params, rng, 2, 5)
    with pytest.raises(ContractError, match="sequences"):
        baselines.lds_em_loglik(params, seqs[0])
    with pytest.raises(ContractError, match="sequences"):
        baselines.lds_em_tau_mae(params, seqs[:0], tau=1)
    bad = seqs.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ContractError, match="non-finite values"):
        baselines.lds_em_fit(bad, d=1, n_iter=2)
    for y in (bad, bad[1]):
        for entry in (baselines.lds_em_filter, baselines.lds_em_smooth):
            with pytest.raises(ContractError, match="non-finite values"):
                entry(params, y)
    wide = np.concatenate([seqs, seqs[..., :1]], axis=-1)
    for entry in (
        lambda y: baselines.lds_em_filter(params, y),
        lambda y: baselines.lds_em_smooth(params, y),
        lambda y: baselines.lds_em_loglik(params, y),
        lambda y: baselines.lds_em_tau_mae(params, y, tau=1),
        lambda y: baselines.lds_em_fit(y, d=1, n_iter=1, init=params),
    ):
        with pytest.raises(ContractError, match="observed coordinates"):
            entry(wide)
    for entry in (baselines.lds_em_filter, baselines.lds_em_smooth):
        with pytest.raises(ContractError, match="observed coordinates"):
            entry(params, wide[0])
        with pytest.raises(ContractError, match="sequences"):
            entry(params, seqs[0, 0])
    assert params._by_length == {}


def test_lds_em_fit_rejects_bad_sizes_before_any_work(monkeypatch):
    rng = np.random.default_rng(53)
    params = random_lds_params(rng, 2, 3)
    seqs = simulate(params, rng, 3, 5)
    work = []
    for name in ("lds_em_init", "lds_em_smooth"):
        monkeypatch.setattr(baselines, name, lambda *a, **k: work.append(a))
    for kwargs, match in (
        (dict(d=0), "positive integer"),
        (dict(d=-1), "positive integer"),
        (dict(d=1.5), "positive integer"),
        (dict(d=1, init=params), "latent dimension 2"),
        (dict(d=2, n_iter=-1), "non-negative"),
        (dict(d=2, n_iter=-1, init=params), "non-negative"),
    ):
        with pytest.raises(ContractError, match=match):
            baselines.lds_em_fit(seqs, **kwargs)
    assert work == []
    assert params._by_length == {}


def einsum_em_fit(seqs, params, n_iter):
    """EM with the M-step's statistics written as per-element einsums."""
    n_seq, t_len, _ = seqs.shape
    logliks = []
    for _ in range(n_iter):
        sm = baselines.lds_em_smooth(params, seqs)
        xs = sm.mean
        logliks.append(sm.loglik)
        second = n_seq * sm.cov + np.einsum("nti,ntj->tij", xs, xs)
        s10 = n_seq * sm.cross.sum(axis=0) + np.einsum("nti,ntj->ij", xs[:, 1:], xs[:, :-1])
        syx = np.einsum("nti,ntj->ij", seqs, xs)
        syy = np.einsum("nti,ntj->ij", seqs, seqs)
        init_mean = xs[:, 0].sum(axis=0) / n_seq
        trans = s10 @ np.linalg.inv(second[:-1].sum(axis=0))
        emit = syx @ np.linalg.inv(second.sum(axis=0))
        params = baselines.LdsEmParams(
            trans=trans,
            trans_cov=linalg.symmetrize(
                (second[1:].sum(axis=0) - trans @ s10.T) / (n_seq * (t_len - 1))
            ),
            emit=emit,
            emit_cov=linalg.symmetrize((syy - emit @ syx.T) / (n_seq * t_len)),
            init_mean=init_mean,
            init_cov=linalg.symmetrize(second[0] / n_seq - np.outer(init_mean, init_mean)),
        )
    return params, np.asarray(logliks)


def test_em_at_latent_dim_four_matches_references_and_reruns_bit_exact():
    rng = np.random.default_rng(59)
    d, obs_dim, t_len = 4, 6, 7
    truth = random_lds_params(rng, d, obs_dim)
    seqs = simulate(truth, rng, 5, t_len)
    start = baselines.lds_em_init(seqs, d)
    got, got_ll = baselines.lds_em_fit(seqs, d=d, n_iter=3)
    want, want_ll = einsum_em_fit(seqs, start, 3)
    np.testing.assert_allclose(got_ll, want_ll, rtol=1e-12)
    for f in dataclasses.fields(got):
        # relative to each array's largest entry: emit_cov = (syy - emit syx^T) / (n T)
        # cancels to entries near 1e-3 of it, where the summation order shows
        ref = getattr(want, f.name)
        np.testing.assert_allclose(
            getattr(got, f.name), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=f.name
        )
    again, again_ll = baselines.lds_em_fit(seqs, d=d, n_iter=3)
    assert np.array_equal(again_ll, got_ll)
    assert_same_outputs(
        [getattr(again, f.name) for f in dataclasses.fields(got)],
        [getattr(got, f.name) for f in dataclasses.fields(got)],
    )
    for params in (truth, got):
        sm = baselines.lds_em_smooth(params, seqs)
        total = 0.0
        for n, y in enumerate(seqs):
            post_mean, post_cov, loglik = dense_lds_oracle(params, y)
            total += loglik
            np.testing.assert_allclose(sm.mean[n], post_mean, atol=1e-8)
            for t in range(t_len):
                blk = post_cov[t * d : (t + 1) * d, t * d : (t + 1) * d]
                np.testing.assert_allclose(sm.cov[t], blk, atol=1e-8)
            for t in range(t_len - 1):
                blk = post_cov[(t + 1) * d : (t + 2) * d, t * d : (t + 1) * d]
                np.testing.assert_allclose(sm.cross[t], blk, atol=1e-8)
        assert sm.loglik == pytest.approx(total, abs=1e-8)


def test_latent_dim_32_smooth_peak_memory():
    """A d = 32 smooth of 8 sequences (T = 20, D = 40) on fresh parameters
    peaks under 10 MB of traced memory, its covariance chain included."""
    seqs = np.random.default_rng(61).standard_normal((8, 20, 40))
    params = baselines.lds_em_init(seqs, 32)
    tracemalloc.start()
    try:
        baselines.lds_em_smooth(params, seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
