"""Training harness: config, loops, evaluation tasks, metrics, plot dumps."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from structvi import baselines, bound, checkpoint, data, harness, infnet, linalg, models, nnet
from structvi.errors import ContractError, InvalidParameterError, NumericalError, ParseError


def blob_dataset(n=240, k=3, dim=2, spread=6.0, seed=0, train_frac=0.7):
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((k, dim))
    labels = rng.integers(0, k, size=n)
    rows = centers[labels] + rng.standard_normal((n, dim))
    ds = data.split(data.Dataset(rows=rows, labels=labels), train_frac=train_frac, seed=seed)
    ds, _, _ = data.standardize(ds)
    return ds


def seq_dataset(n_seq=12, t_len=10, width_d=3, seed=0):
    ds = data.dot_sequences(
        n_seq=n_seq, t_len=t_len, width_d=width_d, seed=seed, noise_std=0.05
    )
    ds = data.split(ds, train_frac=0.7, seed=seed)
    ds, _, _ = data.standardize(ds)
    return ds


def scalar_affine(weight, raw_var, rng=None):
    net = nnet.init_mlp([1, 2], [], np.random.default_rng(0))
    return nnet.set_param_vector(net, np.array([weight, 0.0, 0.0, raw_var]))


def lds_fixture_state():
    encoder = scalar_affine(0.9, 0.4)
    decoder = scalar_affine(1.2, -0.1)
    inference_dyn = models.LinearDynamics(
        trans=np.array([[0.8]]),
        noise_raw=np.array([0.2]),
        init_mean=np.array([0.1]),
        init_raw=np.array([0.3]),
    )
    prior_dyn = models.LinearDynamics(
        trans=np.array([[0.7]]),
        noise_raw=np.array([0.1]),
        init_mean=np.array([0.0]),
        init_raw=np.array([0.0]),
    )
    net = infnet.LdsInferenceNet(dynamics=inference_dyn, encoder=encoder)
    return harness.TrainState(
        net=net,
        decoder=decoder,
        theta_posterior=None,
        pgm_posterior=None,
        pgm_prior=None,
        pgm_point=prior_dyn,
        prior_fixed=True,
        opt_nn=None,
        opt_phi=None,
        opt_pgm=None,
        van=None,
        iteration=0,
        data_dim=1,
    )


# ---------------------------------------------------------------------------
# Config


def test_config_round_trip():
    cfg = harness.TrainConfig(
        model_kind="latent-lds",
        n_components=4,
        latent_dim=3,
        hidden=(10, 20),
        beta1=0.5,
        beta2=0.02,
        beta3=0.03,
        batch_size=32,
        n_iters=17,
        seed=9,
        dataset="/tmp/run#1/some.txt",
        seq_len=8,
        optimizer="sgd",
        theta_nn="point",
        dof=4.5,
        eval_interval=5,
        train_frac=0.8,
        timing=False,
    )
    back = harness.config_from_text(harness.config_to_text(cfg))
    assert back == cfg
    empty = dataclasses.replace(cfg, hidden=(), model_kind="latent-gmm", seq_len=0)
    assert harness.config_from_text(harness.config_to_text(empty)) == empty


def test_config_overrides_and_errors():
    base = harness.TrainConfig()
    cfg = harness.config_from_text("n_iters = 50\nhidden = 10,20\nn_iters = 60\n", base=base)
    assert cfg.n_iters == 60 and cfg.hidden == (10, 20)
    with pytest.raises(ParseError, match="unknown config key"):
        harness.config_from_text("bogus = 1\n")
    with pytest.raises(ParseError, match="line 2"):
        harness.config_from_text("seed = 1\nn_iters = abc\n")
    with pytest.raises(ParseError, match="key = value"):
        harness.config_from_text("just words\n")
    with pytest.raises(ParseError):
        harness.load_config("/nonexistent/config.txt")


@pytest.mark.parametrize(
    "text, value",
    [("0", False), ("1", True), ("TRUE", True), ("false", False), ("Yes", True), ("no", False),
     ("on", None), ("ture", None), ("", None)],
)
def test_timing_switch_takes_only_boolean_words(text, value):
    if value is None:
        with pytest.raises(ParseError, match="timing"):
            harness.config_from_text(f"timing = {text}\n")
    else:
        assert harness.config_from_text(f"timing = {text}\n").timing is value


def test_config_validation():
    with pytest.raises(ContractError, match="model kind"):
        harness.TrainConfig(model_kind="latent-hmm").validate()
    with pytest.raises(ContractError, match="do not combine"):
        harness.TrainConfig(theta_nn="bayes", optimizer="van").validate()
    with pytest.raises(ContractError, match="seq_len"):
        harness.TrainConfig(model_kind="latent-lds", seq_len=0).validate()
    with pytest.raises(ContractError, match="dof"):
        harness.TrainConfig(dof=2.0).validate()
    with pytest.raises(ContractError, match="beta3"):
        harness.TrainConfig(optimizer="van", beta3=0.0).validate()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["beta1", "beta2", "beta3", "dof"])
def test_config_rejects_non_finite_step_sizes_and_dof(field, value):
    cfg = harness.TrainConfig(model_kind="latent-tmm", **{field: value})
    with pytest.raises(ContractError, match="dof" if field == "dof" else "step sizes"):
        cfg.validate()


# ---------------------------------------------------------------------------
# Forecast evaluation against hand bookkeeping


def hand_tau_mae(state, seqs, tau):
    """Per-origin prefix filters, explicit loops over the forecast recipe."""
    total, count = 0.0, 0
    for seq in seqs:
        t_len = seq.shape[0]
        for t in range(1, t_len - tau + 1):
            m, v = infnet.encode(state.net, seq[:t])
            record = infnet.lds_filter(state.net.dynamics, m, v)
            x = record.mu_filt[-1]
            for _ in range(tau):
                x = state.pgm_point.trans @ x
            mean, _, _ = nnet.forward(state.decoder, x[None, :])
            total += float(np.abs(seq[t + tau - 1] - mean[0]).sum())
            count += seq.shape[1]
    return total / count


def test_tau_ahead_matches_hand_fixture():
    state = lds_fixture_state()
    seqs = np.array(
        [
            [[0.5], [-0.2], [0.9], [0.3]],
            [[1.0], [0.1], [-0.4], [0.6]],
        ]
    )
    for tau in (1, 2, 3):
        got = harness.tau_ahead_mae(state, seqs, tau)
        want = hand_tau_mae(state, seqs, tau)
        assert got == pytest.approx(want, abs=1e-12)


def test_tau_zero_is_reconstruction_error():
    state = lds_fixture_state()
    rng = np.random.default_rng(4)
    seqs = rng.standard_normal((3, 5, 1))
    got = harness.tau_ahead_mae(state, seqs, 0)
    total, count = 0.0, 0
    for seq in seqs:
        m, v = infnet.encode(state.net, seq)
        record = infnet.lds_filter(state.net.dynamics, m, v)
        mean, _, _ = nnet.forward(state.decoder, record.mu_filt[1:])
        total += float(np.abs(seq - mean).sum())
        count += seq.size
    assert got == pytest.approx(total / count, rel=1e-12)


def test_tau_ahead_contracts():
    state = lds_fixture_state()
    seqs = np.zeros((2, 4, 1))
    with pytest.raises(ContractError, match="tau"):
        harness.tau_ahead_mae(state, seqs, 4)
    ds = blob_dataset(n=60)
    cfg = harness.TrainConfig(n_components=2, n_iters=1, eval_interval=1)
    gmm_state = harness.init_state(cfg, ds.dim)
    with pytest.raises(ContractError, match="dynamics"):
        harness.tau_ahead_mae(gmm_state, seqs, 1)


@pytest.mark.parametrize("tau", [1.0, 0.5, True, "1"], ids=["float", "half", "bool", "str"])
def test_tau_ahead_rejects_a_tau_that_is_not_an_integer(tau):
    """A float tau inside [0, T) is a contract error, as is a bool."""
    state = lds_fixture_state()
    seqs = np.zeros((2, 4, 1))
    with pytest.raises(ContractError, match="tau must be an integer"):
        harness.tau_ahead_mae(state, seqs, tau)


def test_evaluate_takes_integer_taus_only():
    ds = seq_dataset(seed=12)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=12, seq_len=10, timing=False,
    )
    state = harness.init_state(cfg, ds.dim)
    with pytest.raises(ContractError, match="tau must be an integer"):
        harness.evaluate(state, ds, ("tau-ahead",), taus=(1.0,))
    want = harness.evaluate(state, ds, ("tau-ahead",), taus=(1, 2))["tau_mae"]
    got = harness.evaluate(state, ds, ("tau-ahead",), taus=(np.int64(1), np.int32(2)))["tau_mae"]
    assert got == want


# ---------------------------------------------------------------------------
# Imputation


def test_imputation_zero_decoder_oracle():
    ds = blob_dataset(n=120, seed=2)
    cfg = harness.TrainConfig(n_components=2, hidden=(4,), n_iters=1)
    state = harness.init_state(cfg, ds.dim)
    state.decoder = nnet.set_param_vector(
        state.decoder, np.zeros(nnet.num_params(state.decoder))
    )
    rows = ds.rows[ds.test_idx]
    seed = 11
    mse = harness.imputation_mse(state, rows, seed=seed)
    mask = np.random.default_rng(seed).random(rows.shape) < 0.2
    assert mse == pytest.approx(float(np.mean(rows[mask] ** 2)), rel=1e-12)


def test_imputation_deterministic_and_finite():
    ds = blob_dataset(n=120, seed=3)
    cfg = harness.TrainConfig(n_components=3, hidden=(6,), n_iters=1)
    state = harness.init_state(cfg, ds.dim)
    rows = ds.rows[ds.test_idx]
    a = harness.imputation_mse(state, rows, seed=5)
    b = harness.imputation_mse(state, rows, seed=5)
    c = harness.imputation_mse(state, rows, seed=6)
    assert a == b and np.isfinite(a) and np.isfinite(c)


# ---------------------------------------------------------------------------
# Structured training loop


def test_partial_updates_leave_nets_frozen_and_raise_bound():
    """With the neural step sizes at zero only the conjugate block moves."""
    medians = []
    curves = []
    for seed in range(10):
        ds = blob_dataset(n=240, seed=seed)
        cfg = harness.TrainConfig(
            n_components=3,
            latent_dim=2,
            hidden=(),
            beta1=0.2,
            beta2=0.0,
            beta3=0.0,
            batch_size=512,
            n_iters=60,
            seed=seed,
            eval_interval=6,
            timing=False,
        )
        init = harness.init_state(cfg, ds.dim)
        res = harness.train_structured(cfg, ds=ds)
        np.testing.assert_array_equal(
            res.state.net.phi_vector(), init.net.phi_vector()
        )
        np.testing.assert_array_equal(
            nnet.param_vector(res.state.decoder), nnet.param_vector(init.decoder)
        )
        assert not np.allclose(
            res.state.pgm_posterior.flat_values(), init.pgm_posterior.flat_values()
        )
        curves.append([row["train_bound"] for row in res.metrics])
    med = np.median(np.array(curves), axis=0)
    assert np.all(np.diff(med) > -0.1)
    assert med[-1] > med[0] + 0.3


def test_single_component_fixed_prior_matches_plain_vae():
    """With one standard-normal component the run is a plain VAE in disguise."""
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((800, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    ds = data.split(data.Dataset(rows=rows), train_frac=0.7, seed=0)
    ds, _, _ = data.standardize(ds)
    cfg = harness.TrainConfig(
        model_kind="latent-gmm",
        n_components=1,
        latent_dim=2,
        hidden=(8,),
        beta2=0.05,
        beta3=0.05,
        batch_size=64,
        n_iters=600,
        seed=12,
        eval_interval=300,
        timing=False,
    )
    std_prior = models.GaussianMixture(
        logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
    )
    res = harness.train_structured(cfg, ds=ds, prior_override=std_prior)
    vae_res = harness.train_vae(cfg, ds=ds)

    test_rows = ds.rows[ds.test_idx]
    got = harness.per_datum_bound(res.state, test_rows, seed=99, n_samples=64)

    decoder, encoder = vae_res.state
    from structvi import vae as vae_mod

    eval_rng = np.random.default_rng(99)
    vals = []
    for _ in range(64):
        eps = eval_rng.standard_normal((test_rows.shape[0], 2))
        elbo, _, _ = vae_mod.elbo_and_grads(decoder, encoder, test_rows, eps)
        vals.append(elbo / test_rows.shape[0])
    want = float(np.mean(vals))
    assert got == pytest.approx(want, rel=0.02)


def test_smoke_run_is_fast_and_finite():
    import time

    ds = data.pinwheel(n_per_arm=100, arms=5, seed=1)
    ds = data.split(ds, train_frac=0.7, seed=1)
    ds, _, _ = data.standardize(ds)
    cfg = harness.TrainConfig(
        n_components=5,
        latent_dim=2,
        hidden=(16, 16),
        batch_size=64,
        n_iters=50,
        seed=1,
        eval_interval=10,
        timing=False,
    )
    start = time.perf_counter()
    res = harness.train_structured(cfg, ds=ds)
    assert time.perf_counter() - start < 60.0
    for row in res.metrics:
        for col in ("train_bound", "val_bound", "test_bound", "imputation_mse"):
            assert np.isfinite(row[col])


def test_lds_training_smoke():
    ds = seq_dataset()
    cfg = harness.TrainConfig(
        model_kind="latent-lds",
        latent_dim=2,
        hidden=(8,),
        beta1=0.02,
        beta2=0.02,
        beta3=0.02,
        n_iters=30,
        seed=2,
        seq_len=10,
        eval_interval=10,
        timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    for row in res.metrics:
        assert np.isfinite(row["train_bound"])
        assert np.isfinite(row["tau_mae"])
    init = harness.init_state(cfg, ds.dim)
    assert not np.array_equal(
        res.state.pgm_point.param_vector(), init.pgm_point.param_vector()
    )


def test_latent_dim_32_train_step_peak_memory():
    """One d = 32, T = 20 dynamics step on dots frames peaks under 20 MB of
    traced memory: its chains carry d x d and d x (d+1) rows, so no per-step
    array grows with d^4."""
    ds = seq_dataset(n_seq=4, t_len=20, width_d=10)
    cfg = harness.TrainConfig(model_kind="latent-lds", latent_dim=32, seq_len=20, timing=False)
    state = harness.init_state(cfg, ds.dim)
    tracemalloc.start()
    try:
        harness.train_step(state, cfg, ds.sequences()[0], ds.n_seqs, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_tmm_training_smoke():
    ds = blob_dataset(n=200, seed=4)
    ds = data.inject_outliers(ds, fraction=0.2, outlier_std=6.0, seed=4)
    cfg = harness.TrainConfig(
        model_kind="latent-tmm",
        n_components=3,
        hidden=(6,),
        beta1=0.02,
        n_iters=30,
        seed=4,
        eval_interval=15,
        timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    assert all(np.isfinite(row["train_bound"]) for row in res.metrics)
    assert isinstance(res.state.pgm_point, models.StudentMixture)
    assert res.state.pgm_point.dof == cfg.dof


def test_bayes_decoder_and_van_smoke():
    ds = blob_dataset(n=160, seed=5)
    bayes_cfg = harness.TrainConfig(
        n_components=2, hidden=(4,), theta_nn="bayes", n_iters=25, seed=5,
        eval_interval=25, timing=False,
    )
    res = harness.train_structured(bayes_cfg, ds=ds)
    assert np.all(res.state.theta_posterior.sigma2 > 0)
    assert all(np.isfinite(row["train_bound"]) for row in res.metrics)

    van_cfg = harness.TrainConfig(
        n_components=2, hidden=(4,), optimizer="van", n_iters=25, seed=5,
        eval_interval=25, timing=False,
    )
    init = harness.init_state(van_cfg, ds.dim)
    res = harness.train_structured(van_cfg, ds=ds)
    assert not np.array_equal(res.state.van.mu, init.van.mu)
    assert all(np.isfinite(row["train_bound"]) for row in res.metrics)


def test_van_search_variance_contracts_on_a_dynamics_run():
    ds = seq_dataset(n_seq=12, seed=17)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seq_len=10,
        optimizer="van", n_iters=20, seed=17, eval_interval=20, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    sigma2 = res.state.van.sigma2
    assert np.all(sigma2 <= harness.VAN_INIT_SIGMA2)
    assert np.median(sigma2) < harness.VAN_INIT_SIGMA2
    assert all(np.isfinite(row["train_bound"]) for row in res.metrics)


def test_full_run_determinism(tmp_path):
    ds = blob_dataset(n=200, seed=6)
    cfg = harness.TrainConfig(
        n_components=3, hidden=(6,), n_iters=20, seed=6, eval_interval=5,
        timing=False,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    harness.train_structured(cfg, ds=ds, out_dir=str(out_a))
    harness.train_structured(cfg, ds=ds, out_dir=str(out_b))
    metrics_a = (out_a / "structured-metrics.txt").read_bytes()
    metrics_b = (out_b / "structured-metrics.txt").read_bytes()
    assert metrics_a == metrics_b
    assert (out_a / "structured.ckpt").read_bytes() == (out_b / "structured.ckpt").read_bytes()


def test_divergence_checkpoints_last_good_state(tmp_path):
    ds = blob_dataset(n=120, seed=7)
    cfg = harness.TrainConfig(
        n_components=2,
        hidden=(4,),
        optimizer="sgd",
        beta2=1e8,
        beta3=1e8,
        n_iters=40,
        seed=7,
        eval_interval=40,
        timing=False,
    )
    # The step sizes overflow the covariance factors on purpose; the overflow
    # is reported as an error, with no floating-point warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((NumericalError, InvalidParameterError)):
            harness.train_structured(cfg, ds=ds, out_dir=str(tmp_path))
    state, _ = harness.load_state(str(tmp_path / "structured.ckpt"))
    rows = ds.rows[ds.test_idx]
    assert np.isfinite(harness.per_datum_bound(state, rows, seed=1))


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-tmm"])
def test_diverging_mixture_run_fails_without_warning(kind):
    """Plain sgd at the default step sizes diverges on a small pinwheel; the
    run ends in InvalidParameterError, with no floating-point warning."""
    raw = data.pinwheel(n_per_arm=40, arms=3, seed=0)
    ds = data.standardize(data.split(raw, train_frac=0.7, seed=0))[0]
    cfg = harness.TrainConfig(
        model_kind=kind, n_components=3, hidden=(8,), batch_size=16, optimizer="sgd",
        n_iters=200, seed=0, timing=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            harness.train_structured(cfg, ds=ds)


@pytest.mark.parametrize("beta", [1e-3, 1e-4])
def test_diverging_dynamics_run_fails_without_warning(beta):
    """Plain sgd at beta2 = beta3 = 1e-3 or 1e-4 diverges on the benchmark's
    dots data within 10 steps; the run ends in InvalidParameterError, with
    no floating-point warning."""
    raw = data.dot_sequences(50, 20, 10, noise_std=0.05, seed=3)
    ds = data.standardize(data.split(raw, seed=3))[0]
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(50, 50), seq_len=20,
        optimizer="sgd", beta2=beta, beta3=beta, n_iters=10, eval_interval=10,
        seed=3, timing=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            harness.train_structured(cfg, ds=ds)


# ---------------------------------------------------------------------------
# Checkpoint round trips


def checkpoint_scores(state, rows, seq_len=0):
    return (
        harness.per_datum_bound(state, rows, seq_len=seq_len, seed=7, n_samples=4),
        harness.imputation_mse(state, rows, seq_len=seq_len, seed=7),
    )


def test_checkpoint_round_trip_gmm(tmp_path):
    ds = blob_dataset(n=160, seed=8)
    cfg = harness.TrainConfig(
        n_components=3, hidden=(6,), n_iters=25, seed=8, eval_interval=25,
        timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, res.state, cfg)
    loaded, cfg_back = harness.load_state(path)
    assert cfg_back == cfg
    rows = ds.rows[ds.test_idx]
    assert checkpoint_scores(res.state, rows) == checkpoint_scores(loaded, rows)
    assert loaded.iteration == res.state.iteration


def test_checkpoint_round_trip_lds(tmp_path):
    ds = seq_dataset(seed=9)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), n_iters=15, seed=9,
        seq_len=10, eval_interval=15, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, res.state, cfg)
    loaded, _ = harness.load_state(path)
    rows = ds.rows[ds.test_idx]
    assert checkpoint_scores(res.state, rows, seq_len=10) == checkpoint_scores(
        loaded, rows, seq_len=10
    )


def test_checkpoint_non_scalar_iteration_is_parse_error(tmp_path):
    cfg = harness.TrainConfig(n_components=2, hidden=(4,), timing=False)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2), cfg)
    arrays, meta = checkpoint.load(path)
    arrays["iteration"] = np.array([3.0])
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match="iteration"):
        harness.load_state(path)


@pytest.mark.parametrize("value", [np.nan, 1.5, -3.0, 1e30])
def test_checkpoint_iteration_that_is_no_step_count_is_parse_error(tmp_path, value):
    """The stored iteration must be a whole, non-negative count that float64
    holds exactly; anything else fails at load naming the file."""
    cfg = harness.TrainConfig(n_components=2, hidden=(4,), timing=False)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2), cfg)
    arrays, meta = checkpoint.load(path)
    arrays["iteration"] = np.array(value)
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match="run.ckpt: iteration"):
        harness.load_state(path)


@pytest.mark.parametrize(
    "kind,name,extra",
    [
        ("latent-gmm", "lambda", -1),
        ("latent-gmm", "lambda", 5),
        ("latent-lds", "theta_pgm", -1),
        ("latent-gmm", "phi", -1),
        ("latent-tmm", "theta_pgm", 2),
    ],
)
def test_checkpoint_vector_of_wrong_length_is_parse_error(tmp_path, kind, name, extra):
    cfg = harness.TrainConfig(
        model_kind=kind, n_components=2, hidden=(4,), seq_len=5, timing=False
    )
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2), cfg)
    arrays, meta = checkpoint.load(path)
    size = arrays[name].size
    arrays[name] = np.resize(arrays[name], size + extra)
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match=rf"{name} .*\({size + extra},\).*\({size},\)"):
        harness.load_state(path)


@pytest.mark.parametrize(
    "optimizer,theta_nn,name,extra",
    [
        ("adagrad", "point", "lambda", None),
        ("adagrad", "point", "iteration", None),
        ("adagrad", "point", "theta_nn", None),
        ("adagrad", "point", "theta_nn", 1),
        ("adagrad", "point", "adagrad_phi", None),
        ("adagrad", "point", "adagrad_nn", -1),
        ("adagrad", "bayes", "theta_mu", 1),
        ("van", "point", "van_mu", -1),
        ("van", "point", "van_sigma2", None),
    ],
)
def test_checkpoint_missing_or_resized_array_is_parse_error(
    tmp_path, optimizer, theta_nn, name, extra
):
    """Every array the configured state needs is read through one check;
    ``extra`` None deletes the array, otherwise resizes it by ``extra``."""
    cfg = harness.TrainConfig(
        n_components=2, hidden=(4,), optimizer=optimizer, theta_nn=theta_nn, timing=False
    )
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2), cfg)
    arrays, meta = checkpoint.load(path)
    if extra is None:
        del arrays[name]
    else:
        arrays[name] = np.resize(arrays[name], arrays[name].size + extra)
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match=rf"{name} (is missing|has shape)"):
        harness.load_state(path)


def fixed_prior_round_trip(tmp_path, cfg, ds, fixed, seq_len=0):
    """Train under the fixed prior ``fixed``, save, load, and check the loaded
    state keeps the prior and scores the test rows as the trained one does."""
    res = harness.train_structured(cfg, ds=ds, prior_override=fixed)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, res.state, cfg)
    loaded, _ = harness.load_state(path)
    assert type(loaded.pgm_point) is type(fixed)
    np.testing.assert_array_equal(loaded.pgm_point.param_vector(), fixed.param_vector())
    rows = ds.rows[ds.test_idx]
    assert checkpoint_scores(res.state, rows, seq_len) == checkpoint_scores(
        loaded, rows, seq_len
    )


def test_checkpoint_round_trip_fixed_prior(tmp_path):
    std_prior = models.GaussianMixture(
        logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
    )
    cfg = harness.TrainConfig(
        n_components=1, hidden=(4,), n_iters=10, seed=10, eval_interval=10,
        timing=False,
    )
    fixed_prior_round_trip(tmp_path, cfg, blob_dataset(n=120, seed=10), std_prior)


def test_checkpoint_round_trip_fixed_dynamics_prior(tmp_path):
    fixed = models.LinearDynamics(
        trans=0.9 * np.eye(2), noise_raw=np.zeros(3), init_mean=np.zeros(2),
        init_raw=np.zeros(3),
    )
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), n_iters=10, seed=10,
        seq_len=10, eval_interval=10, timing=False,
    )
    fixed_prior_round_trip(tmp_path, cfg, seq_dataset(seed=10), fixed, seq_len=10)


def test_checkpoint_keeps_fixed_student_prior_dof(tmp_path):
    """A fixed Student-t prior comes back with the dof it was trained with,
    not the config's; a checkpoint that lacks the stored dof falls back to the
    config's, as such checkpoints always loaded."""
    ds = blob_dataset(n=150, seed=12)
    cfg = harness.TrainConfig(
        model_kind="latent-tmm", n_components=3, hidden=(6,), dof=5.0, n_iters=20,
        seed=12, eval_interval=20, timing=False,
    )
    rng = np.random.default_rng(12)
    override = models.StudentMixture(
        logits=np.zeros(3), means=rng.standard_normal((3, 2)), chol_raw=np.zeros((3, 3)),
        dof=3.0,
    )
    res = harness.train_structured(cfg, ds=ds, prior_override=override)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, res.state, cfg)
    loaded, _ = harness.load_state(path)
    rows = ds.rows[ds.test_idx]
    assert loaded.pgm_point.dof == 3.0
    assert harness.per_datum_bound(loaded, rows, seed=3) == harness.per_datum_bound(
        res.state, rows, seed=3
    )

    arrays, meta = checkpoint.load(path)
    del meta["prior.dof"]
    checkpoint.save(path, arrays, meta)
    legacy, _ = harness.load_state(path)
    assert legacy.pgm_point.dof == cfg.dof
    np.testing.assert_array_equal(
        legacy.pgm_point.param_vector(), res.state.pgm_point.param_vector()
    )


@pytest.mark.parametrize("key, value", [("prior.dof", "many"), ("prior.scale", "2.0")])
def test_checkpoint_bad_fixed_prior_metadata_is_parse_error(tmp_path, key, value):
    """A fixed prior's stored hyperparameter that does not parse, or that the
    prior class does not have, fails as a parse error naming the key."""
    cfg = harness.TrainConfig(
        model_kind="latent-tmm", n_components=2, hidden=(4,), timing=False
    )
    fixed = models.StudentMixture(
        logits=np.zeros(2), means=np.zeros((2, 2)), chol_raw=np.zeros((2, 3)), dof=3.0
    )
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2, prior_override=fixed), cfg)
    arrays, meta = checkpoint.load(path)
    meta[key] = value
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match=key):
        harness.load_state(path)


@pytest.mark.parametrize(
    "model_kind, key, value, names",
    [
        ("latent-gmm", "data_dim", None, "data_dim"),
        ("latent-gmm", "data_dim", "2.5", "data_dim"),
        ("latent-gmm", "data_dim", "0", "data_dim"),
        ("latent-gmm", "config", None, "config"),
        ("latent-gmm", "prior_kind", "LinearDynamics", "LinearDynamics"),
        ("latent-lds", "prior_kind", "GaussianMixture", "GaussianMixture"),
    ],
)
def test_checkpoint_bad_train_state_metadata_is_parse_error(tmp_path, model_kind, key, value, names):
    """Train-state metadata that is missing (``value`` None) or does not
    parse fails at load as a parse error, as does a fixed prior of another
    family than the configured network's factor; at k = d = 2 the two
    families' parameter vectors have the same 12 entries."""
    cfg = harness.TrainConfig(
        model_kind=model_kind, n_components=2, hidden=(4,), seq_len=5, timing=False
    )
    fixed = harness.init_state(cfg, 2).net.factor
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, harness.init_state(cfg, 2, prior_override=fixed), cfg)
    arrays, meta = checkpoint.load(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    checkpoint.save(path, arrays, meta)
    with pytest.raises(ParseError, match=names):
        harness.load_state(path)


def optimizer_arrays(state):
    arrays = {}
    for name in ("opt_nn", "opt_phi", "opt_pgm"):
        if getattr(state, name) is not None:
            arrays[name] = getattr(state, name)
    if state.van is not None:
        arrays["van_mu"], arrays["van_sigma2"] = state.van.mu, state.van.sigma2
    if state.theta_posterior is not None:
        arrays["theta_mu"] = state.theta_posterior.mu
        arrays["theta_sigma2"] = state.theta_posterior.sigma2
    return arrays


@pytest.mark.parametrize(
    "optimizer,theta_nn,restored",
    [
        ("adagrad", "point", ["opt_nn", "opt_phi"]),
        ("van", "point", ["van_mu", "van_sigma2"]),
        ("adagrad", "bayes", ["opt_phi", "theta_mu", "theta_sigma2"]),
    ],
    ids=["adagrad", "van", "bayes"],
)
def test_fixed_prior_checkpoint_keeps_optimizer_state(tmp_path, optimizer, theta_nn, restored):
    ds = blob_dataset(n=120, seed=10)
    std_prior = models.GaussianMixture(
        logits=np.zeros(1), means=np.zeros((1, 2)), chol_raw=np.zeros((1, 3))
    )
    cfg = harness.TrainConfig(
        n_components=1, hidden=(4,), n_iters=10, seed=10, eval_interval=10,
        optimizer=optimizer, theta_nn=theta_nn, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds, prior_override=std_prior)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, res.state, cfg)
    loaded, _ = harness.load_state(path)
    saved, back = optimizer_arrays(res.state), optimizer_arrays(loaded)
    assert sorted(back) == sorted(saved)
    for name in restored:
        assert np.any(saved[name] != 0), name
    for name in saved:
        np.testing.assert_array_equal(back[name], saved[name], err_msg=name)


# ---------------------------------------------------------------------------
# Metrics log


def test_metrics_write_read_round_trip(tmp_path):
    rows = [
        {
            "iteration": 0,
            "train_bound": -1.5,
            "val_bound": float("nan"),
            "test_bound": -1.7,
            "imputation_mse": 0.3,
            "tau_mae": float("nan"),
            "seconds": 0.0,
        },
        {
            "iteration": 10,
            "train_bound": -1.2,
            "val_bound": -1.3,
            "test_bound": -1.4,
            "imputation_mse": 0.2,
            "tau_mae": 0.9,
            "seconds": 1.25,
        },
    ]
    path = str(tmp_path / "metrics.txt")
    harness.write_metrics(path, rows)
    back = harness.read_metrics(path)
    assert [harness.format_metrics_row(r) for r in back] == [
        harness.format_metrics_row(r) for r in rows
    ]
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline().split() == list(harness.METRICS_COLUMNS)
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("wrong header\n")
    with pytest.raises(ParseError, match="header"):
        harness.read_metrics(bad)


# ---------------------------------------------------------------------------
# Dataset plumbing


def test_load_dataset_sniffs_labels(tmp_path):
    ds = data.pinwheel(n_per_arm=40, arms=3, seed=2)
    path = str(tmp_path / "pin.txt")
    data.export(ds, path)
    cfg = harness.TrainConfig(dataset=path, train_frac=0.7, seed=2)
    loaded = harness.load_dataset(cfg)
    assert loaded.labels is not None and loaded.labels.shape == (120,)
    train = loaded.rows[loaded.train_idx]
    np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-9)
    with pytest.raises(ContractError, match="dataset"):
        harness.load_dataset(harness.TrainConfig(dataset=""))


def test_load_dataset_sequences(tmp_path):
    ds = data.dot_sequences(n_seq=6, t_len=8, width_d=3, seed=3)
    path = str(tmp_path / "seqs.txt")
    data.export(ds, path)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", dataset=path, seq_len=8, seed=3
    )
    loaded = harness.load_dataset(cfg)
    assert loaded.seq_len == 8 and loaded.n_seqs == 6
    assert loaded.train_idx.size % 8 == 0


# ---------------------------------------------------------------------------
# Evaluate dispatch and baselines


def test_evaluate_tasks_and_contracts():
    ds = blob_dataset(n=160, seed=11)
    cfg = harness.TrainConfig(
        n_components=2, hidden=(4,), n_iters=10, seed=11, eval_interval=10,
        timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    out = harness.evaluate(
        res.state, ds, ["bound", "imputation", "sample-dump"], seed=1, n_draws=50
    )
    assert np.isfinite(out["bound"]) and np.isfinite(out["imputation_mse"])
    assert out["samples"].y.shape == (50, 2)
    with pytest.raises(ContractError, match="dynamics"):
        harness.evaluate(res.state, ds, ["tau-ahead"])
    with pytest.raises(ContractError, match="unknown evaluation task"):
        harness.evaluate(res.state, ds, ["volume"])


def test_evaluate_tau_ahead_on_lds():
    ds = seq_dataset(seed=12)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), n_iters=10, seed=12,
        seq_len=10, eval_interval=10, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    out = harness.evaluate(res.state, ds, ["tau-ahead"], taus=(1, 3))
    assert set(out["tau_mae"]) == {1, 3}
    assert all(np.isfinite(v) for v in out["tau_mae"].values())


@pytest.mark.parametrize(
    "trainer, kind",
    [(harness.train_vae, "latent-gmm"), (harness.train_vb_gmm, "latent-gmm"),
     (harness.train_lds_em, "latent-lds")],
    ids=["vae", "vb-gmm", "lds-em"],
)
def test_baseline_trainers_reject_an_unsplit_dataset(trainer, kind):
    ds = data.dot_sequences(n_seq=4, t_len=5, width_d=3, seed=0)
    cfg = harness.TrainConfig(
        model_kind=kind, n_components=2, hidden=(4,), n_iters=2, seq_len=5, timing=False
    )
    with pytest.raises(ContractError, match="split before training"):
        trainer(cfg, ds=ds)


def test_vb_gmm_wrapper(tmp_path):
    ds = blob_dataset(n=200, seed=13)
    cfg = harness.TrainConfig(n_components=3, n_iters=40, seed=13, timing=False)
    res = harness.train_vb_gmm(cfg, ds=ds, out_dir=str(tmp_path))
    bounds = [row["train_bound"] for row in res.metrics]
    assert np.all(np.diff(bounds) > -1e-8)
    assert np.isfinite(res.metrics[-1]["test_bound"])
    assert os.path.exists(res.metrics_path) and res.checkpoint_path == ""
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".ckpt")]
    back = harness.read_metrics(res.metrics_path)
    assert len(back) == len(res.metrics)


def test_lds_em_wrapper(tmp_path):
    ds = seq_dataset(seed=14)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, n_iters=15, seed=14, seq_len=10,
        timing=False,
    )
    res = harness.train_lds_em(cfg, ds=ds, out_dir=str(tmp_path))
    lls = [row["train_bound"] for row in res.metrics]
    assert np.all(np.diff(lls) > -1e-6)
    params, _ = res.state
    mae = baselines.lds_em_tau_mae(
        params, harness._as_sequences(ds.rows[ds.test_idx], 10), tau=1
    )
    assert np.isfinite(mae)


def test_lds_em_metrics_per_row_with_test_scores():
    ds = seq_dataset(seed=16)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, n_iters=4, seed=16, seq_len=10,
        timing=False,
    )
    res = harness.train_lds_em(cfg, ds=ds)
    params, logliks = res.state
    n_train = ds.train_idx.size
    test_seqs = harness._as_sequences(ds.rows[ds.test_idx], 10)
    for row, ll in zip(res.metrics, logliks):
        assert row["train_bound"] == ll / n_train
    for row in res.metrics[:-1]:
        assert np.isnan(row["test_bound"]) and np.isnan(row["tau_mae"])
    last = res.metrics[-1]
    assert last["test_bound"] == baselines.lds_em_loglik(params, test_seqs) / ds.test_idx.size
    assert last["tau_mae"] == baselines.lds_em_tau_mae(params, test_seqs, 1)


def test_lds_em_fit_runs_one_covariance_pass_per_parameter_set(monkeypatch):
    """k EM iterations filter k parameter sets; the fitted one is filtered
    once more, and its test log-likelihood and tau-MAE share that pass."""
    ds = seq_dataset(seed=17)
    n_iters = 3
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, n_iters=n_iters, seed=17, seq_len=10,
        timing=False,
    )
    calls = []
    core = infnet.kalman_covariances
    monkeypatch.setattr(infnet, "kalman_covariances", lambda *a: calls.append(1) or core(*a))
    res = harness.train_lds_em(cfg, ds=ds)
    assert np.isfinite(res.metrics[-1]["test_bound"]) and np.isfinite(res.metrics[-1]["tau_mae"])
    assert len(calls) == n_iters + 1


def test_vae_trainer_improves(tmp_path):
    ds = blob_dataset(n=240, seed=15)
    cfg = harness.TrainConfig(
        latent_dim=2, hidden=(8,), beta2=0.05, beta3=0.05, n_iters=150, seed=15,
        eval_interval=50, timing=False,
    )
    res = harness.train_vae(cfg, ds=ds, out_dir=str(tmp_path))
    bounds = [row["test_bound"] for row in res.metrics]
    assert bounds[-1] > bounds[0]
    assert res.checkpoint_path == "" and os.listdir(tmp_path) == ["vae-metrics.txt"]


@pytest.mark.parametrize(
    "fields", [{"optimizer": "sgd"}, {"optimizer": "van"}, {"theta_nn": "bayes"}],
    ids=["sgd", "van", "bayes"],
)
def test_vae_trainer_rejects_a_rule_it_does_not_run(fields):
    """The plain VAE steps a point decoder by adagrad; any other setting
    fails before the data set is read."""
    cfg = harness.TrainConfig(dataset="nothere.txt", **fields)
    with pytest.raises(ContractError, match="vae trainer steps a point decoder by adagrad"):
        harness.train_vae(cfg)


@pytest.mark.parametrize(
    "trainer, kind, fields, message",
    [
        (harness.train_vae, "latent-gmm", {"model_kind": "latent-lds"}, "or latent-tmm, not"),
        (harness.train_vb_gmm, "latent-gmm", {"model_kind": "latent-tmm"}, "fits latent-gmm, not"),
        (harness.train_vb_gmm, "latent-gmm", {"optimizer": "van"}, "by EM, not optimizer 'van'"),
        (harness.train_vb_gmm, "latent-gmm", {"theta_nn": "bayes"}, "with theta_nn 'bayes'"),
        (harness.train_lds_em, "latent-lds", {"model_kind": "latent-gmm"}, "fits latent-lds, not"),
        (harness.train_lds_em, "latent-lds", {"optimizer": "sgd"}, "by EM, not optimizer 'sgd'"),
    ],
    ids=["vae-kind", "vb-gmm-kind", "vb-gmm-van", "vb-gmm-bayes", "lds-em-kind", "lds-em-sgd"],
)
def test_baseline_trainers_refuse_settings_they_ignore(trainer, kind, fields, message):
    """Each baseline fits its own model kinds by one rule; any other kind,
    optimizer or theta_nn fails before the data set is read."""
    cfg = harness.TrainConfig(dataset="nothere.txt", model_kind=kind, seq_len=6)
    with pytest.raises(ContractError, match=message):
        trainer(dataclasses.replace(cfg, **fields))


# ---------------------------------------------------------------------------
# Plot data


def test_dump_plot_data_counts_and_determinism(tmp_path):
    ds = blob_dataset(n=150, seed=16)
    cfg = harness.TrainConfig(
        n_components=2, hidden=(4,), n_iters=10, seed=16, eval_interval=10,
        timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    paths_a = harness.dump_plot_data(
        res.state, ds, str(out_a), n_draws=80, metrics=res.metrics, seed=3
    )
    paths_b = harness.dump_plot_data(
        res.state, ds, str(out_b), n_draws=80, metrics=res.metrics, seed=3
    )
    with open(paths_a["samples"]) as fh:
        sample_lines = fh.read().splitlines()
    assert len(sample_lines) == 81
    header = sample_lines[0].split()
    assert header == ["x0", "x1", "component", "weight"]
    weights = np.array([float(l.split()[-1]) for l in sample_lines[1:]])
    assert np.all((weights > 0) & (weights <= 1))
    with open(paths_a["data"]) as fh:
        data_lines = fh.read().splitlines()
    assert len(data_lines) == ds.n_rows + 1
    for key in paths_a:
        with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("kind", ["latent-lds", "latent-tmm"])
def test_dump_plot_data_and_sample_dump_on_lds_and_tmm(tmp_path, kind):
    """The plot table holds the sample-dump draw at the same seed: one row
    per observation (n_draws sequences of T rows for dynamics), the draw's
    component and its prior weight (0 and 1 for dynamics), and a rerun
    writes the same bytes."""
    is_lds = kind == "latent-lds"
    ds = seq_dataset(seed=18) if is_lds else blob_dataset(n=150, seed=18)
    cfg = harness.TrainConfig(
        model_kind=kind, n_components=2, latent_dim=2, hidden=(4,), n_iters=10,
        seed=18, seq_len=10 if is_lds else 0, eval_interval=10, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    n_draws = 7
    paths = [
        harness.dump_plot_data(
            res.state, ds, str(tmp_path / name), n_draws=n_draws, metrics=res.metrics, seed=3
        )
        for name in "ab"
    ]
    with open(paths[0]["samples"]) as fh:
        lines = fh.read().splitlines()
    coords = ["pc0", "pc1"] if ds.dim > 2 else ["x0", "x1"]
    assert lines[0].split() == coords + ["component", "weight"]
    table = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert table.shape == (n_draws * (10 if is_lds else 1), 4)
    with open(paths[0]["data"]) as fh:
        assert len(fh.read().splitlines()) == ds.n_rows + 1
    for key in paths[0]:
        with open(paths[0][key], "rb") as fa, open(paths[1][key], "rb") as fb:
            assert fa.read() == fb.read()

    draws = [
        harness.evaluate(res.state, ds, ["sample-dump"], seed=3, n_draws=n_draws)["samples"]
        for _ in range(2)
    ]
    for name in ("y", "x", "labels"):
        assert np.array_equal(getattr(draws[0], name), getattr(draws[1], name))
    draw = draws[0]
    y = draw.y.reshape(-1, ds.dim)
    if ds.dim > 2:
        mean, basis = harness.pca_basis(ds.rows)
        y = (y - mean) @ basis
    assert np.array_equal(table[:, :2], y)
    comp, weight = table[:, 2], table[:, 3]
    if is_lds:
        assert draw.y.shape == (n_draws, 10, ds.dim)
        assert draw.x.shape == (n_draws, 11, 2) and draw.labels is None
        assert np.all(comp == 0) and np.all(weight == 1)
    else:
        assert draw.y.shape == (n_draws, ds.dim) and draw.x.shape == (n_draws, 2)
        assert np.array_equal(comp, draw.labels)
        assert np.array_equal(weight, harness.eval_prior(res.state).weights[draw.labels])


def test_dump_plot_data_pca_for_high_dim(tmp_path):
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((120, 2)) @ rng.standard_normal((2, 5)) + 0.05 * rng.standard_normal((120, 5))
    ds = data.split(data.Dataset(rows=rows), train_frac=0.7, seed=17)
    ds, _, _ = data.standardize(ds)
    cfg = harness.TrainConfig(
        n_components=2, latent_dim=2, hidden=(4,), n_iters=10, seed=17,
        eval_interval=10, timing=False,
    )
    res = harness.train_structured(cfg, ds=ds)
    _, basis = harness.pca_basis(ds.rows)
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-10)
    paths = harness.dump_plot_data(res.state, ds, str(tmp_path), n_draws=40, seed=2)
    with open(paths["samples"]) as fh:
        header = fh.readline().split()
    assert header == ["pc0", "pc1", "component", "weight"]
    with open(paths["data"]) as fh:
        assert fh.readline().split() == ["pc0", "pc1", "label"]


# ---------------------------------------------------------------------------
# Dynamics evaluation on whole blocks of sequences


def lds_eval_state(seed=14):
    ds = seq_dataset(seed=seed)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=seed, seq_len=10,
        timing=False,
    )
    return harness.init_state(cfg, ds.dim), ds


@pytest.mark.parametrize("kind", ["latent-lds", "latent-gmm"])
def test_bound_eval_is_one_bound_estimate_call(monkeypatch, kind):
    """Rows and sequence blocks alike: the test bound is one estimator call."""
    if kind == "latent-lds":
        state, ds = lds_eval_state()
    else:
        ds = blob_dataset(n=90, seed=15)
        state = harness.init_state(harness.TrainConfig(hidden=(4,), timing=False), ds.dim)
    calls = []
    estimate = bound.bound_estimate
    monkeypatch.setattr(
        bound, "bound_estimate", lambda *a, **kw: calls.append(1) or estimate(*a, **kw)
    )
    out = harness.evaluate(state, ds, ("bound",))
    assert np.isfinite(out["bound"])
    assert len(calls) == 1


def test_lds_eval_matches_per_sequence_reference():
    """Each metric equals its one-sequence-at-a-time recipe on the same RNG."""
    state, ds = lds_eval_state()
    rows = ds.rows[ds.test_idx]
    seqs = rows.reshape(-1, 10, ds.dim)
    assert seqs.shape[0] > 1
    model = models.GenerativeModel(
        decoder=harness.eval_decoder(state), prior=harness.eval_prior(state)
    )
    for n_samples in (1, 4):
        rng = np.random.default_rng(3)
        want = sum(
            bound.bound_estimate(model, state.net, seq, rng, n_total=1, n_samples=n_samples).total
            for seq in seqs
        ) / rows.shape[0]
        got = harness.per_datum_bound(state, rows, seq_len=10, seed=3, n_samples=n_samples)
        assert got == pytest.approx(want, rel=1e-12)

    mask = np.random.default_rng(5).random(rows.shape) < 0.2
    filled = np.where(mask, 0.0, rows).reshape(seqs.shape)
    recon = np.concatenate([
        nnet.forward(model.decoder, state.net.posterior_mean(state.net.prepare(seq))[1:])[0]
        for seq in filled
    ])
    want = np.mean((recon[mask] - rows[mask]) ** 2)
    got = harness.imputation_mse(state, rows, seq_len=10, seed=5)
    assert got == pytest.approx(want, rel=1e-12)

    for tau in (1, 3):
        errs = []
        for seq in seqs:
            filt = state.net.prepare(seq).record.mu_filt[1:]
            pred = models.forecast_means(filt, model.prior.trans, tau)
            errs.append(np.abs(seq[tau:] - nnet.forward(model.decoder, pred)[0]))
        want = np.sum(errs) / np.size(errs)
        assert harness.tau_ahead_mae(state, seqs, tau) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n_seq", [12, 30])
def test_lds_evaluate_runs_one_filter_per_task(monkeypatch, n_seq):
    ds = seq_dataset(n_seq=n_seq, seed=15)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=15, seq_len=10,
        timing=False,
    )
    state = harness.init_state(cfg, ds.dim)
    calls = []
    lds_filter = infnet.lds_filter
    monkeypatch.setattr(infnet, "lds_filter", lambda *a: calls.append(1) or lds_filter(*a))
    out = harness.evaluate(state, ds, ("bound", "imputation", "tau-ahead"), taus=(1,))
    assert len(calls) == 1
    assert np.isfinite(out["bound"]) and np.isfinite(out["tau_mae"][1])


def test_lds_metrics_row_filters_the_test_block_once(monkeypatch):
    """Train, val, test bound with tau-ahead, and masked imputation: one
    filter pass over all four blocks, and the same figures as separate
    calls."""
    ds = seq_dataset(n_seq=12, seed=17)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=17, seq_len=10,
        timing=False,
    )
    state = harness.init_state(cfg, ds.dim)
    splits = harness._eval_splits(ds, cfg, state.net)
    seed = cfg.seed * 1_000_003 + 17
    want_bound = harness.per_datum_bound(state, splits[2], seq_len=10, seed=seed)
    want_tau = harness.tau_ahead_mae(state, splits[2].reshape(-1, 10, ds.dim), tau=1)
    calls = []
    lds_filter = infnet.lds_filter
    monkeypatch.setattr(infnet, "lds_filter", lambda *a: calls.append(1) or lds_filter(*a))
    row = harness._structured_metrics_row(state, splits, cfg, 0, 0.0)
    assert len(calls) == 1
    assert row["test_bound"] == want_bound
    assert row["tau_mae"] == want_tau


def test_lds_evaluate_shares_one_test_block_across_bound_and_taus(monkeypatch):
    ds = seq_dataset(n_seq=12, seed=16)
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=16, seq_len=10,
        timing=False,
    )
    state = harness.init_state(cfg, ds.dim)
    seqs = ds.rows[ds.test_idx].reshape(-1, 10, ds.dim)
    want_bound = harness.per_datum_bound(state, ds.rows[ds.test_idx], seq_len=10, seed=4)
    want_tau = {t: harness.tau_ahead_mae(state, seqs, t) for t in (1, 2, 5)}
    calls = []
    lds_filter = infnet.lds_filter
    monkeypatch.setattr(infnet, "lds_filter", lambda *a: calls.append(1) or lds_filter(*a))
    out = harness.evaluate(state, ds, ("bound", "tau-ahead"), seed=4, taus=(1, 2, 5))
    assert len(calls) == 1
    assert out["bound"] == want_bound
    assert out["tau_mae"] == want_tau


@pytest.mark.parametrize("seq_len", [0, 7])
def test_malformed_sequence_input_is_contract_error(seq_len):
    state, ds = lds_eval_state()
    rows = ds.rows[ds.test_idx]
    assert rows.shape[0] % 7
    with pytest.raises(ContractError, match="whole sequences"):
        harness.per_datum_bound(state, rows, seq_len=seq_len)
    with pytest.raises(ContractError, match="whole sequences"):
        harness.imputation_mse(state, rows, seq_len=seq_len)
    # evaluate reads seq_len from the data set: none at all, or a test split
    # that cuts a sequence.
    if seq_len == 0:
        bad = dataclasses.replace(ds, seq_len=None)
    else:
        bad = dataclasses.replace(ds, test_idx=ds.test_idx[:-seq_len])
    for task in ("bound", "imputation"):
        with pytest.raises(ContractError, match="whole sequences"):
            harness.evaluate(state, bad, (task,))


def test_lds_evaluate_tasks_equal_their_entry_points():
    """Every task subset, with its blocks stacked through one filter, gives
    exactly what the task's own entry point gives."""
    state, ds = lds_eval_state()
    rows = ds.rows[ds.test_idx]
    seqs = rows.reshape(-1, 10, ds.dim)
    want = {
        "bound": harness.per_datum_bound(state, rows, seq_len=10, seed=6),
        "imputation_mse": harness.imputation_mse(state, rows, seq_len=10, seed=6),
        "tau_mae": {t: harness.tau_ahead_mae(state, seqs, t) for t in (1, 4)},
    }
    keys = {"bound": "bound", "imputation": "imputation_mse", "tau-ahead": "tau_mae"}
    for tasks in (("bound",), ("imputation",), ("tau-ahead",), ("bound", "imputation", "tau-ahead")):
        out = harness.evaluate(state, ds, tasks, seed=6, taus=(1, 4))
        assert out == {keys[t]: want[keys[t]] for t in tasks}, tasks


@pytest.mark.parametrize("val", ["absent", "no rows"])
def test_lds_metrics_row_with_an_empty_val_split(val):
    state, ds = lds_eval_state()
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=14, seq_len=10,
        timing=False,
    )
    train, _, test = harness._eval_splits(ds, cfg, state.net)
    splits = (train, None if val == "absent" else test[:0], test)
    row = harness._structured_metrics_row(state, splits, cfg, 0, 0.0)
    seed = cfg.seed * 1_000_003 + 17
    assert np.isnan(row["val_bound"])
    assert row["train_bound"] == harness.per_datum_bound(state, train, seq_len=10, seed=seed)
    assert row["test_bound"] == harness.per_datum_bound(state, test, seq_len=10, seed=seed)
    assert row["imputation_mse"] == harness.imputation_mse(state, test, seq_len=10, seed=seed)
    assert row["tau_mae"] == harness.tau_ahead_mae(state, test.reshape(-1, 10, ds.dim), tau=1)


@pytest.mark.parametrize("other", ["mixture rows", "one sequence short", "shorter sequences"])
def test_bound_estimate_rejects_a_prep_of_other_units(other):
    """The pass handed to the estimator must cover its units."""
    if other == "mixture rows":
        ds = blob_dataset(seed=9)
        cfg = harness.TrainConfig(n_components=3, latent_dim=2, hidden=(4,), seed=9, timing=False)
        state = harness.init_state(cfg, ds.dim)
        units = ds.rows[ds.test_idx]
        prep = state.net.prepare(units[:-1])
    else:
        state, ds = lds_eval_state()
        units = ds.rows[ds.test_idx].reshape(-1, 10, ds.dim)
        prep = state.net.prepare(units[:-1] if other == "one sequence short" else units[:, :-1])
    model = models.GenerativeModel(
        decoder=harness.eval_decoder(state), prior=harness.eval_prior(state)
    )
    with pytest.raises(ContractError, match="prep"):
        bound.bound_estimate(model, state.net, units, np.random.default_rng(0), prep=prep)


def test_evaluate_and_metrics_row_mask_the_test_block_once(monkeypatch):
    state, ds = lds_eval_state()
    cfg = harness.TrainConfig(
        model_kind="latent-lds", latent_dim=2, hidden=(8,), seed=14, seq_len=10,
        timing=False,
    )
    calls = []
    masked = harness._masked
    monkeypatch.setattr(harness, "_masked", lambda *a: calls.append(1) or masked(*a))
    harness.evaluate(state, ds, ("bound", "imputation", "tau-ahead"), taus=(1,))
    assert len(calls) == 1
    harness._structured_metrics_row(state, harness._eval_splits(ds, cfg, state.net), cfg, 0, 0.0)
    assert len(calls) == 2


def test_tau_ahead_with_no_taus_is_an_empty_map():
    state, ds = lds_eval_state()
    assert harness.evaluate(state, ds, ("tau-ahead",), taus=()) == {"tau_mae": {}}


def test_tau_ahead_on_an_empty_test_split_is_a_contract_error():
    """Like the bound and the imputation, the forecast needs at least one
    test sequence."""
    state, ds = lds_eval_state()
    ds = data.split(ds, train_frac=1.0, seed=14)
    assert ds.test_idx.size == 0
    with pytest.raises(ContractError, match="at least one sequence"):
        harness.evaluate(state, ds, ("tau-ahead",), taus=(1,))
    with pytest.raises(ContractError, match="nonempty"):
        harness.evaluate(state, ds, ("bound",))
    with pytest.raises(ContractError, match="at least one row"):
        harness.evaluate(state, ds, ("imputation",))


def test_tau_ahead_without_a_sequence_length_names_it():
    state, ds = lds_eval_state()
    with pytest.raises(ContractError, match="sequence length"):
        harness.evaluate(state, dataclasses.replace(ds, seq_len=None), ("tau-ahead",))


def test_imputation_with_nothing_masked_is_zero():
    state, ds = lds_eval_state()
    rows = ds.rows[ds.test_idx]
    assert not (np.random.default_rng(0).random(rows.shape) < 1e-9).any()
    assert harness.imputation_mse(state, rows, seq_len=10, fraction=1e-9) == 0.0


# ---------------------------------------------------------------------------
# Prior families, dataset reads and factor work


def other_family_priors(d=2):
    s = d * (d + 1) // 2
    mix = models.GaussianMixture(logits=np.zeros(3), means=np.zeros((3, d)), chol_raw=np.zeros((3, s)))
    dyn = models.LinearDynamics(np.eye(d), np.zeros(s), np.zeros(d), np.zeros(s))
    return mix, dyn


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-lds"])
def test_init_state_rejects_a_prior_of_another_family(kind):
    mix, dyn = other_family_priors()
    cfg = harness.TrainConfig(model_kind=kind, n_components=3, hidden=(4,), seq_len=5)
    with pytest.raises(ContractError, match="does not fit"):
        harness.init_state(cfg, 3, prior_override=dyn if kind == "latent-gmm" else mix)


def test_init_state_accepts_a_student_prior_under_a_gaussian_factor(tmp_path):
    mix, _ = other_family_priors()
    student = models.StudentMixture(mix.logits, mix.means, mix.chol_raw, dof=3.0)
    cfg = harness.TrainConfig(n_components=3, hidden=(4,), timing=False)
    state = harness.init_state(cfg, 3, prior_override=student)
    assert state.pgm_point is student
    harness.save_state(tmp_path / "s.ckpt", state, cfg)
    back, _ = harness.load_state(tmp_path / "s.ckpt")
    assert isinstance(back.pgm_point, models.StudentMixture) and back.pgm_point.dof == 3.0


@pytest.mark.parametrize("labeled", [True, False])
def test_load_dataset_reads_the_file_once(tmp_path, monkeypatch, labeled):
    """The label decision comes from the header line the one read parses, and
    rows, labels and the sha256 provenance are those of an explicit load."""
    import builtins
    import hashlib
    import io

    raw = data.pinwheel(n_per_arm=20, arms=3, seed=4)
    if not labeled:
        raw = dataclasses.replace(raw, labels=None)
    path = tmp_path / "pin.txt"
    data.export(raw, path)
    explicit = data.load_delimited(path, has_labels=labeled)
    opened = []
    for module in (builtins, io):
        real = module.open
        monkeypatch.setattr(
            module, "open",
            lambda f, *a, _real=real, **kw: opened.append(os.fspath(f)) or _real(f, *a, **kw),
        )
    cfg = harness.TrainConfig(dataset=str(path), train_frac=0.7, seed=4)
    loaded = harness.load_dataset(cfg)
    sniffed = data.load_delimited(path, has_labels=None)
    monkeypatch.undo()
    assert opened.count(str(path)) == 2  # one for load_dataset, one for the direct load
    np.testing.assert_array_equal(sniffed.rows, explicit.rows)
    assert (sniffed.labels is None) == (not labeled)
    if labeled:
        np.testing.assert_array_equal(sniffed.labels, explicit.labels)
    assert sniffed.provenance == explicit.provenance
    assert explicit.provenance["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    want = data.standardize(data.split(explicit, train_frac=0.7, seed=4))[0]
    np.testing.assert_array_equal(loaded.rows, want.rows)
    np.testing.assert_array_equal(loaded.train_idx, want.train_idx)


FACTOR_WORK = ("tril_from_raw", "cholesky_spd", "tril_raw_vjp")


def count_factor_work(monkeypatch):
    counts = dict.fromkeys(FACTOR_WORK, 0)
    for name in FACTOR_WORK:
        real = getattr(linalg, name)

        def counted(*a, _real=real, _name=name, **kw):
            counts[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(linalg, name, counted)
    return counts


@pytest.mark.parametrize(
    "kind, want",
    [("latent-lds", (2, 2, 2)), ("latent-gmm", (2, 1, 4)), ("latent-tmm", (2, 1, 4))],
)
def test_train_step_factor_work_is_pinned(monkeypatch, kind, want):
    """Per step: raw-to-factor reads, Cholesky factorizations and raw-Cholesky
    adjoints.  Each covariance factor a step needs is built where it is first
    needed and handed on, not rebuilt by the prior's chain rule.  The
    dynamics' prior and factor densities share one stacked pass, so their
    parameter gradients take one raw-Cholesky adjoint, the filter reverse
    sweep the other."""
    if kind == "latent-lds":
        ds = seq_dataset()
        cfg = harness.TrainConfig(model_kind=kind, hidden=(6,), seq_len=10, timing=False)
    else:
        ds = blob_dataset(n=90, seed=16)
        cfg = harness.TrainConfig(model_kind=kind, n_components=3, hidden=(6,), timing=False)
    state = harness.init_state(cfg, ds.dim)
    units = harness._units(state.net, ds.rows[ds.train_idx], cfg.seq_len)
    batch = units[0] if kind == "latent-lds" else units[:16]
    counts = count_factor_work(monkeypatch)
    harness.train_step(state, cfg, batch, units.shape[0], np.random.default_rng(0))
    assert tuple(counts[name] for name in FACTOR_WORK) == want


@pytest.mark.parametrize(
    "kind, builder",
    [("latent-gmm", "_conditional_parts"), ("latent-tmm", "_conditional_parts"),
     ("latent-lds", "_smoother_factors")],
)
def test_train_step_builds_its_draw_factors_once(monkeypatch, kind, builder):
    """A step's draw builds the factors of its sampling map once (the
    mixture's conditional factors, the dynamics' smoother factors with their
    RTS gains) and its pathwise adjoint reads them from the draw."""
    if kind == "latent-lds":
        ds = seq_dataset()
        cfg = harness.TrainConfig(model_kind=kind, hidden=(6,), seq_len=10, timing=False)
    else:
        ds = blob_dataset(n=90, seed=16)
        cfg = harness.TrainConfig(model_kind=kind, n_components=3, hidden=(6,), timing=False)
    state = harness.init_state(cfg, ds.dim)
    units = harness._units(state.net, ds.rows[ds.train_idx], cfg.seq_len)
    batch = units[0] if kind == "latent-lds" else units[:16]
    calls = []
    for name in (builder, "rts_gains"):
        real = getattr(infnet, name)
        monkeypatch.setattr(
            infnet, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    harness.train_step(state, cfg, batch, units.shape[0], np.random.default_rng(0))
    want = [builder, "rts_gains"] if kind == "latent-lds" else [builder]
    assert calls == want


def test_evaluation_factor_work_is_pinned(monkeypatch):
    """One dynamics evaluation of both blocks: one covariance pass for the
    two, whose innovation factors are one Cholesky call; the bound's draw
    factors the test block's smoother (one more); the imputation's posterior
    mean reads only smoother gains and factors nothing.  A second evaluation
    of the same state builds no covariance factor."""
    state, ds = lds_eval_state()
    counts = count_factor_work(monkeypatch)
    passes = []
    covariances = infnet.kalman_covariances
    monkeypatch.setattr(
        infnet, "kalman_covariances", lambda *a: passes.append(1) or covariances(*a)
    )
    harness.evaluate(state, ds, ("bound", "imputation", "tau-ahead"), taus=(1,))
    assert counts["cholesky_spd"] == 2 and len(passes) == 1
    # the network's dynamics and the point prior each build their factors once
    assert counts["tril_from_raw"] == 2
    counts.update(dict.fromkeys(counts, 0))
    harness.evaluate(state, ds, ("bound", "imputation", "tau-ahead"), taus=(1,))
    assert counts["tril_from_raw"] == 0


def count_axis_wrappers(monkeypatch):
    """Calls of ``np.moveaxis`` and ``np.swapaxes``, by name, while patched."""
    calls = []
    for name in ("moveaxis", "swapaxes"):
        real = getattr(np, name)

        def counted(*a, _real=real, _name=name, **kw):
            calls.append(_name)
            return _real(*a, **kw)

        monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("run", ["train-step", "evaluate", "lds-em-iteration"])
def test_dynamics_paths_call_no_axis_wrapper(monkeypatch, run):
    """The dynamics step, evaluation and LDS-EM iteration move axes with
    ndarray methods only: ``np.moveaxis`` and ``np.swapaxes`` normalise
    their arguments on every call, a fixed cost that the Kalman core's small
    stacked calls would pay many times per pass."""
    ds = seq_dataset()
    cfg = harness.TrainConfig(model_kind="latent-lds", hidden=(6,), seq_len=10, timing=False)
    state = harness.init_state(cfg, ds.dim)
    units = harness._units(state.net, ds.rows[ds.train_idx], cfg.seq_len)
    calls = count_axis_wrappers(monkeypatch)
    if run == "train-step":
        harness.train_step(state, cfg, units[0], units.shape[0], np.random.default_rng(0))
    elif run == "evaluate":
        harness.evaluate(state, ds, ("bound", "imputation", "tau-ahead"), taus=(1,))
    else:
        baselines.lds_em_fit(units, 2, n_iter=1)
    assert calls == []


def test_dynamics_generate_uses_the_stored_factors(monkeypatch):
    state, ds = lds_eval_state()
    counts = count_factor_work(monkeypatch)
    out = harness.evaluate(state, ds, ("sample-dump",), n_draws=5)
    assert out["samples"].x.shape == (5, ds.seq_len + 1, 2)
    assert counts["cholesky_spd"] == 0 and counts["tril_from_raw"] == 1
