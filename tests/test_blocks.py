"""Parameter blocks: which rule steps each block, the checkpoint arrays each
rule combination holds, and the step-size bounds that ``validate`` checks."""

import itertools

import numpy as np
import pytest

from structvi import checkpoint, harness, updates
from structvi.errors import ContractError

DATA_DIM = 3
KINDS = ("latent-gmm", "latent-tmm", "latent-lds")
COMBINATIONS = [
    (kind, optimizer, theta_nn, fixed)
    for kind, optimizer, theta_nn, fixed in itertools.product(
        KINDS, ("sgd", "adagrad", "van"), ("point", "bayes"), (False, True)
    )
    if not (optimizer == "van" and theta_nn == "bayes")
]


def small_config(kind, optimizer="adagrad", theta_nn="point", **extra):
    steps = dict(beta1=1e-3, beta2=1e-3, beta3=1e-3)
    return harness.TrainConfig(
        model_kind=kind, n_components=2, hidden=(5,), seq_len=5, optimizer=optimizer,
        theta_nn=theta_nn, timing=False, **{**steps, **extra},
    )


def trained(cfg, fixed, n_steps=3, seed=0):
    """``cfg``'s initial state after ``n_steps`` steps, with the initial
    network's factor as a fixed prior when ``fixed``."""
    override = harness.init_state(cfg, DATA_DIM).net.factor if fixed else None
    state = harness.init_state(cfg, DATA_DIM, prior_override=override)
    rng = np.random.default_rng(seed)
    for _ in range(n_steps):
        if state.net.lead_rows:  # one whole sequence per step, as in training
            batch, n_total = rng.standard_normal((cfg.seq_len, DATA_DIM)), 4
        else:
            batch, n_total = rng.standard_normal((8, DATA_DIM)), 8
        state, _ = harness.train_step(state, cfg, batch, n_total, rng)
    return state


def expected_arrays(kind, optimizer, theta_nn, fixed):
    """The checkpoint arrays of a combination, from the rules: a Bayes decoder
    is held as its posterior, VAN holds its search distribution, the mixture
    prior is a conjugate posterior unless fixed, and each block that sgd or
    adagrad steps carries an accumulator under adagrad (a learned point prior
    takes adagrad under VAN too)."""
    names = {"iteration", "phi"}
    names |= {"theta_mu", "theta_sigma2"} if theta_nn == "bayes" else {"theta_nn"}
    names |= {"lambda"} if kind == "latent-gmm" and not fixed else {"theta_pgm"}
    if optimizer == "van":
        names |= {"van_mu", "van_sigma2"}
    if optimizer == "adagrad":
        names |= {"adagrad_phi"} | ({"adagrad_nn"} if theta_nn == "point" else set())
    if optimizer != "sgd" and kind != "latent-gmm" and not fixed:
        names.add("adagrad_pgm")
    return names


@pytest.mark.parametrize(
    "kind, optimizer, theta_nn, fixed", COMBINATIONS,
    ids=["-".join([k, o, t, "fixed" if f else "learned"]) for k, o, t, f in COMBINATIONS],
)
def test_rule_combination_arrays_and_accumulators(kind, optimizer, theta_nn, fixed):
    cfg = small_config(kind, optimizer, theta_nn)
    state = trained(cfg, fixed)
    arrays = harness._state_arrays(state)
    for field in ("opt_nn", "opt_phi", "opt_pgm"):
        opt = getattr(state, field)
        assert (opt is not None) == (field.replace("opt", "adagrad") in arrays), field
        if opt is not None:  # every accumulator the state holds is read by a step
            assert np.all(opt != 0), field
    assert set(arrays) == expected_arrays(kind, optimizer, theta_nn, fixed)
    if fixed:
        before = harness.init_state(cfg, DATA_DIM).net.factor.param_vector()
        np.testing.assert_array_equal(state.pgm_point.param_vector(), before)


@pytest.mark.parametrize(
    "kind, optimizer, theta_nn, fixed", COMBINATIONS,
    ids=["-".join([k, o, t, "fixed" if f else "learned"]) for k, o, t, f in COMBINATIONS],
)
def test_step_leaves_its_input_state_unchanged(kind, optimizer, theta_nn, fixed):
    """A step shares arrays (accumulators among them) with the state it
    started from, so writing into one in place would corrupt the state that a
    diverging run checkpoints; every array of that state stays as it was."""
    cfg = small_config(kind, optimizer, theta_nn)
    state = trained(cfg, fixed, n_steps=2)
    before = {name: a.copy() for name, a in harness._state_arrays(state).items()}
    rng = np.random.default_rng(5)
    rows = cfg.seq_len if state.net.lead_rows else 8
    harness.train_step(state, cfg, rng.standard_normal((rows, DATA_DIM)), 8, rng)
    after = harness._state_arrays(state)
    assert set(after) == set(before)
    for name, want in before.items():
        np.testing.assert_array_equal(after[name], want, err_msg=name)


def test_bayes_checkpoint_with_unread_accumulator_loads(tmp_path):
    """A Bayes checkpoint written when the decoder also carried an adagrad
    accumulator (its ``adagrad_nn`` array, never stepped, so all zeros)
    loads; every other array comes back bit for bit, and the loaded state
    steps as the saved one does."""
    cfg = small_config("latent-tmm", theta_nn="bayes")
    state = trained(cfg, fixed=False)
    path = str(tmp_path / "run.ckpt")
    harness.save_state(path, state, cfg)
    arrays, meta = checkpoint.load(path)
    assert "adagrad_nn" not in arrays
    arrays["adagrad_nn"] = np.zeros(arrays["theta_mu"].size)
    checkpoint.save(path, arrays, meta)

    loaded, _ = harness.load_state(path)
    back = harness._state_arrays(loaded)
    del arrays["adagrad_nn"]
    assert set(back) == set(arrays)
    for name, want in arrays.items():
        np.testing.assert_array_equal(back[name], want, err_msg=name)
    batch = np.random.default_rng(9).standard_normal((8, DATA_DIM))
    steps = [
        harness.train_step(s, cfg, batch, 8, np.random.default_rng(3))[0] for s in (state, loaded)
    ]
    for name, want in harness._state_arrays(steps[0]).items():
        np.testing.assert_array_equal(harness._state_arrays(steps[1])[name], want, err_msg=name)


def test_mixture_beta1_past_one_is_rejected_before_the_data_loads(tmp_path):
    cfg = small_config("latent-gmm", beta1=1.5, dataset=str(tmp_path / "missing.txt"))
    with pytest.raises(ContractError, match="beta1"):
        cfg.validate()
    with pytest.raises(ContractError, match="beta1"):
        harness.train_structured(cfg)
    small_config("latent-gmm", beta1=1.0).validate()
    for kind in ("latent-tmm", "latent-lds"):  # there beta1 is the point prior's adagrad step
        small_config(kind, beta1=1.5).validate()


def test_bayes_beta2_past_one_is_rejected():
    for kind in KINDS:
        with pytest.raises(ContractError, match="beta2"):
            small_config(kind, theta_nn="bayes", beta2=1.5).validate()
        small_config(kind, theta_nn="bayes", beta2=1.0).validate()
        small_config(kind, theta_nn="point", beta2=1.5).validate()


def test_bayes_nn_step_message_names_the_bound_it_enforces():
    post = updates.BayesNnPosterior(mu=np.zeros(2), sigma2=np.ones(2), mu0=0.0, sigma0_sq=1.0)
    full = updates.bayes_nn_step(post, np.ones(2), np.full(2, -0.25), 1.0)
    np.testing.assert_allclose(full.sigma2, 1.0 / 1.5)  # precision: prior 1 minus curvature -0.5
    for beta in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(ContractError, match=r"\[0, 1\]"):
            updates.bayes_nn_step(post, np.ones(2), np.ones(2), beta)
