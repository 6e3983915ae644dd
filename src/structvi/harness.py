"""Training orchestration, evaluation tasks, and plot-data emission.

One structured training loop covers the three model kinds.  Mixture-structured
runs keep a conjugate posterior over mixture parameters and move it by
natural-gradient steps; heavy-tailed mixture and dynamics runs carry point
parameters moved by the configured Euclidean rule.  Per iteration the loop
draws point generative parameters, takes one posterior sample with its
gradient bundle, and steps every block.  Baseline trainers for the plain
variational autoencoder, variational-Bayes mixture EM, and dynamical-system
EM live alongside so comparisons share data handling and metrics format.
Priors score and draw themselves and networks give posterior means, so the
harness holds no per-family code: the model kind names a point-prior class
(``POINT_PRIORS``), and the network's factor says whether data units are rows
or sequences (``_units``) and gives a point or fixed prior its parameters.

Metrics logs are delimited text, one row per evaluation, header first.  All
randomness flows from the config seed through dedicated generators, so a rerun
with the same config reproduces the log bit for bit; the wall-clock column can
be zeroed by the config's timing switch when that guarantee must extend to the
whole file.
"""

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, bound, checkpoint, data, infnet, linalg, models, nnet, updates, vae
from .errors import ContractError, InvalidParameterError, NumericalError, ParseError

# Everything a diverging run can legitimately raise mid-step.
FAILURE_KINDS = (NumericalError, InvalidParameterError, FloatingPointError, np.linalg.LinAlgError)

# The point-prior class of each model kind; None is the conjugate mixture posterior.
POINT_PRIORS = {"latent-gmm": None, "latent-tmm": models.StudentMixture,
                "latent-lds": models.LinearDynamics}
MODEL_KINDS = tuple(POINT_PRIORS)
OPTIMIZERS = ("sgd", "adagrad", "van")
THETA_NN_MODES = ("point", "bayes")
SWITCH_WORDS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}
METRICS_COLUMNS = (
    "iteration",
    "train_bound",
    "val_bound",
    "test_bound",
    "imputation_mse",
    "tau_mae",
    "seconds",
)

EVAL_ROW_CAP = 512
EVAL_SEQ_CAP = 8
IMPUTATION_FRACTION = 0.2  # share of entries masked by the imputation task
VAN_INIT_SIGMA2 = 1e-2


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig:
    model_kind: str = "latent-gmm"
    n_components: int = 10
    latent_dim: int = 2
    hidden: tuple = (50, 50)
    activation: str = "tanh"
    beta1: float = 0.05
    beta2: float = 0.01
    beta3: float = 0.01
    batch_size: int = 64
    n_iters: int = 2000
    seed: int = 0
    dataset: str = ""
    seq_len: int = 0
    optimizer: str = "adagrad"
    theta_nn: str = "point"
    dof: float = 5.0
    eval_interval: int = 100
    train_frac: float = 0.7
    timing: bool = True

    def validate(self):
        if self.model_kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {self.model_kind!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"unknown optimizer {self.optimizer!r}")
        if self.theta_nn not in THETA_NN_MODES:
            raise ContractError(f"unknown theta_nn mode {self.theta_nn!r}")
        if self.activation not in nnet.ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.theta_nn == "bayes" and self.optimizer == "van":
            raise ContractError("bayes decoder and van optimizer do not combine")
        if self.optimizer == "van" and self.beta3 <= 0:
            raise ContractError("van optimizer needs beta3 > 0")
        if self.n_components < 1:
            raise ContractError("need at least one component")
        if min(self.latent_dim, self.batch_size, self.n_iters, self.eval_interval, *self.hidden) < 1:
            raise ContractError("dimensions and counts must be positive")
        if self.model_kind == "latent-lds" and self.seq_len < 2:
            raise ContractError("dynamics runs need seq_len >= 2")
        if not 0.0 < self.train_frac <= 1.0:
            raise ContractError("train_frac must lie in (0, 1]")
        if self.beta1 < 0 or self.beta2 < 0 or self.beta3 < 0:
            raise ContractError("step sizes must be nonnegative")
        if self.dof <= 2.0:
            raise ContractError("dof must exceed 2 for finite component variance")
        return self


def config_to_text(cfg):
    lines = []
    for f in dataclasses.fields(TrainConfig):
        val = getattr(cfg, f.name)
        if f.name == "hidden":
            val = ",".join(str(h) for h in val)
        elif f.name == "timing":
            val = int(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def _coerce_field(name, text):
    field = {f.name: f for f in dataclasses.fields(TrainConfig)}.get(name)
    if field is None:
        raise ParseError(f"unknown config key {name!r}")
    text = text.strip()
    try:
        if name == "hidden":
            return tuple(int(p) for p in text.split(",") if p.strip())
        if name == "timing":
            return SWITCH_WORDS[text.lower()]
        if field.type in (int, "int"):
            return int(text)
        if field.type in (float, "float"):
            return float(text)
    except (KeyError, ValueError):
        raise ParseError(f"bad {name} value {text!r}") from None
    return text


def config_from_text(text, base=None, path="<config>"):
    """Parse key = value lines; later keys win, comments start with '#'."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}, line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        try:
            values[key.strip()] = _coerce_field(key.strip(), val)
        except ParseError as exc:
            raise ParseError(f"{path}, line {lineno}: {exc}") from None
    cfg = base if base is not None else TrainConfig()
    return dataclasses.replace(cfg, **values)


def load_config(path, base=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return config_from_text(text, base=base, path=path)


# ---------------------------------------------------------------------------
# Training state


@dataclass
class TrainState:
    net: object  # posterior network; its factor's family is the model's
    decoder: nnet.Mlp
    theta_posterior: object  # BayesNnPosterior or None
    pgm_posterior: object  # conjugate mixture posterior, or None
    pgm_prior: object  # fixed conjugate prior for the posterior above
    pgm_point: object  # point prior parameters when there is no posterior
    prior_fixed: bool  # pgm_point was given and does not train
    opt_nn: object
    opt_phi: object
    opt_pgm: object
    van: object  # VanState over [theta_nn, phi] when optimizer == "van"
    iteration: int
    data_dim: int


def _mixture_from_params(weights, means, covs):
    logits = np.log(np.maximum(weights, 1e-300))
    raw = linalg.raw_from_spd(covs)
    return models.GaussianMixture(logits=logits, means=np.asarray(means), chol_raw=raw)


def _hyperparameters(prior, factor):
    """The fields of ``prior`` (a class or an instance) that ``factor`` lacks."""
    have = {f.name for f in dataclasses.fields(factor)}
    return [f.name for f in dataclasses.fields(prior) if f.name not in have]


def _prior_like(cls, factor, cfg, **extra):
    """A ``cls`` prior with the parameters of ``factor``, a network's factor,
    and each hyperparameter from ``extra``, else from the config field of the
    same name; a ``cls`` of another family raises AttributeError or TypeError."""
    hyper = {name: getattr(cfg, name) for name in _hyperparameters(cls, factor)}
    return cls(**dataclasses.asdict(factor), **{**hyper, **extra})


def init_state(cfg, data_dim, prior_override=None):
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    k, d = cfg.n_components, cfg.latent_dim
    acts = [cfg.activation] * len(cfg.hidden)
    decoder = nnet.init_mlp([d, *cfg.hidden, 2 * data_dim], acts, rng)
    prior_cls = POINT_PRIORS[cfg.model_kind]
    if (prior_cls or models.GaussianMixture).lead_rows:  # only the dynamics has lead rows
        net = infnet.init_lds_net(
            d, data_dim, hidden=cfg.hidden, rng=rng, activation=cfg.activation
        )
    else:
        net = infnet.init_gmm_net(
            k, d, data_dim, hidden=cfg.hidden, rng=rng, activation=cfg.activation
        )

    pgm_posterior = pgm_prior = pgm_point = None
    if prior_override is not None:
        pgm_point = prior_override
    elif prior_cls is None:
        pgm_prior = pgm_posterior = updates.default_gmm_prior(k, d)
    else:
        pgm_point = _prior_like(prior_cls, net.factor, cfg)

    theta_posterior = None
    if cfg.theta_nn == "bayes":
        mu = nnet.param_vector(decoder)
        theta_posterior = updates.BayesNnPosterior(
            mu=mu, sigma2=np.full(mu.size, 1e-4), mu0=0.0, sigma0_sq=1.0
        )

    n_nn = nnet.num_params(decoder)
    n_phi = net.phi_vector().size
    van = None
    opt_nn = opt_phi = opt_pgm = None
    if cfg.optimizer == "van":
        van = updates.VanState.init(
            np.concatenate([nnet.param_vector(decoder), net.phi_vector()]),
            VAN_INIT_SIGMA2,
        )
    elif cfg.optimizer == "adagrad":
        opt_nn = updates.AdagradState.zeros(n_nn)
        opt_phi = updates.AdagradState.zeros(n_phi)
    # VAN's search distribution covers [theta_nn, phi]; a learned point prior
    # steps by adagrad under it, as under adagrad itself.
    if cfg.optimizer != "sgd" and pgm_point is not None and prior_override is None:
        opt_pgm = updates.AdagradState.zeros(pgm_point.param_vector().size)
    return TrainState(
        net=net,
        decoder=decoder,
        theta_posterior=theta_posterior,
        pgm_posterior=pgm_posterior,
        pgm_prior=pgm_prior,
        pgm_point=pgm_point,
        prior_fixed=prior_override is not None,
        opt_nn=opt_nn,
        opt_phi=opt_phi,
        opt_pgm=opt_pgm,
        van=van,
        iteration=0,
        data_dim=data_dim,
    )


def eval_prior(state):
    """Point generative parameters used for every evaluation."""
    if state.pgm_posterior is not None:
        return _mixture_from_params(*updates.posterior_mean_params(state.pgm_posterior))
    return state.pgm_point


def _sampled_prior(state, rng):
    """Point generative parameters for one training step."""
    if state.pgm_posterior is not None:
        return _mixture_from_params(*updates.sample_gmm_params(state.pgm_posterior, rng))
    return state.pgm_point


def eval_decoder(state):
    if state.theta_posterior is not None:
        return nnet.set_param_vector(state.decoder, state.theta_posterior.mu)
    return state.decoder


def _euclid_step(optimizer, params, grad, opt_state, beta):
    if beta == 0.0:
        return params, opt_state
    if optimizer == "sgd":
        return updates.sgd_step(params, grad, beta), opt_state
    return updates.adagrad_step(params, grad, opt_state, beta)


def train_step(state, cfg, batch, n_total, rng):
    """One full update pass; returns the new state and the gradient bundle."""
    prior = _sampled_prior(state, rng)

    if state.theta_posterior is not None:
        post = state.theta_posterior
        noise = rng.standard_normal(post.mu.shape)
        theta = post.mu + np.sqrt(post.sigma2) * noise
        decoder = nnet.set_param_vector(state.decoder, theta)
    else:
        decoder = state.decoder

    if cfg.optimizer == "van":
        n_nn = nnet.num_params(decoder)
        stash = {}

        def neg_grad(vec):
            dec = nnet.set_param_vector(decoder, vec[:n_nn])
            net = state.net.with_phi_vector(vec[n_nn:])
            model = models.GenerativeModel(decoder=dec, prior=prior)
            b = bound.bound_gradients(model, net, batch, rng, n_total)
            stash["bundle"] = b
            stash["grad"] = -np.concatenate([b.grad_theta_nn, b.grad_phi])
            return stash["grad"]

        def curvature(vec):
            # Reparameterization estimate E[f''] ~ f'(phi*) (phi* - mu) / sigma2,
            # from the gradient that neg_grad just took at this same phi*.
            return stash["grad"] * (vec - state.van.mu) / state.van.sigma2

        van = updates.van_step(state.van, neg_grad, curvature, cfg.beta3, rng)
        bundle = stash["bundle"]
        state = dataclasses.replace(
            state,
            van=van,
            decoder=nnet.set_param_vector(decoder, van.mu[:n_nn]),
            net=state.net.with_phi_vector(van.mu[n_nn:]),
        )
    else:
        model = models.GenerativeModel(decoder=decoder, prior=prior)
        bundle = bound.bound_gradients(model, state.net, batch, rng, n_total)

        if state.theta_posterior is not None:
            g = bundle.grad_theta_nn
            g_sigma2 = g * noise / (2.0 * np.sqrt(state.theta_posterior.sigma2))
            post = updates.bayes_nn_step(state.theta_posterior, g, g_sigma2, cfg.beta2)
            state = dataclasses.replace(state, theta_posterior=post)
        else:
            vec, opt_nn = _euclid_step(
                cfg.optimizer,
                nnet.param_vector(state.decoder),
                bundle.grad_theta_nn,
                state.opt_nn,
                cfg.beta2,
            )
            state = dataclasses.replace(
                state, decoder=nnet.set_param_vector(state.decoder, vec), opt_nn=opt_nn
            )

        phi, opt_phi = _euclid_step(
            cfg.optimizer,
            state.net.phi_vector(),
            bundle.grad_phi,
            state.opt_phi,
            cfg.beta3,
        )
        state = dataclasses.replace(
            state, net=state.net.with_phi_vector(phi), opt_phi=opt_phi
        )

    if not state.prior_fixed:
        if state.pgm_posterior is not None and cfg.beta1 > 0.0:
            msg = updates.conjugate_gmm_message(
                state.pgm_prior,
                bundle.sample.x_star,
                bundle.sample.z_star,
                n_total=n_total,
            )
            q = updates.natural_gradient_step(state.pgm_posterior, msg, cfg.beta1)
            state = dataclasses.replace(state, pgm_posterior=q)
        elif state.pgm_point is not None:
            vec, opt_pgm = _euclid_step(
                cfg.optimizer,
                state.pgm_point.param_vector(),
                bundle.grad_theta_pgm,
                state.opt_pgm,
                cfg.beta1,
            )
            state = dataclasses.replace(
                state,
                pgm_point=state.pgm_point.with_param_vector(vec),
                opt_pgm=opt_pgm,
            )

    state = dataclasses.replace(state, iteration=state.iteration + 1)
    return state, bundle


# ---------------------------------------------------------------------------
# Evaluation


def _as_sequences(rows, seq_len):
    """(n_seq, seq_len, dim) view of rows that hold whole sequences."""
    rows = np.asarray(rows, dtype=float)
    if seq_len < 1 or rows.ndim != 2 or rows.shape[0] % seq_len:
        raise ContractError(
            f"{rows.shape[0]} rows are not whole sequences of length {seq_len}"
        )
    return rows.reshape(-1, seq_len, rows.shape[-1])


def _units(net, rows, seq_len):
    """The data units of ``net``'s model: whole (n_seq, seq_len, dim)
    sequences, which ``rows`` must hold, when its factor has lead rows (the
    dynamics), else the (n, dim) rows.  Every rows-versus-sequences decision
    of the harness reads this."""
    if net.lead_rows:
        return _as_sequences(rows, seq_len)
    return np.asarray(rows, dtype=float)


def _shared_preps(state, seq_len, *rows):
    """The network's prepared pass over the units of each of ``rows``, None
    for an absent or empty one; a dynamics network runs them all through one
    filter.  ``prepare`` is deterministic, so one pass serves every task that
    reads its block."""
    present = [i for i, r in enumerate(rows) if r is not None and r.shape[0]]
    out = [None] * len(rows)
    blocks = [_units(state.net, rows[i], seq_len) for i in present]
    for i, prep in zip(present, state.net.prepare_blocks(blocks) if blocks else ()):
        out[i] = prep
    return out


def per_datum_bound(state, rows, seq_len=0, seed=0, n_samples=2, prep=None):
    """Average per-row bound estimate under the evaluation-point parameters.

    One ``bound.bound_estimate`` call scores the rows' units (rows, or every
    sequence of a dynamics model as one block) with all ``n_samples`` draws
    stacked.  ``prep`` is the network's prepared pass over the units when the
    caller has it.
    """
    model = models.GenerativeModel(decoder=eval_decoder(state), prior=eval_prior(state))
    est = bound.bound_estimate(
        model, state.net, _units(state.net, rows, seq_len), np.random.default_rng(seed),
        n_samples=n_samples, prep=prep,
    )
    return est.total / rows.shape[0]


def _masked(rows, fraction, seed):
    """The imputation mask over ``rows``, and the rows with it zeroed."""
    mask = np.random.default_rng(seed).random(rows.shape) < fraction
    return mask, np.where(mask, 0.0, rows)


def imputation_mse(state, rows, seq_len=0, fraction=IMPUTATION_FRACTION, seed=0, prep=None):
    """Mask a random fraction of entries, reconstruct from the posterior mean.

    A dynamics model smooths all the rows' sequences in one pass and decodes
    them as one stack of rows.  ``prep`` is the network's prepared pass over
    the units of the masked rows (``_masked(rows, fraction, seed)``) when the
    caller has it.
    """
    rows = np.asarray(rows, dtype=float)
    shape = _units(state.net, rows, seq_len).shape
    mask, filled = _masked(rows, fraction, seed)
    if not mask.any():
        return 0.0
    prep = state.net.prepared(filled.reshape(shape), prep)
    latent = state.net.posterior_mean(prep)[..., state.net.lead_rows :, :]
    recon, _, _ = nnet.forward(eval_decoder(state), latent.reshape(-1, latent.shape[-1]))
    return float(np.mean((recon[mask] - rows[mask]) ** 2))


def tau_ahead_mae(state, seqs, tau, prep=None):
    """Forecast error: filter the posterior, roll the generative mean, decode.

    The filtered mean at time t uses observations up to t only; the prior
    dynamics propagate it tau steps; the decoder emits the prediction.  The
    average runs over sequences, valid origins, and observed coordinates.
    All sequences go through one filter and one decoder pass; ``prep`` is
    the network's prepared block of ``seqs`` when the caller has it, and
    must cover them.
    """
    if not state.net.lead_rows:
        raise ContractError("tau-ahead forecasting needs a dynamics model")
    seqs = np.asarray(seqs, dtype=float)
    if seqs.ndim == 2:
        seqs = seqs[None, :, :]
    t_len = seqs.shape[1]
    if not 0 <= tau < t_len:
        raise ContractError("tau must lie in [0, T)")
    record = state.net.prepared(seqs, prep).record
    pred = models.forecast_means(record.mu_filt[:, 1:], eval_prior(state).trans, tau)
    mean, _, _ = nnet.forward(eval_decoder(state), pred.reshape(-1, pred.shape[-1]))
    return float(np.mean(np.abs(seqs[:, tau:] - mean.reshape(seqs[:, tau:].shape))))


def evaluate(state, ds, tasks, seed=0, taus=(1, 5, 10), n_draws=1000):
    """Run the requested evaluation tasks on the dataset's test split.

    Every block the tasks read is prepared once: the test block, which
    ``bound`` and every tau of ``tau-ahead`` share, and the masked test block
    of ``imputation``; a dynamics model prepares both through one filter.
    """
    out = {}
    test_rows = ds.rows[ds.test_idx] if ds.test_idx is not None else ds.rows
    seq_len = ds.seq_len or 0
    if "tau-ahead" in tasks:
        if not state.net.lead_rows:
            raise ContractError("tau-ahead forecasting needs a dynamics model")
        if not seq_len:
            raise ContractError("tau-ahead forecasting needs the data set's sequence length")
    test_prep, masked_prep = _shared_preps(
        state, seq_len,
        test_rows if "bound" in tasks or "tau-ahead" in tasks else None,
        _masked(test_rows, IMPUTATION_FRACTION, seed)[1] if "imputation" in tasks else None,
    )

    for task in tasks:
        if task == "bound":
            out["bound"] = per_datum_bound(
                state, test_rows, seq_len=seq_len, seed=seed, prep=test_prep
            )
        elif task == "imputation":
            out["imputation_mse"] = imputation_mse(
                state, test_rows, seq_len=seq_len, seed=seed, prep=masked_prep
            )
        elif task == "tau-ahead":
            seqs = _as_sequences(test_rows, seq_len)
            out["tau_mae"] = {t: tau_ahead_mae(state, seqs, t, test_prep) for t in taus}
        elif task == "sample-dump":
            model = models.GenerativeModel(
                decoder=eval_decoder(state), prior=eval_prior(state)
            )
            out["samples"] = models.generate(
                model, np.random.default_rng(seed), n_draws, seq_len=ds.seq_len
            )
        else:
            raise ContractError(f"unknown evaluation task {task!r}")
    return out


# ---------------------------------------------------------------------------
# Metrics log


def metrics_row(iteration, seconds=0.0, **columns):
    """One metrics-log row; every column not given is NaN."""
    row = dict.fromkeys(METRICS_COLUMNS, np.nan)
    row.update(iteration=iteration, seconds=seconds, **columns)
    return row


def format_metrics_row(row):
    return " ".join(repr(float(row[c])) if c != "iteration" else str(int(row[c])) for c in METRICS_COLUMNS)


def write_metrics(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            fh.write(format_metrics_row(row) + "\n")


def read_metrics(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if tuple(header) != METRICS_COLUMNS:
            raise ParseError(f"{path}: unexpected metrics header")
        for line in fh:
            vals = line.split()
            row = {c: (int(v) if c == "iteration" else float(v)) for c, v in zip(header, vals)}
            rows.append(row)
    return rows


def _structured_metrics_row(state, splits, cfg, iteration, seconds):
    # Common random numbers across evaluations: every point on a training
    # curve shares its noise draws, so the curve tracks parameter movement
    # rather than fresh estimator noise.  Each point stays unbiased.
    train_rows, val_rows, test_rows = splits
    seq_len = cfg.seq_len
    eval_seed = cfg.seed * 1_000_003 + 17
    has_test = test_rows is not None and test_rows.shape[0] > 0
    # The train cap, val, test and masked test blocks are prepared once (by a
    # dynamics model through one filter); the test bound and the tau-ahead
    # error share the test block's pass.
    masked = _masked(test_rows, IMPUTATION_FRACTION, eval_seed)[1] if has_test else None
    train_prep, val_prep, test_prep, masked_prep = _shared_preps(
        state, seq_len, train_rows, val_rows, test_rows, masked
    )

    def bound_on(rows, prep):
        if rows is None or rows.shape[0] == 0:
            return np.nan
        return per_datum_bound(state, rows, seq_len=seq_len, seed=eval_seed, prep=prep)

    row = metrics_row(
        iteration,
        seconds if cfg.timing else 0.0,
        train_bound=bound_on(train_rows, train_prep),
        val_bound=bound_on(val_rows, val_prep),
        test_bound=bound_on(test_rows, test_prep),
    )
    if has_test:
        row["imputation_mse"] = imputation_mse(
            state, test_rows, seq_len=seq_len, seed=eval_seed, prep=masked_prep
        )
        if state.net.lead_rows:
            test_seqs = _as_sequences(test_rows, seq_len)
            row["tau_mae"] = tau_ahead_mae(state, test_seqs, tau=1, prep=test_prep)
    return row


# ---------------------------------------------------------------------------
# Dataset plumbing


def load_dataset(cfg):
    """Load, split, and standardize the configured dataset."""
    if not cfg.dataset:
        raise ContractError("config has no dataset path")
    try:
        with open(cfg.dataset, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{cfg.dataset}: {exc}") from None
    has_labels = bool(header) and header[-1] == "label"
    ds = data.load_delimited(cfg.dataset, has_labels=has_labels)
    if cfg.seq_len:
        ds = dataclasses.replace(ds, seq_len=cfg.seq_len)
    ds = data.split(ds, train_frac=cfg.train_frac, seed=cfg.seed)
    ds, _, _ = data.standardize(ds)
    return ds


def _eval_splits(ds, cfg, net):
    """Train, val and test rows for the metrics log: each split's first
    EVAL_ROW_CAP rows, or its first EVAL_SEQ_CAP sequences in data-set order
    when ``net``'s units are sequences."""
    units = _units(net, ds.rows, cfg.seq_len)

    def cap(idx):
        if idx is None or idx.size == 0:
            return None
        if units.ndim == 2:
            return units[idx[:EVAL_ROW_CAP]]
        return units[np.unique(idx // cfg.seq_len)[:EVAL_SEQ_CAP]].reshape(-1, ds.dim)

    return cap(ds.train_idx), cap(ds.val_idx), cap(ds.test_idx)


# ---------------------------------------------------------------------------
# Checkpoint plumbing


def _state_arrays(state):
    """The arrays a checkpoint of ``state`` holds, by name."""
    arrays = {
        "phi": state.net.phi_vector(),
        "iteration": np.array(float(state.iteration)),
    }
    if state.theta_posterior is not None:
        arrays["theta_mu"] = state.theta_posterior.mu
        arrays["theta_sigma2"] = state.theta_posterior.sigma2
    else:
        arrays["theta_nn"] = nnet.param_vector(state.decoder)
    if state.pgm_posterior is not None:
        arrays["lambda"] = state.pgm_posterior.flat_values()
    if state.pgm_point is not None:
        arrays["theta_pgm"] = state.pgm_point.param_vector()
    if state.van is not None:
        arrays["van_mu"] = state.van.mu
        arrays["van_sigma2"] = state.van.sigma2
    for name, opt in (("nn", state.opt_nn), ("phi", state.opt_phi), ("pgm", state.opt_pgm)):
        if opt is not None:
            arrays[f"adagrad_{name}"] = opt.accum
    return arrays


def save_state(path, state, cfg):
    meta = {
        "config": config_to_text(cfg),
        "data_dim": str(state.data_dim),
        "prior_fixed": str(int(state.prior_fixed)),
        "prior_kind": type(state.pgm_point).__name__ if state.prior_fixed else "",
        "format": "structvi-train-state",
    }
    hyper = _hyperparameters(state.pgm_point, state.net.factor) if state.prior_fixed else ()
    meta.update({f"prior.{n}": repr(float(getattr(state.pgm_point, n))) for n in hyper})
    checkpoint.save(path, _state_arrays(state), meta)


def load_state(path):
    arrays, meta = checkpoint.load(path)
    if meta.get("format") != "structvi-train-state":
        raise ParseError(f"{path}: not a training checkpoint")
    dim = meta.get("data_dim", "")
    if "config" not in meta or not (dim.isdecimal() and int(dim) > 0):
        raise ParseError(f"{path}: a train state needs a config and a positive integer data_dim")
    cfg, data_dim = config_from_text(meta["config"], path=path), int(dim)
    state = init_state(cfg, data_dim)
    if meta.get("prior_fixed") == "1":
        # A fixed prior takes its shapes from the configured network's factor.
        kind, classes = meta.get("prior_kind"), (models.GaussianMixture, *POINT_PRIORS.values())
        extra = {k: v for k, v in meta.items() if k.startswith("prior.")}
        try:
            cls = {c.__name__: c for c in classes if c is not None}[kind]
            hyper = {k.removeprefix("prior."): float(v) for k, v in extra.items()}
            prior = _prior_like(cls, state.net.factor, cfg, **hyper)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"{path}: bad fixed prior {kind!r} for a {type(state.net.factor).__name__} "
                f"factor, metadata {extra}: {exc!r}"
            ) from None
        state = init_state(cfg, data_dim, prior_override=prior)
    for name, like in _state_arrays(state).items():
        if name not in arrays:
            raise ParseError(
                f"{path}: {name} is missing, the configured state needs shape {like.shape}"
            )
        if arrays[name].shape != like.shape:
            raise ParseError(
                f"{path}: {name} has shape {arrays[name].shape}, the configured "
                f"state needs {like.shape}"
            )
    state.net = state.net.with_phi_vector(arrays["phi"])
    if state.theta_posterior is not None:
        state.theta_posterior = dataclasses.replace(
            state.theta_posterior, mu=arrays["theta_mu"], sigma2=arrays["theta_sigma2"]
        )
    else:
        state.decoder = nnet.set_param_vector(state.decoder, arrays["theta_nn"])
    if state.pgm_posterior is not None:
        state.pgm_posterior = state.pgm_posterior.with_flat_values(arrays["lambda"])
    if state.pgm_point is not None:
        state.pgm_point = state.pgm_point.with_param_vector(arrays["theta_pgm"])
    if state.van is not None:
        state.van = updates.VanState(mu=arrays["van_mu"], sigma2=arrays["van_sigma2"])
    for name in ("nn", "phi", "pgm"):
        if getattr(state, f"opt_{name}") is not None:
            setattr(state, f"opt_{name}", updates.AdagradState(arrays[f"adagrad_{name}"]))
    state.iteration = int(arrays["iteration"])
    return state, cfg


# ---------------------------------------------------------------------------
# Training loops


@dataclass
class TrainResult:
    state: object
    metrics: list
    metrics_path: str
    checkpoint_path: str


def _finish(out_dir, name, state_saver, metrics):
    metrics_path = ckpt_path = ""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"{name}-metrics.txt")
        write_metrics(metrics_path, metrics)
        ckpt_path = os.path.join(out_dir, f"{name}.ckpt")
        state_saver(ckpt_path)
    return metrics_path, ckpt_path


def train_structured(cfg, ds=None, out_dir=None, prior_override=None):
    """The main training loop over the structured model family."""
    cfg.validate()
    if ds is None:
        ds = load_dataset(cfg)
    if ds.train_idx is None:
        raise ContractError("dataset must be split before training")
    state = init_state(cfg, ds.dim, prior_override=prior_override)
    units = _units(state.net, ds.rows[ds.train_idx], cfg.seq_len)
    n_total = units.shape[0]
    splits = _eval_splits(ds, cfg, state.net)
    rng = np.random.default_rng(cfg.seed + 1)
    metrics = [_structured_metrics_row(state, splits, cfg, 0, 0.0)]
    start = time.perf_counter()
    # Each train_step evaluates the bound at its input state, so that state is
    # the newest one known to be sound; it is what a failing run checkpoints.
    good = state
    try:
        for it in range(1, cfg.n_iters + 1):
            if units.ndim == 3:  # one whole sequence per step
                batch = units[rng.integers(0, n_total)]
            else:
                take = min(cfg.batch_size, n_total)
                batch = units[rng.choice(n_total, size=take, replace=False)]
            new_state, _ = train_step(state, cfg, batch, n_total, rng)
            good = state
            state = new_state
            if it % cfg.eval_interval == 0 or it == cfg.n_iters:
                metrics.append(
                    _structured_metrics_row(
                        state, splits, cfg, it, time.perf_counter() - start
                    )
                )
    except FAILURE_KINDS:
        if out_dir:
            _finish(out_dir, "structured", lambda p: save_state(p, good, cfg), metrics)
        raise
    metrics_path, ckpt_path = _finish(
        out_dir, "structured", lambda p: save_state(p, state, cfg), metrics
    )
    return TrainResult(state, metrics, metrics_path, ckpt_path)


def train_vae(cfg, ds=None, out_dir=None):
    """Plain VAE baseline trained by the same loop conventions."""
    cfg.validate()
    if ds is None:
        ds = load_dataset(cfg)
    rows = ds.rows[ds.train_idx]
    test_rows = ds.rows[ds.test_idx] if ds.test_idx is not None else None
    n_total, data_dim = rows.shape
    d = cfg.latent_dim
    rng = np.random.default_rng(cfg.seed)
    acts = [cfg.activation] * len(cfg.hidden)
    decoder = nnet.init_mlp([d, *cfg.hidden, 2 * data_dim], acts, rng)
    encoder = nnet.init_mlp([data_dim, *cfg.hidden, 2 * d], acts, rng)
    opt_dec = updates.AdagradState.zeros(nnet.num_params(decoder))
    opt_enc = updates.AdagradState.zeros(nnet.num_params(encoder))
    loop_rng = np.random.default_rng(cfg.seed + 1)

    def test_bound(it):
        if test_rows is None or not test_rows.shape[0]:
            return np.nan
        sub = test_rows[:EVAL_ROW_CAP]
        eval_rng = np.random.default_rng(cfg.seed * 1_000_003 + it)
        vals = []
        for _ in range(2):
            eps = eval_rng.standard_normal((sub.shape[0], d))
            elbo, _, _ = vae.elbo_and_grads(decoder, encoder, sub, eps)
            vals.append(elbo / sub.shape[0])
        return float(np.mean(vals))

    metrics = []
    start = time.perf_counter()
    for it in range(1, cfg.n_iters + 1):
        take = min(cfg.batch_size, n_total)
        batch = rows[loop_rng.choice(n_total, size=take, replace=False)]
        eps = loop_rng.standard_normal((take, d))
        _, dec_grad, enc_grad = vae.elbo_and_grads(decoder, encoder, batch, eps)
        scale = n_total / take
        vec, opt_dec = _euclid_step(
            "adagrad", nnet.param_vector(decoder), scale * dec_grad, opt_dec, cfg.beta2
        )
        decoder = nnet.set_param_vector(decoder, vec)
        vec, opt_enc = _euclid_step(
            "adagrad", nnet.param_vector(encoder), scale * enc_grad, opt_enc, cfg.beta3
        )
        encoder = nnet.set_param_vector(encoder, vec)
        if it % cfg.eval_interval == 0 or it == cfg.n_iters:
            seconds = (time.perf_counter() - start) if cfg.timing else 0.0
            metrics.append(metrics_row(it, seconds, test_bound=test_bound(it)))

    def saver(path):
        checkpoint.save(
            path,
            {
                "decoder": nnet.param_vector(decoder),
                "encoder": nnet.param_vector(encoder),
            },
            {"config": config_to_text(cfg), "format": "structvi-vae"},
        )

    metrics_path, ckpt_path = _finish(out_dir, "vae", saver, metrics)
    return TrainResult((decoder, encoder), metrics, metrics_path, ckpt_path)


def train_vb_gmm(cfg, ds=None, out_dir=None):
    """Conjugate mixture EM baseline on the raw observations."""
    cfg.validate()
    if ds is None:
        ds = load_dataset(cfg)
    rows = ds.rows[ds.train_idx]
    res = baselines.vb_gmm_fit(
        rows, k=cfg.n_components, n_iter=cfg.n_iters, seed=cfg.seed
    )
    test_rows = ds.rows[ds.test_idx] if ds.test_idx is not None else None
    test_score = (
        float(np.mean(baselines.vb_gmm_predictive_logpdf(res.posterior, test_rows)))
        if test_rows is not None and test_rows.shape[0]
        else np.nan
    )
    metrics = [metrics_row(i + 1, train_bound=e / rows.shape[0]) for i, e in enumerate(res.elbos)]
    metrics[-1]["test_bound"] = test_score

    def saver(path):
        checkpoint.save(
            path,
            {"lambda": res.posterior.flat_values()},
            {"config": config_to_text(cfg), "format": "structvi-vb-gmm"},
        )

    metrics_path, ckpt_path = _finish(out_dir, "vb-gmm", saver, metrics)
    return TrainResult(res, metrics, metrics_path, ckpt_path)


def train_lds_em(cfg, ds=None, out_dir=None):
    """Dynamics EM baseline on the raw sequences."""
    cfg.validate()
    if cfg.seq_len < 2:
        raise ContractError("lds-em needs seq_len >= 2")
    if ds is None:
        ds = load_dataset(cfg)
    seqs = _as_sequences(ds.rows[ds.train_idx], cfg.seq_len)
    params, logliks = baselines.lds_em_fit(seqs, d=cfg.latent_dim, n_iter=cfg.n_iters)
    metrics = [
        metrics_row(i + 1, train_bound=ll / (seqs.shape[0] * cfg.seq_len))
        for i, ll in enumerate(logliks)
    ]
    if ds.test_idx is not None and ds.test_idx.size:
        test_seqs = _as_sequences(ds.rows[ds.test_idx], cfg.seq_len)
        metrics[-1]["test_bound"] = baselines.lds_em_loglik(params, test_seqs) / ds.test_idx.size
        metrics[-1]["tau_mae"] = baselines.lds_em_tau_mae(params, test_seqs, 1)

    def saver(path):
        checkpoint.save(
            path,
            {
                "trans": params.trans,
                "trans_cov": params.trans_cov,
                "emit": params.emit,
                "emit_cov": params.emit_cov,
                "init_mean": params.init_mean,
                "init_cov": params.init_cov,
            },
            {"config": config_to_text(cfg), "format": "structvi-lds-em"},
        )

    metrics_path, ckpt_path = _finish(out_dir, "lds-em", saver, metrics)
    return TrainResult((params, logliks), metrics, metrics_path, ckpt_path)


# ---------------------------------------------------------------------------
# Plot data


def pca_basis(rows):
    """Train-data principal plane: (mean, (D, 2) orthonormal basis)."""
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    _, _, vt = np.linalg.svd(rows - mean, full_matrices=False)
    return mean, vt[:2].T


def _write_table(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def dump_plot_data(state, ds, out_dir, n_draws=2000, metrics=None, seed=0):
    """Emit generated samples, labeled data, and curves as delimited text."""
    os.makedirs(out_dir, exist_ok=True)
    prior = eval_prior(state)
    model = models.GenerativeModel(decoder=eval_decoder(state), prior=prior)
    draw = models.generate(model, np.random.default_rng(seed), n_draws, seq_len=ds.seq_len)
    samples = draw.y.reshape(-1, ds.dim)
    # A draw without labels (dynamics) is one component of weight 1.
    comp, weight = np.zeros(samples.shape[0]), np.ones(samples.shape[0])
    if draw.labels is not None:
        comp, weight = draw.labels.astype(float), prior.weights[draw.labels]

    rows = ds.rows
    labels = ds.labels if ds.labels is not None else np.full(rows.shape[0], -1)
    if ds.dim > 2:
        mean, basis = pca_basis(rows)
        samples_xy = (samples - mean) @ basis
        data_xy = (rows - mean) @ basis
    else:
        samples_xy = samples
        data_xy = rows

    paths = {
        "samples": os.path.join(out_dir, "samples.txt"),
        "data": os.path.join(out_dir, "data.txt"),
        "curves": os.path.join(out_dir, "curves.txt"),
    }
    coord_names = [f"pc{i}" if ds.dim > 2 else f"x{i}" for i in range(samples_xy.shape[1])]
    _write_table(
        paths["samples"],
        coord_names + ["component", "weight"],
        [list(s) + [c, w] for s, c, w in zip(samples_xy, comp, weight)],
    )
    _write_table(
        paths["data"],
        coord_names + ["label"],
        [list(r) + [l] for r, l in zip(data_xy, labels)],
    )
    write_metrics(paths["curves"], metrics or [])
    return paths
