"""Training orchestration, evaluation tasks, and plot-data emission.

One structured training loop covers the three model kinds.  Mixture-structured
runs keep a conjugate posterior over mixture parameters and move it by
natural-gradient steps; heavy-tailed mixture and dynamics runs carry point
parameters moved by the configured Euclidean rule.  Per iteration the loop
draws point generative parameters, takes one posterior sample with its
gradient bundle, and steps every block by its own rule: the decoder theta_nn
and the network's phi by VAN's joint search or the Euclidean rule (sgd or
adagrad), a Bayes decoder by its natural-parameter step, the conjugate
theta_pgm by natural gradients, and a point theta_pgm by the Euclidean rule.
One list, ``BLOCKS``, names each point block's field, vectors, gradient, step
size, adagrad accumulator and checkpoint array; ``init_state``, ``train_step``
and the checkpoint reader and writer read it.  Baseline trainers for the plain
variational autoencoder, variational-Bayes mixture EM, and dynamical-system EM
live alongside so comparisons share data handling and metrics format; they
write only their metrics logs, and only the structured trainer writes a
checkpoint (``save_state``, read back by ``load_state``).  A baseline refuses a
model kind it does not fit and any rule but adagrad on a point decoder
(``BASELINES``), so that no setting it would ignore passes silently.
Priors score and draw themselves and networks give posterior means, so the
harness holds no per-family code: the model kind names a point-prior class
(``POINT_PRIORS``), and the network's factor says whether data units are rows
or sequences (``_units``) and gives a point or fixed prior its parameters.
The held-out tasks (bound, imputation, tau-ahead) have one implementation,
``_scores``, which ``evaluate``, the metrics log and each task function call.

Metrics logs are delimited text, one row per evaluation, header first.  All
randomness flows from the config seed through dedicated generators, so a rerun
with the same config reproduces the log bit for bit; the wall-clock column can
be zeroed by the config's timing switch when that guarantee must extend to the
whole file.
"""

import dataclasses
import math
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, bound, checkpoint, data, infnet, models, nnet, updates, vae
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
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.train_frac <= 1.0:
            raise ContractError("train_frac must lie in (0, 1]")
        if not all(0.0 <= b < math.inf for b in (self.beta1, self.beta2, self.beta3)):
            raise ContractError("step sizes must be finite and nonnegative")
        if self.model_kind == "latent-gmm" and self.beta1 > 1.0:
            raise ContractError("latent-gmm's natural-gradient step needs beta1 in [0, 1]")
        if self.theta_nn == "bayes" and self.beta2 > 1.0:
            raise ContractError("a bayes decoder's natural-parameter step needs beta2 in [0, 1]")
        if not 2.0 < self.dof < math.inf:
            raise ContractError("dof must be finite and exceed 2 for finite component variance")
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
    """Parse key = value lines; later keys win.  A line whose first non-blank
    character is '#' is a comment; a '#' anywhere else is part of the value,
    so a saved path such as ``run#1/pin.txt`` reads back whole."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
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
    # Each field's rule; decoder, net and pgm_point are the BLOCKS entries.
    net: object  # posterior network; its factor's family is the model's; phi: VAN or Euclidean
    decoder: nnet.Mlp  # theta_nn: VAN or Euclidean; under bayes only its layout is used
    theta_posterior: object  # BayesNnPosterior (bayes_nn_step) or None
    pgm_posterior: object  # conjugate mixture posterior (natural gradients), or None
    pgm_prior: object  # fixed conjugate prior for the posterior above
    pgm_point: object  # point prior parameters when there is no posterior; Euclidean
    prior_fixed: bool  # pgm_point was given and does not train
    opt_nn: object  # adagrad accumulator of each block the Euclidean rule steps,
    opt_phi: object  # when that rule is adagrad (as it is for a point prior
    opt_pgm: object  # under VAN); None for every other block
    van: object  # VanState over [theta_nn, phi] when optimizer == "van"
    iteration: int
    data_dim: int


# The three point blocks: (TrainState field, vector getter, setter, GradBundle
# gradient, step-size field, adagrad-accumulator field, checkpoint array).
BLOCKS = (
    ("decoder", nnet.param_vector, nnet.set_param_vector,
     "grad_theta_nn", "beta2", "opt_nn", "theta_nn"),
    ("net", lambda net: net.phi_vector(), lambda net, vec: net.with_phi_vector(vec),
     "grad_phi", "beta3", "opt_phi", "phi"),
    ("pgm_point", lambda prior: prior.param_vector(), lambda p, vec: p.with_param_vector(vec),
     "grad_theta_pgm", "beta1", "opt_pgm", "theta_pgm"),
)


def _euclid_blocks(cfg, state):
    """The BLOCKS entries that the Euclidean rule steps: VAN's search takes
    the decoder and phi jointly, a Bayes posterior takes the decoder, and a
    conjugate or fixed prior takes no point step."""
    stepped = {
        "decoder": cfg.optimizer != "van" and state.theta_posterior is None,
        "net": cfg.optimizer != "van",
        "pgm_point": state.pgm_point is not None and not state.prior_fixed,
    }
    return [block for block in BLOCKS if stepped[block[0]]]


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
        pgm_point = net.checked_prior(prior_override)
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

    van = None
    if cfg.optimizer == "van":
        van = updates.VanState.init(
            np.concatenate([nnet.param_vector(decoder), net.phi_vector()]),
            VAN_INIT_SIGMA2,
        )
    state = TrainState(
        net=net,
        decoder=decoder,
        theta_posterior=theta_posterior,
        pgm_posterior=pgm_posterior,
        pgm_prior=pgm_prior,
        pgm_point=pgm_point,
        prior_fixed=prior_override is not None,
        opt_nn=None,
        opt_phi=None,
        opt_pgm=None,
        van=van,
        iteration=0,
        data_dim=data_dim,
    )
    for field, get, _, _, _, opt, _ in _euclid_blocks(cfg, state) if cfg.optimizer != "sgd" else ():
        setattr(state, opt, np.zeros(get(getattr(state, field)).size))
    return state


def eval_prior(state, rng=None):
    """The point prior, or the conjugate posterior's mean (every evaluation)
    or, given ``rng``, one draw from it (a training step)."""
    if state.pgm_posterior is None:
        return state.pgm_point
    if rng is None:
        params = updates.posterior_mean_params(state.pgm_posterior)
    else:
        params = updates.sample_gmm_params(state.pgm_posterior, rng)
    return models.GaussianMixture.from_factors(*params)


def eval_decoder(state):
    if state.theta_posterior is not None:
        return nnet.set_param_vector(state.decoder, state.theta_posterior.mu)
    return state.decoder


def _euclid_step(optimizer, params, grad, accum, beta):
    if beta == 0.0:
        return params, accum
    if optimizer == "sgd":
        return updates.sgd_step(params, grad, beta), accum
    return updates.adagrad_step(params, grad, accum, beta)


def train_step(state, cfg, batch, n_total, rng):
    """One full update pass; returns the new state and the gradient bundle.

    The step takes its one gradient bundle from VAN's search over [theta_nn,
    phi], which also moves both, or from one ``bound_gradients`` call.  Then
    a Bayes decoder takes its natural-parameter step, a conjugate theta_pgm
    its natural-gradient step (unless beta1 is 0), and each block that
    ``_euclid_blocks`` picks from ``BLOCKS`` its sgd or adagrad step (none
    when its step size is 0).
    """
    prior = eval_prior(state, rng)
    decoder, post, new = state.decoder, state.theta_posterior, {}
    if post is not None:
        noise = rng.standard_normal(post.mu.shape)
        decoder = nnet.set_param_vector(decoder, post.mu + np.sqrt(post.sigma2) * noise)

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
        new.update(
            van=van,
            decoder=nnet.set_param_vector(decoder, van.mu[:n_nn]),
            net=state.net.with_phi_vector(van.mu[n_nn:]),
        )
    else:
        model = models.GenerativeModel(decoder=decoder, prior=prior)
        bundle = bound.bound_gradients(model, state.net, batch, rng, n_total)

    if post is not None:
        g = bundle.grad_theta_nn
        g_sigma2 = g * noise / (2.0 * np.sqrt(post.sigma2))
        new["theta_posterior"] = updates.bayes_nn_step(post, g, g_sigma2, cfg.beta2)
    if state.pgm_posterior is not None and cfg.beta1 > 0.0:
        msg = updates.conjugate_gmm_message(
            state.pgm_prior,
            bundle.sample.x_star,
            bundle.sample.z_star,
            n_total=n_total,
        )
        new["pgm_posterior"] = updates.natural_gradient_step(
            state.pgm_posterior, msg, cfg.beta1
        )
    for field, get, put, grad, beta, opt, _ in _euclid_blocks(cfg, state):
        block = getattr(state, field)
        vec, new[opt] = _euclid_step(
            cfg.optimizer, get(block), getattr(bundle, grad), getattr(state, opt),
            getattr(cfg, beta),
        )
        new[field] = put(block, vec)

    state = dataclasses.replace(state, iteration=state.iteration + 1, **new)
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


def _masked(rows, fraction, seed):
    """The imputation mask over ``rows``, and the rows with it zeroed."""
    mask = np.random.default_rng(seed).random(rows.shape) < fraction
    return mask, np.where(mask, 0.0, rows)


def _scores(state, seq_len, seed, jobs, n_samples=2, fraction=IMPUTATION_FRACTION):
    """The one implementation of the evaluation tasks: ``{name: value}`` for
    named jobs ``(task, rows, taus)`` under the evaluation-point parameters.

    ``bound`` is the per-row bound estimate with ``n_samples`` draws stacked;
    ``imputation`` zeroes a random ``fraction`` of the entries and scores
    their posterior-mean reconstruction; ``tau-ahead`` maps each of ``taus``
    to the error of the filtered means rolled tau steps by the prior
    dynamics and decoded.  Each task draws from a fresh generator on
    ``seed``; a job on no rows raises ``ContractError``, and an imputation
    job that masks nothing scores 0.  Jobs on the same rows share a pass:
    one ``prepare_blocks`` call, one filter for a dynamics network, prepares
    each distinct nonempty block (a masked one per imputation job) in job
    order."""
    net = state.net
    if any(task == "tau-ahead" for task, _, _ in jobs.values()):
        if not net.lead_rows:
            raise ContractError("tau-ahead forecasting needs a dynamics model")
        if not seq_len:
            raise ContractError("tau-ahead forecasting needs the data set's sequence length")
    units, masks = {}, {}  # by (masked, id(rows)); a job's rows are held, so ids are unique
    for task, rows, _ in jobs.values():
        key = (task == "imputation", id(rows))
        if key not in units:
            if key[0]:
                masks[key], rows = _masked(rows, fraction, seed)
            units[key] = _units(net, rows, seq_len)
    present = [key for key, block in units.items() if block.shape[0]]
    preps = dict(zip(present, net.prepare_blocks([units[k] for k in present]) if present else ()))
    model = models.GenerativeModel(decoder=eval_decoder(state), prior=eval_prior(state))

    out = {}
    for name, (task, rows, taus) in jobs.items():
        key = (task == "imputation", id(rows))
        block, prep, mask = units[key], preps.get(key), masks.get(key)
        if task == "bound":
            rng = np.random.default_rng(seed)
            est = bound.bound_estimate(model, net, block, rng, n_samples=n_samples, prep=prep)
            out[name] = est.total / rows.shape[0]
        elif task == "imputation" and prep is None:
            raise ContractError("imputation needs at least one row")
        elif task == "imputation" and not mask.any():
            out[name] = 0.0
        elif task == "imputation":
            latent = net.posterior_mean(prep)[..., net.lead_rows :, :]
            recon, _, _ = nnet.forward(model.decoder, latent.reshape(-1, latent.shape[-1]))
            out[name] = float(np.mean((recon[mask] - rows[mask]) ** 2))
        elif prep is None:
            raise ContractError("tau-ahead forecasting needs at least one sequence")
        else:
            filtered = prep.record.mu_filt[:, 1:]
            out[name] = {}
            for tau in taus:
                models.check_tau(tau, block.shape[1])
                pred = models.forecast_means(filtered, model.prior.trans, tau)
                mean, _, _ = nnet.forward(model.decoder, pred.reshape(-1, pred.shape[-1]))
                err = np.abs(block[:, tau:] - mean.reshape(*pred.shape[:-1], -1))
                out[name][tau] = float(np.mean(err))
    return out


def per_datum_bound(state, rows, seq_len=0, seed=0, n_samples=2):
    """Average per-row bound estimate of ``rows`` (rows, or every sequence of
    a dynamics model as one block): a one-job call of ``_scores``."""
    return _scores(state, seq_len, seed, {"b": ("bound", rows, None)}, n_samples=n_samples)["b"]


def imputation_mse(state, rows, seq_len=0, fraction=IMPUTATION_FRACTION, seed=0):
    """Mask a random fraction of entries, reconstruct from the posterior mean:
    a one-job call of ``_scores``.  A dynamics model smooths all the rows'
    sequences in one pass and decodes them as one stack of rows."""
    jobs = {"mse": ("imputation", np.asarray(rows, dtype=float), None)}
    return _scores(state, seq_len, seed, jobs, fraction=fraction)["mse"]


def tau_ahead_mae(state, seqs, tau):
    """Forecast error of one (T, D) sequence or an (n, T, D) block: filter
    the posterior, roll the generative mean tau steps, decode; a one-job
    call of ``_scores``, with one filter and one decoder pass."""
    seqs = np.asarray(seqs, dtype=float)
    jobs = {"mae": ("tau-ahead", seqs.reshape(-1, seqs.shape[-1]), (tau,))}
    return _scores(state, seqs.shape[-2], 0, jobs)["mae"][tau]


def _check_width(state, ds):
    """ContractError unless the rows of ``ds`` are as wide as the model's."""
    if ds.dim != state.data_dim:
        raise ContractError(
            f"the data set has {ds.dim} columns, the checkpoint's model reads {state.data_dim}"
        )


def evaluate(state, ds, tasks, seed=0, taus=(1, 5, 10), n_draws=1000):
    """Run the requested evaluation tasks on the dataset's test split.

    ``bound``, ``tau-ahead`` (at each of ``taus``) and ``imputation`` are
    jobs of one ``_scores`` call on the test rows, which prepares the test
    block and its masked copy once for them all; ``sample-dump`` draws
    ``n_draws`` samples from the generative model.
    """
    _check_width(state, ds)
    test_rows = ds.rows[ds.test_idx] if ds.test_idx is not None else ds.rows
    keys = {"bound": "bound", "tau-ahead": "tau_mae", "imputation": "imputation_mse"}
    jobs = {key: (task, test_rows, taus) for task, key in keys.items() if task in tasks}
    scores = _scores(state, ds.seq_len or 0, seed, jobs)
    out = {}
    for task in tasks:
        if task in keys:
            out[keys[task]] = scores[keys[task]]
        elif task == "sample-dump":
            model = models.GenerativeModel(decoder=eval_decoder(state), prior=eval_prior(state))
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
    # rather than fresh estimator noise.  Each point stays unbiased.  The
    # bound of an absent or empty split is NaN, and with no test rows so are
    # the imputation and tau-ahead errors.
    names = ("train_bound", "val_bound", "test_bound")
    jobs = {n: ("bound", r, None) for n, r in zip(names, splits) if r is not None and r.shape[0]}
    if "test_bound" in jobs:
        jobs["imputation_mse"] = ("imputation", splits[2], None)
        if state.net.lead_rows:
            jobs["tau_mae"] = ("tau-ahead", splits[2], (1,))
    scores = _scores(state, cfg.seq_len, cfg.seed * 1_000_003 + 17, jobs)
    if "tau_mae" in scores:
        scores["tau_mae"] = scores["tau_mae"][1]
    return metrics_row(iteration, seconds if cfg.timing else 0.0, **scores)


# ---------------------------------------------------------------------------
# Dataset plumbing


def load_dataset(cfg):
    """Load, split, and standardize the configured dataset."""
    if not cfg.dataset:
        raise ContractError("config has no dataset path")
    ds = data.load_delimited(cfg.dataset, has_labels=None)  # labels if the header names them
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


def _saved_fields(state):
    """(TrainState field, checkpoint array names, getter of those arrays,
    setter from them) for each field that a checkpoint of ``state`` holds;
    ``_state_arrays`` and ``load_state`` both read this one list."""
    mu_sigma2 = operator.attrgetter("mu", "sigma2")
    fields = [
        ("theta_posterior", ("theta_mu", "theta_sigma2"), mu_sigma2,
         lambda post, mu, sigma2: dataclasses.replace(post, mu=mu, sigma2=sigma2)),
        ("pgm_posterior", ("lambda",), lambda q: (q.flat_values(),),
         lambda q, flat: q.with_flat_values(flat)),
        ("van", ("van_mu", "van_sigma2"), mu_sigma2,
         lambda _, mu, sigma2: updates.VanState(mu=mu, sigma2=sigma2)),
    ]
    for field, get, put, _, _, opt, name in BLOCKS:
        if field != "decoder" or state.theta_posterior is None:  # else held as its posterior
            fields.append((field, (name,), lambda block, get=get: (get(block),), put))
        fields.append((opt, (opt.replace("opt", "adagrad"),), lambda a: (a,), lambda _, a: a))
    return [entry for entry in fields if getattr(state, entry[0]) is not None]


def _state_arrays(state):
    """The arrays a checkpoint of ``state`` holds, by name."""
    arrays = {"iteration": np.array(float(state.iteration))}
    for field, names, get, _ in _saved_fields(state):
        arrays.update(zip(names, get(getattr(state, field))))
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
    for field, names, _, put in _saved_fields(state):
        setattr(state, field, put(getattr(state, field), *(arrays[name] for name in names)))
    it = float(arrays["iteration"])
    if not 0 <= it <= 2**53 or it % 1:  # float64 holds every whole count to 2**53
        raise ParseError(f"{path}: iteration {it!r} is not a whole count of steps")
    state.iteration = int(it)
    return state, cfg


# ---------------------------------------------------------------------------
# Training loops


@dataclass
class TrainResult:
    state: object
    metrics: list
    metrics_path: str
    checkpoint_path: str


def _finish(out_dir, name, metrics, state=None, cfg=None):
    """Write ``name``'s metrics log under ``out_dir`` and, given a structured
    ``state``, its checkpoint; return (metrics path, checkpoint path), each ""
    when not written.  Without ``out_dir`` nothing is written."""
    metrics_path = ckpt_path = ""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"{name}-metrics.txt")
        write_metrics(metrics_path, metrics)
        if state is not None:
            ckpt_path = os.path.join(out_dir, f"{name}.ckpt")
            save_state(ckpt_path, state, cfg)
    return metrics_path, ckpt_path


def _training_split(cfg, ds):
    """``ds``, else the config's dataset, which must have a training split."""
    if ds is None:
        ds = load_dataset(cfg)
    if ds.train_idx is None:
        raise ContractError("dataset must be split before training")
    return ds


def train_structured(cfg, ds=None, out_dir=None, prior_override=None):
    """The main training loop over the structured model family."""
    cfg.validate()
    ds = _training_split(cfg, ds)
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
        _finish(out_dir, "structured", metrics, good, cfg)
        raise
    return TrainResult(state, metrics, *_finish(out_dir, "structured", metrics, state, cfg))


# Each baseline trainer's model kinds and its one fitting rule.
BASELINES = {
    "vae": (("latent-gmm", "latent-tmm"), "steps a point decoder by adagrad"),
    "vb-gmm": (("latent-gmm",), "fits a conjugate mixture by EM"),
    "lds-em": (("latent-lds",), "fits dynamics by EM"),
}


def _check_baseline(cfg, name):
    """Validate ``cfg``; refuse a model kind or a rule the ``name`` baseline ignores."""
    cfg.validate()
    kinds, rule = BASELINES[name]
    if cfg.model_kind not in kinds:
        raise ContractError(f"the {name} trainer fits {' or '.join(kinds)}, not {cfg.model_kind}")
    if cfg.optimizer != "adagrad" or cfg.theta_nn != "point":
        raise ContractError(
            f"the {name} trainer {rule}, not "
            f"optimizer {cfg.optimizer!r} with theta_nn {cfg.theta_nn!r}"
        )


def train_vae(cfg, ds=None, out_dir=None):
    """Plain VAE baseline trained by the same loop conventions."""
    _check_baseline(cfg, "vae")
    ds = _training_split(cfg, ds)
    rows = ds.rows[ds.train_idx]
    test_rows = ds.rows[ds.test_idx] if ds.test_idx is not None else None
    n_total, data_dim = rows.shape
    d = cfg.latent_dim
    rng = np.random.default_rng(cfg.seed)
    acts = [cfg.activation] * len(cfg.hidden)
    decoder = nnet.init_mlp([d, *cfg.hidden, 2 * data_dim], acts, rng)
    encoder = nnet.init_mlp([data_dim, *cfg.hidden, 2 * d], acts, rng)
    opt_dec = np.zeros(nnet.num_params(decoder))
    opt_enc = np.zeros(nnet.num_params(encoder))
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

    return TrainResult((decoder, encoder), metrics, *_finish(out_dir, "vae", metrics))


def train_vb_gmm(cfg, ds=None, out_dir=None):
    """Conjugate mixture EM baseline on the raw observations."""
    _check_baseline(cfg, "vb-gmm")
    ds = _training_split(cfg, ds)
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

    return TrainResult(res, metrics, *_finish(out_dir, "vb-gmm", metrics))


def train_lds_em(cfg, ds=None, out_dir=None):
    """Dynamics EM baseline on the raw sequences."""
    _check_baseline(cfg, "lds-em")
    ds = _training_split(cfg, ds)
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

    return TrainResult((params, logliks), metrics, *_finish(out_dir, "lds-em", metrics))


# ---------------------------------------------------------------------------
# Plot data


def pca_basis(rows):
    """Train-data principal plane: (mean, (D, 2) orthonormal basis)."""
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    _, _, vt = np.linalg.svd(rows - mean, full_matrices=False)
    return mean, vt[:2].T


def dump_plot_data(state, ds, out_dir, n_draws=2000, metrics=None, seed=0):
    """Emit generated samples, labeled data, and curves as delimited text."""
    _check_width(state, ds)
    prior = eval_prior(state)
    model = models.GenerativeModel(decoder=eval_decoder(state), prior=prior)
    draw = models.generate(model, np.random.default_rng(seed), n_draws, seq_len=ds.seq_len)
    os.makedirs(out_dir, exist_ok=True)
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
    data.write_table(
        paths["samples"],
        coord_names + ["component", "weight"],
        [list(s) + [c, w] for s, c, w in zip(samples_xy, comp, weight)],
    )
    data.write_table(
        paths["data"],
        coord_names + ["label"],
        [list(r) + [l] for r, l in zip(data_xy, labels)],
    )
    write_metrics(paths["curves"], metrics or [])
    return paths
