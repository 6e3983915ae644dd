"""Check that two structvi source trees compute the same arrays.

    python3 tools/same.py HEAD .

A and B are directories or git revisions (see trees.py).  Both run one
fixed list of cases from the same seeds and data: ``train_structured`` for
each model kind under every rule the harness routes, followed by an
``evaluate`` of the trained state (bound, imputation, tau-ahead for
sequences, and drawn samples); short ``train_lds_em`` fits at latent
dimensions 1, 2 and 3; a ``train_vb_gmm`` fit; and a ``train_vae`` run.
The structured rules are ``adagrad`` and ``van`` (beta3 = 1e-3) at two
seeds each, ``sgd`` at beta1 = beta2 = beta3 = 1e-3, a ``bayes`` decoder
under ``adagrad``, and a fixed prior (the initial network's factor) under
``adagrad`` and ``van``, all with tanh layers; ``latent-gmm`` under
``adagrad`` at the first seed also runs once with each other activation
(softplus, relu, identity), and ``latent-lds`` under ``adagrad`` at the
first seed once at latent dimension 16, where every chain takes
``infnet.backward_chain``'s step loop (every other case runs at d <= 3, where
every shared-gain chain doubles).
Each structured case records its metrics log (written with ``timing = 0``,
so its seconds column is 0), the network's phi, the decoder's vector and
the prior's (posterior naturals or point parameters), every evaluation
output, and the arrays of a ``save_state`` -> ``load_state`` ->
``save_state`` round trip.  Each other case records its metrics log and
its fitted parameters (for the VAE, the decoder's and encoder's vectors);
each ``train_lds_em`` case also records, once a first filter and smooth of
the test block have warmed its fitted parameters' memo, the test
log-likelihood, the tau = 1 MAE and each test sequence's smoothed means.

The JSON line maps each case's array to "equal" (``np.array_equal``, NaN
positions equal) or to its largest relative difference,
max |a - b| / max |a|, or to a note when the shapes or the raised errors
differ or only one side has the array.  A case that raises on both sides
compares each error's type and message.  The exit status is 0 when every
array is equal, or within ``--rtol`` when one is given.
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

import trees

KINDS = ("latent-gmm", "latent-tmm", "latent-lds")
# (case label, config fields, fixed prior?, seeds); tiny runs take the first seed.
RULES = (
    ("adagrad", {}, False, (0, 1)),
    ("van", {"optimizer": "van", "beta3": 1e-3}, False, (0, 1)),
    ("sgd", {"optimizer": "sgd", "beta1": 1e-3, "beta2": 1e-3, "beta3": 1e-3}, False, (0,)),
    ("bayes", {"theta_nn": "bayes"}, False, (0,)),
    ("fixed-adagrad", {}, True, (0,)),
    ("fixed-van", {"optimizer": "van", "beta3": 1e-3}, True, (0,)),
)
# Every rule above runs tanh layers; each other activation gets one
# latent-gmm adagrad case at the first seed.
OTHER_ACTIVATIONS = ("softplus", "relu", "identity")


def _datasets(pkg, workdir, tiny):
    """(pinwheel config fields, dots config fields): each with its data file."""
    n_per_arm, n_seq, t_len = (20, 6, 5) if tiny else (100, 12, 10)
    out = []
    for name, raw, extra in (
        ("pinwheel", pkg.data.pinwheel(n_per_arm=n_per_arm, arms=3, seed=0), {}),
        ("dots", pkg.data.dot_sequences(n_seq, t_len, 4, noise_std=0.05, seed=0), {"seq_len": t_len}),
    ):
        path = os.path.join(workdir, f"{pkg.__name__}-{name}.txt")
        pkg.data.export(raw, path)
        out.append(dict(dataset=path, **extra))
    return out


def _metrics(rows):
    return np.array([[row[c] for c in sorted(row)] for row in rows])


def _structured(pkg, cfg, ds, fixed, ckpt):
    h = pkg.harness
    override = h.init_state(cfg, ds.dim).net.factor if fixed else None
    res = h.train_structured(cfg, ds, prior_override=override)
    state = res.state
    post = state.pgm_posterior
    prior = post.flat_values() if post is not None else state.pgm_point.param_vector()
    tasks = ["bound", "imputation", "sample-dump"] + (["tau-ahead"] if cfg.seq_len else [])
    ev = h.evaluate(state, ds, tasks, seed=5, taus=(1, 2), n_draws=20)
    out = dict(
        metrics=_metrics(res.metrics), phi=state.net.phi_vector(),
        decoder=pkg.nnet.param_vector(state.decoder), prior=prior,
    )
    draw = ev.pop("samples")
    out.update(sample_y=draw.y, sample_x=draw.x)
    for key, value in ev.items():
        values = value.values() if isinstance(value, dict) else [value]
        out[f"eval_{key}"] = np.array(list(values), dtype=float)
    h.save_state(ckpt, state, cfg)
    h.save_state(ckpt, h.load_state(ckpt)[0], cfg)
    out.update({f"ckpt_{name}": a for name, a in pkg.checkpoint.load(ckpt)[0].items()})
    return out


def cases(pkg, workdir, tiny):
    """{case name: thunk returning {array name: array}} for ``pkg``."""
    h = pkg.harness
    pin, dots = _datasets(pkg, workdir, tiny)
    n_iters = 4 if tiny else 40
    out = {}

    def structured(kind, label, fixed, seed, extra):
        cfg = h.TrainConfig(
            model_kind=kind, n_components=3, hidden=(8,), batch_size=16,
            n_iters=n_iters, eval_interval=n_iters // 2, timing=False,
            seed=seed, **extra, **(dots if kind == "latent-lds" else pin),
        )
        name = f"{kind}/{label}/seed{seed}"
        ckpt = os.path.join(workdir, f"{pkg.__name__}-{name.replace('/', '-')}.ckpt")
        out[name] = lambda: _structured(pkg, cfg, h.load_dataset(cfg), fixed, ckpt)

    for kind in KINDS:
        for label, extra, fixed, seeds in RULES:
            for seed in seeds[:1] if tiny else seeds:
                structured(kind, label, fixed, seed, extra)
    for act in OTHER_ACTIVATIONS:
        structured("latent-gmm", f"adagrad-{act}", False, 0, {"activation": act})
    # at d = 16 a step's chains are past infnet.DOUBLING_MAX_OPERANDS
    structured("latent-lds", "adagrad-d16", False, 0, {"latent_dim": 16})

    vb_cfg = h.TrainConfig(n_components=3, n_iters=3 if tiny else 10, timing=False, **pin)

    def lds_em(d):
        cfg = h.TrainConfig(
            model_kind="latent-lds", latent_dim=d, n_iters=3 if tiny else 10, timing=False, **dots
        )
        ds = h.load_dataset(cfg)
        res = h.train_lds_em(cfg, ds)
        params, logliks = res.state
        fields = ("trans", "trans_cov", "emit", "emit_cov", "init_mean", "init_cov")
        # the fitted parameters' memo is warm: their metrics row filtered the
        # test block, and this smooth of it adds the smoother's part
        em = pkg.baselines
        test = ds.rows[ds.test_idx].reshape(-1, cfg.seq_len, ds.dim)
        em.lds_em_smooth(params, test)
        return dict(
            metrics=_metrics(res.metrics), logliks=np.asarray(logliks),
            **{f: getattr(params, f) for f in fields},
            warm_loglik=em.lds_em_loglik(params, test),
            warm_tau_mae=em.lds_em_tau_mae(params, test, 1),
            warm_smoothed_means=np.stack([em.lds_em_smooth(params, seq).mean for seq in test]),
        )

    def vb_gmm():
        res = h.train_vb_gmm(vb_cfg)
        return dict(
            metrics=_metrics(res.metrics), elbos=np.asarray(res.state.elbos),
            posterior=res.state.posterior.flat_values(),
        )

    def vae():
        cfg = h.TrainConfig(
            hidden=(8,), batch_size=16, n_iters=n_iters, eval_interval=n_iters // 2,
            timing=False, **pin,
        )
        res = h.train_vae(cfg)
        decoder, encoder = (pkg.nnet.param_vector(net) for net in res.state)
        return dict(metrics=_metrics(res.metrics), decoder=decoder, encoder=encoder)

    for d in (1, 2, 3):
        out[f"lds-em/d{d}"] = lambda d=d: lds_em(d)
    out["vb-gmm"] = vb_gmm
    out["vae"] = vae
    return out


def _run(thunk):
    try:
        return thunk(), None
    except Exception as exc:  # a case that raises is compared by its error
        return None, f"{type(exc).__name__}: {exc}"


def compare_arrays(a, b):
    """"equal", the largest relative difference, or a note on shapes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return f"shapes differ: {a.shape} vs {b.shape}"
    if np.array_equal(a, b, equal_nan=True):
        return "equal"
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return "NaN positions differ"
    fin = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~fin], b[~fin], equal_nan=True):
        return "non-finite entries differ"
    scale = np.max(np.abs(a[fin]), initial=0.0)
    diff = np.max(np.abs(a[fin] - b[fin]), initial=0.0)
    return float(diff / scale) if scale > 0 else math.inf


def compare(tree_a, tree_b, tiny):
    """{"case/array": verdict} over every case."""
    report = {}
    with trees.sides(tree_a, tree_b) as pkgs, tempfile.TemporaryDirectory() as workdir:
        lists = [cases(pkg, workdir, tiny) for pkg in pkgs]
        for name in lists[0]:
            (got_a, err_a), (got_b, err_b) = (_run(case[name]) for case in lists)
            if err_a or err_b:
                same = err_a == err_b
                report[f"{name}/error"] = "equal" if same else f"A: {err_a}; B: {err_b}"
                continue
            for key in sorted(set(got_a) | set(got_b)):
                if key not in got_a or key not in got_b:
                    report[f"{name}/{key}"] = f"present on {'A' if key in got_a else 'B'} only"
                else:
                    report[f"{name}/{key}"] = compare_arrays(got_a[key], got_b[key])
    return report


def passes(verdict, rtol):
    return verdict == "equal" or (isinstance(verdict, float) and verdict <= rtol)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="tree A: a directory or a git revision")
    parser.add_argument("b", help="tree B: a directory or a git revision")
    parser.add_argument("--rtol", type=float, default=0.0, help="largest relative difference to pass")
    parser.add_argument("--tiny", action="store_true", help="tiny data, few iterations, one seed")
    args = parser.parse_args(argv)
    report = compare(args.a, args.b, args.tiny)
    n_pass = sum(passes(v, args.rtol) for v in report.values())
    print(json.dumps({"arrays": len(report), "passed": n_pass, "rtol": args.rtol, "report": report}))
    return 0 if n_pass == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
