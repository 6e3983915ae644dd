"""In-process A/B timing of one operation in two structvi source trees.

    python3 tools/ab.py HEAD . --workload dots-lds-em --op step --rounds 40

A and B are directories or git revisions (see trees.py).  Both sides build
the workload's data, configuration and fresh parameters from the same seed,
at the sizes of ``perfbench/run.py`` (``--tiny``: its tiny sizes).  The
operation is one of

  * ``step``: one ``harness.train_step`` on the initial state (the first
    training sequence, or the first BATCH_SIZE training rows), or for
    ``dots-lds-em`` one ``baselines.lds_em_fit(n_iter=1)`` iteration from a
    fresh copy of the parameters one iteration gave, so the covariance pass
    runs every time, as in the benchmark's EM loop;
  * ``eval``: one ``harness.evaluate`` of the initial state on the test split
    (bound and imputation, and tau = 1 forecasts for sequences), or for
    ``dots-lds-em`` the benchmark's whole evaluation of the parameters one
    iteration gave: the test log-likelihood, the tau = 1 MAE and the
    imputation MSE by ``perfbench/run.py``'s rule (a mask of
    ``IMPUTE_FRACTION`` of the test entries, drawn from ``--seed``, then one
    ``lds_em_smooth`` per test sequence);
  * ``smooth`` (``dots-lds-em`` only): one warm ``lds_em_smooth`` of the
    first test sequence under the parameters one iteration gave, the call
    that evaluation's imputation makes once per test sequence.

After one warm-up call per side, each round times ``--reps`` calls on each
side, A first in even rounds and B first in odd ones.  The JSON line gives
each side's median and IQR of its per-round mean ms per call, the median
ratio B / A, and the rounds each side won.  Timings are raw wall time; run
both sides in one process, as here, to keep host drift out of the ratio.
"""

import os

if __name__ == "__main__":
    # One BLAS/OpenMP thread, as in the benchmark; set before numpy loads.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import trees

WORKLOADS = ("dots-lds", "dots-lds-em", "pinwheel-gmm")
# perfbench/run.py's latent dimension, and its batch size for pinwheel-gmm
LATENT_DIM = 2
BATCH_SIZE = 64
# perfbench/run.py's masking rate for LDS-EM imputation
IMPUTE_FRACTION = 0.2


@dataclass(frozen=True)
class Sizes:
    """``perfbench/run.py``'s FULL and TINY sizes, the fields read here."""

    n_per_arm: int = 1000
    arms: int = 5
    n_seq: int = 50
    t_len: int = 20
    width: int = 10
    hidden: tuple = (50, 50)


FULL = Sizes()
TINY = Sizes(n_per_arm=30, n_seq=6, t_len=5, width=4, hidden=(8,))


def make_op(pkg, workload, op, sizes, seed, workdir):
    """(prepare, run): ``run(prepare())`` is one timed call on ``pkg``."""
    path = os.path.join(workdir, f"{pkg.__name__}.txt")
    common = dict(
        n_components=10, latent_dim=LATENT_DIM, hidden=sizes.hidden, activation="tanh",
        optimizer="adagrad", seed=seed, dataset=path,
    )
    if workload == "pinwheel-gmm":
        raw = pkg.data.pinwheel(n_per_arm=sizes.n_per_arm, arms=sizes.arms, seed=seed)
        cfg = pkg.harness.TrainConfig(model_kind="latent-gmm", batch_size=BATCH_SIZE, **common)
    else:
        raw = pkg.data.dot_sequences(sizes.n_seq, sizes.t_len, sizes.width, noise_std=0.05, seed=seed)
        cfg = pkg.harness.TrainConfig(model_kind="latent-lds", seq_len=sizes.t_len, **common)
    pkg.data.export(raw, path)
    ds = pkg.harness.load_dataset(cfg)
    train = ds.rows[ds.train_idx]

    if workload == "dots-lds-em":
        shape = (-1, sizes.t_len, ds.dim)
        seqs, test = train.reshape(shape), ds.rows[ds.test_idx].reshape(shape)
        fit = pkg.baselines.lds_em_fit
        params = fit(seqs, LATENT_DIM, n_iter=1)[0]
        if op == "step":
            return (lambda: dataclasses.replace(params)), (
                lambda fresh: fit(seqs, LATENT_DIM, n_iter=1, init=fresh)
            )
        if op == "smooth":
            return (lambda: None), lambda _: pkg.baselines.lds_em_smooth(params, test[0])
        return (lambda: None), lambda _: em_evaluate(pkg.baselines, params, test, seed)

    state = pkg.harness.init_state(cfg, ds.dim)
    if op == "eval":
        tasks = ("bound", "imputation") + (("tau-ahead",) if cfg.seq_len else ())
        return (lambda: None), lambda _: pkg.harness.evaluate(state, ds, tasks, taus=(1,))
    if cfg.seq_len:
        batch, n_total = train[: cfg.seq_len], train.shape[0] // cfg.seq_len
    else:
        batch, n_total = train[:BATCH_SIZE], train.shape[0]
    return (lambda: np.random.default_rng(seed)), (
        lambda rng: pkg.harness.train_step(state, cfg, batch, n_total, rng)
    )


def em_evaluate(baselines, params, seqs, seed):
    """``perfbench/run.py``'s ``em_evaluate`` through ``baselines``: the test
    log-likelihood, the tau = 1 MAE and the imputation MSE."""
    rows = seqs.reshape(-1, seqs.shape[-1])
    mask = np.random.default_rng(seed).random(rows.shape) < IMPUTE_FRACTION
    filled = np.where(mask, 0.0, rows).reshape(seqs.shape)
    recon = np.concatenate(
        [baselines.lds_em_smooth(params, seq).mean @ params.emit.T for seq in filled]
    )
    return (
        baselines.lds_em_loglik(params, seqs),
        baselines.lds_em_tau_mae(params, seqs, 1),
        float(np.mean((recon[mask] - rows[mask]) ** 2)),
    )


def time_round(op, reps):
    """Mean ms per call over ``reps`` calls, each prepared untimed."""
    prepare, run = op
    total = 0.0
    for _ in range(reps):
        arg = prepare()
        t0 = time.perf_counter()
        run(arg)
        total += time.perf_counter() - t0
    return 1e3 * total / reps


def summary(ms):
    q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
    return {"median_ms": med, "iqr_ms": q3 - q1}


def compare(tree_a, tree_b, workload, op, rounds, reps, sizes, seed):
    """The JSON-ready A/B result."""
    with trees.sides(tree_a, tree_b) as pkgs, tempfile.TemporaryDirectory() as workdir:
        ops = [make_op(pkg, workload, op, sizes, seed, workdir) for pkg in pkgs]
        for one in ops:
            time_round(one, 1)
        ms = ([], [])
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                ms[side].append(time_round(ops[side], reps))
    a, b = summary(ms[0]), summary(ms[1])
    return {
        "workload": workload, "op": op, "rounds": rounds, "reps": reps,
        "a": {"tree": str(tree_a), **a}, "b": {"tree": str(tree_b), **b},
        "ratio_b_over_a": b["median_ms"] / a["median_ms"],
        "wins": {"a": sum(x < y for x, y in zip(*ms)), "b": sum(y < x for x, y in zip(*ms))},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="tree A: a directory or a git revision")
    parser.add_argument("b", help="tree B: a directory or a git revision")
    parser.add_argument("--workload", choices=WORKLOADS, default="dots-lds")
    parser.add_argument("--op", choices=("step", "eval", "smooth"), default="step")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny sizes")
    args = parser.parse_args(argv)
    if min(args.rounds, args.reps) < 1:
        parser.error("--rounds and --reps must be positive")
    if args.op == "smooth" and args.workload != "dots-lds-em":
        parser.error("--op smooth times an LDS-EM call: it needs --workload dots-lds-em")
    result = compare(
        args.a, args.b, args.workload, args.op, args.rounds, args.reps,
        TINY if args.tiny else FULL, args.seed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
