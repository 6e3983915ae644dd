"""Command-line front end: generate-data, train, eval, dump-plots.

Flags mirror the training-config field names with hyphens; a config file
(key = value lines, same names; '#' starts a comment only as a line's first
non-blank character) seeds the values and explicit flags win.
The output directory defaults to the STRUCTVI_OUT environment variable,
then to the current directory; an empty value counts as unset.  Failures,
an unwritable output path among them, arrive as one ``error:`` line on
stderr with exit code 2.  So does a baseline ``--trainer`` given a
``--model-kind`` it does not fit or an ``--optimizer``/``--theta-nn`` other
than adagrad/point (``harness.BASELINES``), before the output directory is
made.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data, harness
from .errors import ContractError, ParseError

ENV_OUT_DIR = "STRUCTVI_OUT"

_CLI_ERRORS = harness.FAILURE_KINDS + (ContractError, ParseError, OSError)


def _out_dir(flag):
    """``--out-dir``, else STRUCTVI_OUT, else the current directory."""
    return flag or os.environ.get(ENV_OUT_DIR) or "."


def _add_config_flags(parser):
    for f in dataclasses.fields(harness.TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=str, default=None)


def _merged_config(args):
    cfg = harness.TrainConfig()
    if args.config:
        cfg = harness.load_config(args.config, base=cfg)
    overrides = {}
    for f in dataclasses.fields(harness.TrainConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = harness._coerce_field(f.name, raw)
    return dataclasses.replace(cfg, **overrides).validate()


def _build_parser():
    parser = argparse.ArgumentParser(prog="structvi")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic dataset")
    gen.add_argument("--kind", choices=("pinwheel", "dots"), required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-per-arm", type=int, default=1000)
    gen.add_argument("--arms", type=int, default=5)
    gen.add_argument("--n-seq", type=int, default=50)
    gen.add_argument("--t-len", type=int, default=20)
    gen.add_argument("--width-d", type=int, default=10)
    gen.add_argument("--noise-std", type=float, default=0.0)
    gen.add_argument("--outlier-fraction", type=float, default=0.0)
    gen.add_argument("--outlier-std", type=float, default=8.0)

    train = sub.add_parser(
        "train", help="fit a model and write metrics; only the structured trainer checkpoints"
    )
    train.add_argument("--config", default=None)
    train.add_argument(
        "--trainer",
        choices=("structured", "vae", "vb-gmm", "lds-em"),
        default="structured",
    )
    train.add_argument("--out-dir", default=None)
    _add_config_flags(train)

    ev = sub.add_parser("eval", help="run evaluation tasks from a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", default=None)
    ev.add_argument("--tasks", default="bound,imputation")
    ev.add_argument("--taus", default="1,5,10")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--n-draws", type=int, default=1000)
    ev.add_argument("--samples-out", default=None)

    dump = sub.add_parser("dump-plots", help="emit plot tables from a checkpoint")
    dump.add_argument("--checkpoint", required=True)
    dump.add_argument("--dataset", default=None)
    dump.add_argument("--out-dir", default=None)
    dump.add_argument("--n-draws", type=int, default=2000)
    dump.add_argument("--metrics", default=None)
    dump.add_argument("--seed", type=int, default=0)
    return parser


def _check_seed(args):
    if args.seed < 0:
        raise ContractError(f"--seed must be nonnegative, got {args.seed}")


def _cmd_generate_data(args):
    _check_seed(args)
    if args.kind == "pinwheel":
        ds = data.pinwheel(n_per_arm=args.n_per_arm, arms=args.arms, seed=args.seed)
    else:
        ds = data.dot_sequences(
            n_seq=args.n_seq,
            t_len=args.t_len,
            width_d=args.width_d,
            seed=args.seed,
            noise_std=args.noise_std,
        )
    if ds.n_rows == 0:
        flag = "--n-per-arm" if args.kind == "pinwheel" else "--n-seq"
        raise ContractError(f"{flag} 0 leaves no data rows to write")
    if args.outlier_fraction != 0:
        ds = data.inject_outliers(
            ds, fraction=args.outlier_fraction, outlier_std=args.outlier_std, seed=args.seed
        )
    data.export(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def _cmd_train(args):
    cfg = _merged_config(args)
    if args.trainer in harness.BASELINES:
        harness._check_baseline(cfg, args.trainer)  # refuse before making out_dir
    out_dir = _out_dir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)  # fail here, not after the run
    trainers = {
        "structured": harness.train_structured,
        "vae": harness.train_vae,
        "vb-gmm": harness.train_vb_gmm,
        "lds-em": harness.train_lds_em,
    }
    res = trainers[args.trainer](cfg, out_dir=out_dir)
    for path in (res.metrics_path, res.checkpoint_path):
        if path:
            print(f"wrote {path}")
    return 0


def _load_for_eval(args):
    state, cfg = harness.load_state(args.checkpoint)
    if args.dataset is not None:
        cfg = dataclasses.replace(cfg, dataset=args.dataset)
    return state, cfg, harness.load_dataset(cfg)


def _cmd_eval(args):
    _check_seed(args)
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if not tasks:
        raise ContractError("--tasks names no evaluation task")
    if "sample-dump" in tasks and not args.samples_out:
        raise ContractError("sample-dump needs --samples-out")
    try:
        taus = tuple(int(t) for t in args.taus.split(",") if t.strip())
    except ValueError:
        raise ParseError(f"--taus takes comma-separated integers, not {args.taus!r}") from None
    if "tau-ahead" in tasks and not taus:
        raise ContractError("tau-ahead needs at least one tau in --taus")
    state, _, ds = _load_for_eval(args)
    out = harness.evaluate(
        state, ds, tasks, seed=args.seed, taus=taus, n_draws=args.n_draws
    )
    for key in ("bound", "imputation_mse"):
        if key in out:
            print(f"{key} {out[key]!r}")
    for tau, val in sorted(out.get("tau_mae", {}).items()):
        print(f"tau_mae[{tau}] {val!r}")
    if "samples" in out:
        draw = out["samples"]
        y = draw.y.reshape(-1, ds.dim)
        comp = (
            draw.labels.astype(float)
            if draw.labels is not None
            else np.zeros(y.shape[0])
        )
        data.write_table(
            args.samples_out,
            [f"x{i}" for i in range(y.shape[1])] + ["component"],
            [list(row) + [c] for row, c in zip(y, comp)],
        )
        print(f"wrote {args.samples_out}")
    return 0


def _cmd_dump_plots(args):
    _check_seed(args)
    state, _, ds = _load_for_eval(args)
    out_dir = _out_dir(args.out_dir)
    metrics = harness.read_metrics(args.metrics) if args.metrics else None
    paths = harness.dump_plot_data(
        state, ds, out_dir, n_draws=args.n_draws, metrics=metrics, seed=args.seed
    )
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "generate-data": _cmd_generate_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "dump-plots": _cmd_dump_plots,
    }
    try:
        return commands[args.command](args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
