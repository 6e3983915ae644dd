"""Every subcommand's numeric options and config fields at bad and edge values.

Each value goes through ``cli.main`` as ``--flag=value``, so argparse hands
even ``-inf`` to the option.  Each case must exit 0, or exit 2 with one
``error:`` line on stderr; no case may end in a traceback or emit a warning.
The values are {nan, inf, -inf, -1, 0} and, where the option documents one,
a value past its bound.  Sizes that allocate in proportion to their value
get only values rejected before anything is allocated (past numpy's index
range); counts with no upper bound get none.  Data sets are tiny and runs
take at most two iterations.
"""

import dataclasses
import os
import warnings

import pytest

from structvi import cli, harness

BAD = ("nan", "inf", "-inf", "-1", "0")
PAST_RANGE = "100000000000000000000"  # 1e20, past numpy's index range


def run_case(capsys, args):
    """(exit code, stderr) of one ``cli.main`` run; a warning is an error."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, capsys.readouterr().err


def assert_clean(capsys, args):
    code, err = run_case(capsys, args)
    assert code in (0, 2), (args, code, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (args, err)
        assert "Traceback" not in err, (args, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Tiny pinwheel and dots data sets, and one-step mixture and dynamics
    checkpoints trained on them."""
    root = tmp_path_factory.mktemp("sweep")
    pin, dots = str(root / "pin.txt"), str(root / "dots.txt")
    assert cli.main(["generate-data", "--kind", "pinwheel", "--out", pin,
                     "--n-per-arm", "10", "--arms", "2"]) == 0
    assert cli.main(["generate-data", "--kind", "dots", "--out", dots, "--n-seq", "6",
                     "--t-len", "4", "--width-d", "3", "--noise-std", "0.05"]) == 0
    ckpts = {}
    for kind, dataset, extra in (("latent-gmm", pin, ["--n-components", "2"]),
                                 ("latent-lds", dots, ["--seq-len", "4"])):
        out_dir = str(root / kind)
        assert cli.main(["train", "--dataset", dataset, "--model-kind", kind, "--hidden", "4",
                         "--n-iters", "1", "--eval-interval", "1", "--timing", "0",
                         "--out-dir", out_dir] + extra) == 0
        ckpts[kind] = os.path.join(out_dir, "structured.ckpt")
    return {"pin": pin, "dots": dots, "ckpt": ckpts}


GENERATE = [
    # (kind, option, values past its bound, base options)
    ("pinwheel", "--seed", (), ()),
    ("pinwheel", "--n-per-arm", (PAST_RANGE,), ()),
    ("pinwheel", "--arms", (PAST_RANGE,), ()),
    ("pinwheel", "--outlier-fraction", ("1",), ()),
    ("pinwheel", "--outlier-std", (), ("--outlier-fraction", "0.5")),
    ("dots", "--seed", (), ()),
    ("dots", "--n-seq", (PAST_RANGE,), ()),
    ("dots", "--t-len", ("1", PAST_RANGE), ()),
    ("dots", "--width-d", ("1", PAST_RANGE), ()),
    ("dots", "--noise-std", (), ()),
    ("dots", "--outlier-fraction", ("1",), ()),
]
SMALL = {"pinwheel": ["--n-per-arm", "4", "--arms", "2"],
         "dots": ["--n-seq", "2", "--t-len", "3", "--width-d", "3"]}


@pytest.mark.parametrize("kind, option, past, base", GENERATE,
                         ids=[f"{k}{o}" for k, o, _, _ in GENERATE])
def test_generate_data(tmp_path, capsys, kind, option, past, base):
    args = ["generate-data", "--kind", kind, "--out", str(tmp_path / "g.txt"), *SMALL[kind], *base]
    assert run_case(capsys, args)[0] == 0
    for value in BAD + past:
        assert_clean(capsys, args + [f"{option}={value}"])


# The numeric config fields, each with the values past its documented bound
# that BAD lacks: beta1 is a natural-gradient step in [0, 1], train_frac a
# share in (0, 1], dof above 2, and a dynamics seq_len at least 2.
CONFIG_FIELDS = {
    "n_components": (), "latent_dim": (), "hidden": (), "beta1": ("1.5",), "beta2": (),
    "beta3": (), "batch_size": (), "n_iters": (), "seed": (), "seq_len": ("1",),
    "dof": ("2",), "eval_interval": (), "train_frac": ("1.5",),
}
TRAINERS = {
    # name: (trainer, data set, base options)
    "structured-gmm": ("structured", "pin", ["--n-components", "2"]),
    "structured-tmm": ("structured", "pin", ["--model-kind", "latent-tmm", "--n-components", "2"]),
    "structured-lds": ("structured", "dots", ["--model-kind", "latent-lds", "--seq-len", "4"]),
    "vae": ("vae", "pin", []),
    "vb-gmm": ("vb-gmm", "pin", ["--n-components", "2"]),
    "lds-em": ("lds-em", "dots", ["--model-kind", "latent-lds", "--seq-len", "4"]),
}


def test_config_fields_cover_every_numeric_field():
    numeric = {f.name for f in dataclasses.fields(harness.TrainConfig)
               if f.type in (int, float, "int", "float") or f.name == "hidden"}
    assert numeric == set(CONFIG_FIELDS)


def train_args(files, tmp_path, trainer):
    name, dataset, base = TRAINERS[trainer]
    return ["train", "--trainer", name, "--dataset", files[dataset], "--hidden", "4",
            "--n-iters", "2", "--eval-interval", "2", "--batch-size", "8", "--timing", "0",
            "--out-dir", str(tmp_path), *base]


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_train_base_config_runs(files, tmp_path, capsys, trainer):
    """Each sweep below varies one field of a run that succeeds."""
    assert run_case(capsys, train_args(files, tmp_path, trainer)) == (0, "")


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
@pytest.mark.parametrize("field", sorted(CONFIG_FIELDS))
def test_train(files, tmp_path, capsys, trainer, field):
    flag = "--" + field.replace("_", "-")
    for value in BAD + CONFIG_FIELDS[field]:
        assert_clean(capsys, train_args(files, tmp_path, trainer) + [f"{flag}={value}"])


EVAL = [
    # (command, option, values past its bound)
    ("eval", "--seed", ()),
    ("eval", "--n-draws", (PAST_RANGE,)),
    ("eval", "--taus", ()),
    ("dump-plots", "--seed", ()),
    ("dump-plots", "--n-draws", (PAST_RANGE,)),
]


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-lds"])
@pytest.mark.parametrize("command, option, past", EVAL, ids=[f"{c}{o}" for c, o, _ in EVAL])
def test_eval_and_dump_plots(files, tmp_path, capsys, kind, command, option, past):
    if command == "eval":
        tasks = "bound,imputation,sample-dump" + (",tau-ahead" if kind == "latent-lds" else "")
        base = ["--tasks", tasks, "--taus", "1", "--samples-out", str(tmp_path / "s.txt")]
    else:
        base = ["--out-dir", str(tmp_path / "plots")]
    args = [command, "--checkpoint", files["ckpt"][kind], "--n-draws", "5", *base]
    assert run_case(capsys, args)[0] == 0
    for value in BAD + past:
        assert_clean(capsys, args + [f"{option}={value}"])
