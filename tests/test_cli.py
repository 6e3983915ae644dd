"""Command-line interface: subcommands, config file plus flag precedence."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import structvi
from structvi import checkpoint, cli, data, harness


def run_cli(args):
    return cli.main(args)


def make_pinwheel_file(tmp_path, n_per_arm=60, arms=3, seed=1):
    path = str(tmp_path / "pin.txt")
    assert run_cli(
        [
            "generate-data",
            "--kind",
            "pinwheel",
            "--out",
            path,
            "--n-per-arm",
            str(n_per_arm),
            "--arms",
            str(arms),
            "--seed",
            str(seed),
        ]
    ) == 0
    return path


def test_generate_data_pinwheel(tmp_path, capsys):
    path = make_pinwheel_file(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 180 rows" in out
    ds = data.load_delimited(path, has_labels=True)
    assert ds.n_rows == 180 and ds.dim == 2


def test_generate_data_dots_and_outliers(tmp_path):
    path = str(tmp_path / "dots.txt")
    assert run_cli(
        [
            "generate-data",
            "--kind",
            "dots",
            "--out",
            path,
            "--n-seq",
            "4",
            "--t-len",
            "6",
            "--width-d",
            "5",
            "--noise-std",
            "0.05",
        ]
    ) == 0
    ds = data.load_delimited(path)
    assert ds.n_rows == 24 and ds.dim == 5

    out_path = str(tmp_path / "pin-out.txt")
    assert run_cli(
        [
            "generate-data",
            "--kind",
            "pinwheel",
            "--out",
            out_path,
            "--n-per-arm",
            "30",
            "--arms",
            "2",
            "--outlier-fraction",
            "0.2",
        ]
    ) == 0


def test_train_config_file_and_flag_precedence(tmp_path):
    dataset = make_pinwheel_file(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"dataset = {dataset}\n"
        "model_kind = latent-gmm\n"
        "n_components = 3\n"
        "hidden = 6\n"
        "n_iters = 4\n"
        "eval_interval = 2\n"
        "timing = 0\n"
        "seed = 1\n"
    )
    out_dir = str(tmp_path / "run")
    assert run_cli(
        [
            "train",
            "--config",
            str(config),
            "--out-dir",
            out_dir,
            "--n-iters",
            "6",
        ]
    ) == 0
    metrics = harness.read_metrics(os.path.join(out_dir, "structured-metrics.txt"))
    assert metrics[-1]["iteration"] == 6  # flag beat the file's 4
    state, cfg = harness.load_state(os.path.join(out_dir, "structured.ckpt"))
    assert cfg.n_iters == 6 and cfg.n_components == 3
    assert state.iteration == 6


def test_train_env_var_out_dir(tmp_path, monkeypatch):
    dataset = make_pinwheel_file(tmp_path)
    env_dir = str(tmp_path / "from-env")
    monkeypatch.setenv(cli.ENV_OUT_DIR, env_dir)
    assert run_cli(
        [
            "train",
            "--dataset",
            dataset,
            "--n-components",
            "2",
            "--hidden",
            "4",
            "--n-iters",
            "3",
            "--eval-interval",
            "3",
            "--timing",
            "0",
        ]
    ) == 0
    assert os.path.exists(os.path.join(env_dir, "structured.ckpt"))


def test_train_baseline_trainers(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    capsys.readouterr()
    for trainer, name in (("vb-gmm", "vb-gmm"), ("vae", "vae")):
        out_dir = str(tmp_path / trainer)
        assert run_cli(
            [
                "train",
                "--trainer",
                trainer,
                "--dataset",
                dataset,
                "--n-components",
                "2",
                "--hidden",
                "4",
                "--n-iters",
                "5",
                "--eval-interval",
                "5",
                "--timing",
                "0",
            ]
            + ["--out-dir", out_dir]
        ) == 0
        assert os.listdir(out_dir) == [f"{name}-metrics.txt"]
        assert capsys.readouterr().out.count("wrote ") == 1

    dots = str(tmp_path / "dots.txt")
    run_cli(
        [
            "generate-data", "--kind", "dots", "--out", dots,
            "--n-seq", "8", "--t-len", "6", "--width-d", "4",
            "--noise-std", "0.05",
        ]
    )
    capsys.readouterr()
    out_dir = str(tmp_path / "lds-em")
    assert run_cli(
        [
            "train", "--trainer", "lds-em", "--dataset", dots,
            "--model-kind", "latent-lds", "--seq-len", "6",
            "--latent-dim", "2", "--n-iters", "8", "--timing", "0",
            "--out-dir", out_dir,
        ]
    ) == 0
    assert os.listdir(out_dir) == ["lds-em-metrics.txt"]
    assert capsys.readouterr().out.count("wrote ") == 1
    out_dir = str(tmp_path / "structured")
    assert run_cli(
        ["train", "--dataset", dataset, "--n-components", "2", "--hidden", "4",
         "--n-iters", "2", "--timing", "0", "--out-dir", out_dir]
    ) == 0
    assert capsys.readouterr().out.count("wrote ") == 2


def test_eval_and_dump_plots(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "4", "--eval-interval", "4",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    ckpt = os.path.join(out_dir, "structured.ckpt")
    capsys.readouterr()

    samples_out = str(tmp_path / "samples.txt")
    assert run_cli(
        [
            "eval", "--checkpoint", ckpt,
            "--tasks", "bound,imputation,sample-dump",
            "--n-draws", "30", "--samples-out", samples_out,
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "bound " in out and "imputation_mse " in out
    with open(samples_out) as fh:
        assert len(fh.read().splitlines()) == 31

    plot_dir = str(tmp_path / "plots")
    assert run_cli(
        [
            "dump-plots", "--checkpoint", ckpt, "--out-dir", plot_dir,
            "--n-draws", "20",
            "--metrics", os.path.join(out_dir, "structured-metrics.txt"),
        ]
    ) == 0
    for name in ("samples.txt", "data.txt", "curves.txt"):
        assert os.path.exists(os.path.join(plot_dir, name))
    curves = harness.read_metrics(os.path.join(plot_dir, "curves.txt"))
    assert curves[-1]["iteration"] == 4


def test_dataset_path_with_a_hash_survives_the_checkpoint(tmp_path, monkeypatch, capsys):
    """The checkpoint's saved config keeps a '#' inside the dataset path, so
    ``eval`` alone reloads the same data and prints the bound it prints when
    given the path."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("run#1")
    dataset = "run#1/pin.txt"
    assert run_cli(["generate-data", "--kind", "pinwheel", "--n-per-arm", "30",
                    "--arms", "3", "--out", dataset]) == 0
    assert run_cli(["train", "--dataset", dataset, "--n-iters", "4", "--eval-interval", "2",
                    "--hidden", "8", "--n-components", "3", "--out-dir", "out"]) == 0
    bounds = []
    for extra in ([], ["--dataset", dataset]):
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", "out/structured.ckpt", *extra]) == 0
        bounds.append([line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("bound ")])
    assert len(bounds[0]) == 1 and bounds[0] == bounds[1]


def test_sample_dump_without_samples_out_fails_before_loading(
    tmp_path, capsys, monkeypatch
):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "3", "--eval-interval", "3",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    capsys.readouterr()
    loads = []
    monkeypatch.setattr(harness, "load_state", lambda *a: loads.append(a))
    code = run_cli(
        [
            "eval", "--checkpoint", os.path.join(out_dir, "structured.ckpt"),
            "--tasks", "bound,sample-dump",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--samples-out" in captured.err
    assert loads == []


def test_eval_task_mismatch_exits_nonzero(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "3", "--eval-interval", "3",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    capsys.readouterr()
    code = run_cli(
        [
            "eval",
            "--checkpoint",
            os.path.join(out_dir, "structured.ckpt"),
            "--tasks",
            "tau-ahead",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_of_checkpoint_with_nan_iteration_exits_nonzero(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "3", "--eval-interval", "3",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    capsys.readouterr()
    path = os.path.join(out_dir, "structured.ckpt")
    arrays, meta = checkpoint.load(path)
    arrays["iteration"] = np.array(np.nan)
    checkpoint.save(path, arrays, meta)
    code = run_cli(["eval", "--checkpoint", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "structured.ckpt: iteration" in err


def test_eval_of_checkpoint_with_unholdable_shape_exits_nonzero(tmp_path, capsys):
    """A zero-size array whose other dimension numpy cannot hold is a parse
    error naming the file, not a traceback."""
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, {"a": np.zeros((0, 2))}, {})
    raw = bytearray(path.read_bytes())
    # magic, version, no metadata, one array, its name "a", ndim 2, shape[0]
    offset = len(checkpoint.MAGIC) + 4 + 4 + 4 + 4 + 1 + 4 + 8
    raw[offset : offset + 8] = (2**63).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    code = run_cli(["eval", "--checkpoint", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and f"{path}: array 'a' of shape" in err


def test_tau_ahead_on_an_empty_test_split_exits_nonzero(tmp_path, capsys):
    dataset = str(tmp_path / "dots.txt")
    assert run_cli(
        ["generate-data", "--kind", "dots", "--out", dataset, "--n-seq", "4", "--t-len", "6",
         "--width-d", "3"]
    ) == 0
    out_dir = str(tmp_path / "run")
    assert run_cli(
        [
            "train", "--dataset", dataset, "--model-kind", "latent-lds", "--seq-len", "6",
            "--hidden", "4", "--n-iters", "2", "--eval-interval", "2", "--train-frac", "1",
            "--timing", "0", "--out-dir", out_dir,
        ]
    ) == 0
    capsys.readouterr()
    ckpt = os.path.join(out_dir, "structured.ckpt")
    code = run_cli(["eval", "--checkpoint", ckpt, "--tasks", "tau-ahead", "--taus", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")
    assert "at least one sequence" in captured.err


def test_negative_n_draws_exits_nonzero_and_zero_draws_run(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "3", "--eval-interval", "3",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    ckpt = os.path.join(out_dir, "structured.ckpt")
    samples_out = str(tmp_path / "samples.txt")
    plot_dir = str(tmp_path / "plots")
    sample_dump = ["eval", "--checkpoint", ckpt, "--tasks", "sample-dump",
                   "--samples-out", samples_out, "--n-draws"]
    dump_plots = ["dump-plots", "--checkpoint", ckpt, "--out-dir", plot_dir, "--n-draws"]
    for args in (sample_dump + ["-1"], dump_plots + ["-3"]):
        capsys.readouterr()
        code = run_cli(args)
        captured = capsys.readouterr()
        assert code == 2, args
        assert captured.out == "" and captured.err.startswith("error:"), args
        assert "draws" in captured.err, args
    assert not os.path.exists(samples_out) and not os.path.exists(plot_dir)
    for args in (sample_dump + ["0"], dump_plots + ["0"]):
        assert run_cli(args) == 0, args
    for path in (samples_out, os.path.join(plot_dir, "samples.txt")):
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 1, path  # the header alone


def test_train_divergence_exits_nonzero(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    with np.errstate(all="ignore"):
        code = run_cli(
            [
                "train", "--dataset", dataset, "--n-components", "2",
                "--hidden", "4", "--optimizer", "sgd",
                "--beta2", "1e8", "--beta3", "1e8",
                "--n-iters", "30", "--eval-interval", "30",
                "--timing", "0", "--out-dir", out_dir,
            ]
        )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out_dir, "structured.ckpt"))


def test_non_finite_step_size_exits_nonzero_before_training(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    code = run_cli(["train", "--dataset", dataset, "--beta1", "nan", "--out-dir", out_dir])
    assert code == 2
    assert "step sizes" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    "kind, args",
    [
        ("dots", ["--trainer", "lds-em", "--model-kind", "latent-gmm", "--seq-len", "6"]),
        ("pinwheel", ["--trainer", "vae", "--optimizer", "van"]),
    ],
    ids=["lds-em-kind", "vae-optimizer"],
)
def test_refused_baseline_run_leaves_no_out_dir(tmp_path, capsys, kind, args):
    dataset = str(tmp_path / f"{kind}.txt")
    assert run_cli(["generate-data", "--kind", kind, "--out", dataset, "--n-per-arm", "20",
                    "--n-seq", "4", "--t-len", "6", "--width-d", "4"]) == 0
    capsys.readouterr()
    out_dir = str(tmp_path / "run")
    code = run_cli(["train", "--dataset", dataset, *args, "--out-dir", out_dir])
    assert_one_error_line(capsys, code, "trainer")
    assert not os.path.exists(out_dir)


def test_bad_config_value_exits_nonzero(tmp_path, capsys):
    code = run_cli(["train", "--dataset", "x.txt", "--model-kind", "latent-hmm"])
    assert code == 2
    assert "model kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, names",
    [
        (["eval", "--checkpoint", "{tmp}/nothere.ckpt"], "nothere.ckpt"),
        (["eval", "--checkpoint", "{tmp}/nothere.ckpt", "--taus", "1,x"], "--taus"),
        (["train", "--dataset", "{tmp}/nothere.txt", "--out-dir", "{tmp}"], "nothere.txt"),
        (["train", "--dataset", "{tmp}/x.txt", "--n-iters", "x"], "n_iters"),
        (["train", "--dataset", "{tmp}/x.txt", "--latent-dim", "2.5"], "latent_dim"),
        (["train", "--dataset", "{tmp}/x.txt", "--timing", "on"], "timing"),
        (["train", "--dataset", "{tmp}/x.txt", "--hidden", "8,0"], "positive"),
    ],
    ids=["missing-checkpoint", "bad-taus", "missing-dataset", "bad-int", "float-for-int",
         "bad-switch", "zero-hidden"],
)
def test_bad_input_exits_nonzero_without_traceback(tmp_path, capsys, args, names):
    code = run_cli([a.format(tmp=tmp_path) for a in args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and names in err


def assert_one_error_line(capsys, code, names):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1 and names in captured.err


def test_negative_seed_exits_nonzero_in_every_subcommand(tmp_path, capsys):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "2", "--eval-interval", "2",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    ckpt = os.path.join(out_dir, "structured.ckpt")
    capsys.readouterr()
    runs = [
        ["train", "--dataset", dataset, "--n-iters", "2", "--out-dir", str(tmp_path / "r2")],
        ["train", "--trainer", "vb-gmm", "--dataset", dataset, "--out-dir", str(tmp_path / "r3")],
        ["eval", "--checkpoint", ckpt],
        ["dump-plots", "--checkpoint", ckpt, "--out-dir", str(tmp_path / "plots")],
        ["generate-data", "--kind", "pinwheel", "--out", str(tmp_path / "g.txt")],
    ]
    for args in runs:
        assert_one_error_line(capsys, run_cli(args + ["--seed", "-1"]), "seed")
    assert sorted(os.listdir(tmp_path)) == ["pin.txt", "pin.txt.prov", "run"]


@pytest.mark.parametrize(
    "args, names",
    [
        (["--kind", "pinwheel", "--n-per-arm", "-1"], "n_per_arm"),
        (["--kind", "dots", "--width-d", "0"], "pixels"),
        (["--kind", "dots", "--width-d", "1"], "pixels"),
        (["--kind", "dots", "--n-seq", "-1"], "n_seq"),
        (["--kind", "dots", "--noise-std", "nan"], "noise_std"),
        (["--kind", "dots", "--noise-std", "-0.1"], "noise_std"),
    ],
    ids=["negative-arm-size", "zero-width", "one-pixel", "negative-n-seq", "nan-noise",
         "negative-noise"],
)
def test_bad_generator_size_exits_nonzero(tmp_path, capsys, args, names):
    out = tmp_path / "g.txt"
    assert_one_error_line(capsys, run_cli(["generate-data", "--out", str(out)] + args), names)
    assert not out.exists()


def test_nan_outlier_fraction_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = run_cli(
        ["generate-data", "--kind", "pinwheel", "--n-per-arm", "10", "--out", str(out),
         "--outlier-fraction", "nan"]
    )
    assert_one_error_line(capsys, code, "fraction")
    assert not out.exists()


@pytest.mark.parametrize("std", ["-3", "nan", "inf"])
def test_bad_outlier_std_exits_nonzero(tmp_path, capsys, std):
    """The flag, not the data, is named; nothing is written."""
    out = tmp_path / "g.txt"
    code = run_cli(
        ["generate-data", "--kind", "pinwheel", "--n-per-arm", "10", "--out", str(out),
         "--outlier-fraction", "0.1", "--outlier-std", std]
    )
    assert_one_error_line(capsys, code, "outlier_std")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, names",
    [(["--tasks", ""], "--tasks"), (["--tasks", "bound,tau-ahead", "--taus", ","], "--taus")],
    ids=["no-task", "tau-ahead-without-taus"],
)
def test_eval_with_nothing_to_run_exits_nonzero(tmp_path, capsys, args, names):
    dataset = make_pinwheel_file(tmp_path)
    out_dir = str(tmp_path / "run")
    run_cli(
        [
            "train", "--dataset", dataset, "--n-components", "2",
            "--hidden", "4", "--n-iters", "2", "--eval-interval", "2",
            "--timing", "0", "--out-dir", out_dir,
        ]
    )
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", os.path.join(out_dir, "structured.ckpt")] + args)
    assert_one_error_line(capsys, code, names)


PAST_RANGE = "100000000000000000000"  # 1e20, past numpy's index range


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "dots", "--t-len", PAST_RANGE],
        ["--kind", "dots", "--n-seq", PAST_RANGE],
        ["--kind", "dots", "--width-d", PAST_RANGE],
        ["--kind", "pinwheel", "--n-per-arm", PAST_RANGE],
        ["--kind", "pinwheel", "--arms", PAST_RANGE],
    ],
    ids=["dots-t-len", "dots-n-seq", "dots-width", "pinwheel-arm-size", "pinwheel-arms"],
)
def test_generator_size_past_index_range_exits_nonzero(tmp_path, capsys, args):
    """Rejected before anything is allocated."""
    out = tmp_path / "g.txt"
    code = run_cli(["generate-data", "--out", str(out)] + args)
    assert_one_error_line(capsys, code, "index range")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-lds"])
def test_draw_count_past_index_range_exits_nonzero(tmp_path, capsys, kind):
    """eval's sample-dump and dump-plots reject a draw numpy cannot hold
    before allocating it, for a mixture and for a dynamics checkpoint."""
    if kind == "latent-gmm":
        dataset, extra = make_pinwheel_file(tmp_path, n_per_arm=10), ["--n-components", "2"]
    else:
        dataset, extra = str(tmp_path / "dots.txt"), ["--model-kind", kind, "--seq-len", "4"]
        assert run_cli(["generate-data", "--kind", "dots", "--out", dataset, "--n-seq", "6",
                        "--t-len", "4", "--width-d", "3"]) == 0
    out_dir = str(tmp_path / "run")
    assert run_cli(["train", "--dataset", dataset, "--hidden", "4", "--n-iters", "1",
                    "--eval-interval", "1", "--timing", "0", "--out-dir", out_dir] + extra) == 0
    ckpt = os.path.join(out_dir, "structured.ckpt")
    samples_out, plot_dir = tmp_path / "samples.txt", tmp_path / "plots"
    for args in (
        ["eval", "--checkpoint", ckpt, "--tasks", "sample-dump", "--samples-out", str(samples_out)],
        ["dump-plots", "--checkpoint", ckpt, "--out-dir", str(plot_dir)],
    ):
        capsys.readouterr()
        code = run_cli(args + ["--n-draws", PAST_RANGE])
        assert_one_error_line(capsys, code, "index range")
    assert not samples_out.exists() and not plot_dir.exists()


def train_checkpoint_beside_a_wider_or_narrower_dataset(tmp_path, kind):
    """A one-step checkpoint of ``kind`` and a data set of another width: a
    mixture on 2-wide pinwheel rows with 3-wide dots, a dynamics model on
    3-wide dots with 2-wide pinwheel rows (24 of them, whole sequences)."""
    pinwheel = make_pinwheel_file(tmp_path, n_per_arm=8)
    dots = str(tmp_path / "dots.txt")
    assert run_cli(["generate-data", "--kind", "dots", "--out", dots, "--n-seq", "6",
                    "--t-len", "4", "--width-d", "3"]) == 0
    if kind == "latent-gmm":
        dataset, other, extra = pinwheel, dots, ["--n-components", "2"]
    else:
        dataset, other, extra = dots, pinwheel, ["--model-kind", kind, "--seq-len", "4"]
    out_dir = str(tmp_path / "run")
    assert run_cli(["train", "--dataset", dataset, "--hidden", "4", "--n-iters", "1",
                    "--eval-interval", "1", "--timing", "0", "--out-dir", out_dir] + extra) == 0
    return os.path.join(out_dir, "structured.ckpt"), other


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-lds"])
def test_eval_of_a_dataset_of_another_width_exits_nonzero(tmp_path, capsys, kind):
    ckpt, other = train_checkpoint_beside_a_wider_or_narrower_dataset(tmp_path, kind)
    samples_out = tmp_path / "samples.txt"
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", ckpt, "--dataset", other,
                    "--tasks", "bound,imputation,sample-dump", "--samples-out", str(samples_out)])
    assert_one_error_line(capsys, code, "columns")
    assert not samples_out.exists()


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-lds"])
def test_dump_plots_of_a_dataset_of_another_width_writes_nothing(tmp_path, capsys, kind):
    ckpt, other = train_checkpoint_beside_a_wider_or_narrower_dataset(tmp_path, kind)
    plot_dir = tmp_path / "plots"
    capsys.readouterr()
    code = run_cli(["dump-plots", "--checkpoint", ckpt, "--dataset", other,
                    "--out-dir", str(plot_dir)])
    assert_one_error_line(capsys, code, "columns")
    assert not plot_dir.exists()


@pytest.mark.parametrize(
    "args", [["--kind", "pinwheel", "--n-per-arm", "0"], ["--kind", "dots", "--n-seq", "0"]],
    ids=["pinwheel", "dots"],
)
def test_generate_data_with_no_rows_exits_nonzero(tmp_path, capsys, args):
    """The generators accept a zero size; the command refuses to write a
    file that holds only a header."""
    out = tmp_path / "g.txt"
    assert_one_error_line(capsys, run_cli(["generate-data", "--out", str(out)] + args), args[2])
    assert not out.exists() and not (tmp_path / "g.txt.prov").exists()


def test_empty_training_split_exits_nonzero_without_warning(tmp_path, capsys):
    """60 rows at --train-frac 0.01 leave no training row to standardize on."""
    dataset = make_pinwheel_file(tmp_path, n_per_arm=20)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(
            ["train", "--dataset", dataset, "--train-frac", "0.01",
             "--out-dir", str(tmp_path / "run")]
        )
    assert_one_error_line(capsys, code, "training split has no rows")


TINY_TRAIN = ["train", "--dataset", "{tmp}/pin.txt", "--n-components", "2", "--hidden", "4",
              "--n-iters", "1", "--eval-interval", "1", "--timing", "0"]
PLOT_FILES = ["samples.txt", "data.txt", "curves.txt"]
TRAIN_FILES = ["structured-metrics.txt", "structured.ckpt"]


@pytest.mark.parametrize(
    "args, env, written",
    [
        (["generate-data", "--kind", "pinwheel", "--out", "{tmp}/missing/x.txt"], None,
         "missing/x.txt"),
        (["eval", "--checkpoint", "{tmp}/run/structured.ckpt", "--tasks", "sample-dump",
          "--samples-out", "{tmp}/missing/s.txt"], None, "missing/s.txt"),
        (TINY_TRAIN + ["--out-dir", "{tmp}/afile/sub"], None, "afile/sub"),
        (["dump-plots", "--checkpoint", "{tmp}/run/structured.ckpt", "--out-dir", ""], None,
         PLOT_FILES),
        (TINY_TRAIN + ["--out-dir", ""], None, TRAIN_FILES),
        (TINY_TRAIN, "", TRAIN_FILES),
    ],
    ids=["generate-missing-dir", "samples-missing-dir", "train-under-a-file",
         "dump-plots-empty-out-dir", "train-empty-out-dir", "train-empty-env"],
)
def test_output_paths_fail_cleanly_and_an_empty_one_is_unset(
    tmp_path, monkeypatch, capsys, args, env, written
):
    """An unwritable path exits 2 with one error line naming it, a training
    run before it trains; an empty --out-dir or STRUCTVI_OUT falls back to the
    current directory.  ``written`` is that path or the files written."""
    make_pinwheel_file(tmp_path)
    assert run_cli(TINY_TRAIN[:1] + [a.format(tmp=tmp_path) for a in TINY_TRAIN[1:]]
                   + ["--out-dir", str(tmp_path / "run")]) == 0
    (tmp_path / "afile").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.ENV_OUT_DIR, env)
    capsys.readouterr()
    args = [a.format(tmp=tmp_path) for a in args]
    if isinstance(written, str):
        monkeypatch.setattr(harness, "train_structured", lambda *a, **k: pytest.fail("trained"))
        assert_one_error_line(capsys, run_cli(args), written)
        return
    assert run_cli(args) == 0
    assert capsys.readouterr().out.count("wrote ") == len(written)
    assert all((tmp_path / name).is_file() for name in written)


@pytest.mark.parametrize("valid_lines", [0, 5000], ids=["header", "body"])
def test_non_utf8_dataset_exits_nonzero_without_traceback(tmp_path, capsys, valid_lines):
    """Bytes that are not UTF-8 in the header line, or past the first read
    buffer, are a parse error naming the file."""
    path = tmp_path / "binary.txt"
    path.write_bytes(b"1.0 2.0\n" * valid_lines + b"\xff\xfe 3.0\n")
    code = run_cli(["train", "--dataset", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "binary.txt" in err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])


def run_fresh(code):
    """Stdout of ``code`` run in a fresh interpreter with this package on its
    path, so ``sys.modules`` holds only what the code itself imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(structvi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return out.stdout.strip()


def test_package_import_leaves_scipy_linalg_stats_and_special_unloaded():
    """Each of these submodules alone raises the benchmark's peak resident
    memory by more than its 10% bound; importing the package loads none."""
    code = (
        "import sys, structvi.cli, structvi.harness, structvi.baselines; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'linalg'], ['scipy', 'stats'], ['scipy', 'special'])))"
    )
    assert run_fresh(code) == "[]"


# Tiny data sets built inside the fresh interpreter; each run ends by
# printing whether scipy.special was loaded.
SEQ_DATA = (
    "import sys\n"
    "from structvi import data, harness\n"
    "ds = data.dot_sequences(n_seq=12, t_len=10, width_d=3, seed=0, noise_std=0.05)\n"
    "ds, _, _ = data.standardize(data.split(ds, train_frac=0.7, seed=0))\n"
)
PINWHEEL_DATA = (
    "import sys\n"
    "from structvi import data, harness\n"
    "ds = data.pinwheel(n_per_arm=30, arms=3, seed=0)\n"
    "ds, _, _ = data.standardize(data.split(ds, train_frac=0.7, seed=0))\n"
)
SPECIAL_LOADED = "print('scipy.special' in sys.modules)\n"


def test_dynamics_training_and_evaluation_leave_scipy_special_unloaded():
    code = SEQ_DATA + (
        "cfg = harness.TrainConfig(model_kind='latent-lds', latent_dim=2, hidden=(8,),\n"
        "    n_iters=4, seed=1, seq_len=10, eval_interval=4, timing=False)\n"
        "res = harness.train_structured(cfg, ds=ds)\n"
        "harness.evaluate(res.state, ds, ['bound', 'imputation', 'tau-ahead'], taus=(1, 3))\n"
    )
    assert run_fresh(code + SPECIAL_LOADED) == "False"


def test_lds_em_fit_leaves_scipy_special_unloaded():
    code = SEQ_DATA + (
        "cfg = harness.TrainConfig(model_kind='latent-lds', latent_dim=2, n_iters=4,\n"
        "    seed=1, seq_len=10, timing=False)\n"
        "harness.train_lds_em(cfg, ds=ds)\n"
    )
    assert run_fresh(code + SPECIAL_LOADED) == "False"


def test_structured_mixture_training_leaves_scipy_special_unloaded():
    code = PINWHEEL_DATA + (
        "cfg = harness.TrainConfig(n_components=3, hidden=(4,), n_iters=4,\n"
        "    eval_interval=4, seed=1, timing=False)\n"
        "harness.train_structured(cfg, ds=ds)\n"
    )
    assert run_fresh(code + SPECIAL_LOADED) == "False"


def test_vb_gmm_fit_loads_scipy_special_on_first_use():
    code = PINWHEEL_DATA + (
        "import math\n"
        "cfg = harness.TrainConfig(n_components=3, n_iters=5, seed=1, timing=False)\n"
        "row = harness.train_vb_gmm(cfg, ds=ds).metrics[-1]\n"
        "print(all(math.isfinite(row[k]) for k in ('train_bound', 'test_bound')))\n"
    )
    assert run_fresh(code + SPECIAL_LOADED).split() == ["True", "True"]
