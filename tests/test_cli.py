"""Command-line interface: subcommands, config file plus flag precedence."""

import os
import subprocess
import sys

import numpy as np
import pytest

import structvi
from structvi import cli, data, harness


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


def test_train_baseline_trainers(tmp_path):
    dataset = make_pinwheel_file(tmp_path)
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
        assert os.path.exists(os.path.join(out_dir, f"{name}.ckpt"))

    dots = str(tmp_path / "dots.txt")
    run_cli(
        [
            "generate-data", "--kind", "dots", "--out", dots,
            "--n-seq", "8", "--t-len", "6", "--width-d", "4",
            "--noise-std", "0.05",
        ]
    )
    out_dir = str(tmp_path / "lds-em")
    assert run_cli(
        [
            "train", "--trainer", "lds-em", "--dataset", dots,
            "--model-kind", "latent-lds", "--seq-len", "6",
            "--latent-dim", "2", "--n-iters", "8", "--timing", "0",
            "--out-dir", out_dir,
        ]
    ) == 0
    assert os.path.exists(os.path.join(out_dir, "lds-em.ckpt"))


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
