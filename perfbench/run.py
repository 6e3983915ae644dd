"""structvi benchmark: training and evaluation workloads, end to end and per layer.

    python3 perfbench/run.py --workload dots-lds --seed 3 --seconds 50 --trace 0

Each run builds its inputs from --seed, trains through the package's public
entry points for about 60% of --seconds, evaluates the trained state for the
rest, checks the outputs, and prints one JSON object as the last line of
standard output.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run wraps the package's public functions (see spans.py) and the
metrics are per-layer call counts and self times.  README.md in this
directory lists the workloads, the metrics and which layer should move which
metric.
"""

import os

# One BLAS/OpenMP thread; this has to happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "structvi" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no structvi sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy
from structvi import baselines, bound, data, harness, models

import spans

TRAIN_SHARE = 0.6
IMPUTE_FRACTION = 0.2  # harness.imputation_mse's default masking rate
# The host-speed reference: interpreter and tiny-array work in the proportions
# of the package's inner loops, and REF_S, its time in the fast spells of the
# 2-vCPU Xeon host the benchmark was sized on.
REF_INT_LOOPS = 6_500
REF_ARRAY_LOOPS = 150
REF_S = 1.3e-3


@dataclass(frozen=True)
class Sizes:
    n_per_arm: int = 1000
    arms: int = 5
    n_seq: int = 50
    t_len: int = 20
    width: int = 10
    hidden: tuple = (50, 50)
    iters_per_call: int = 100  # structured training call length (= eval_interval)
    em_iters: int = 8  # EM iterations per fit
    # Training calls (structured) or eval calls (EM) whose medians give the
    # final_* metrics; every run makes at least this many of each.
    quality_calls: int = 7
    setup_reps: int = 100
    warmup: int = 3  # leading steps/iterations left out of the percentiles


FULL = Sizes()
TINY = Sizes(
    n_per_arm=30, n_seq=6, t_len=5, width=4, hidden=(8,), iters_per_call=4,
    em_iters=3, quality_calls=2, setup_reps=2, warmup=1,
)

WORKLOADS = ("pinwheel-gmm", "dots-lds", "dots-lds-em")

END_TO_END = (
    ("setup_s", "s"),
    ("train_rows_per_s", "rows/s"),
    ("train_step_ms_mean", "ms"),
    ("eval_ms_mean", "ms"),
    ("final_test_neg_bound", "nats/row"),
    ("final_imputation_mse", "1"),
    ("final_tau_mae", "1"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MB"),
)

# Span names per root kind, kept to the pairs that fire on some workload.
LAYERS = {
    "step": (
        "nnet.forward", "nnet.backward", "infnet.encode",
        "infnet.gmm_scores", "infnet.gmm_reconstruct",
        "infnet.gmm_log_z_factor_grads", "infnet.gmm_pathwise_factor_vjp",
        "infnet.lds_filter", "infnet.lds_reconstruct",
        "infnet.lds_log_z_factor_grads", "infnet.lds_pathwise_factor_vjp",
        "models.decode_loglik", "models.log_prior_with_grads",
        "bound.bound_gradients", "updates.sample_gmm_params",
        "updates.conjugate_gmm_message", "updates.natural_gradient_step",
        "updates.adagrad_step", "linalg.cholesky_spd", "harness.train_step",
    ),
    "eval": (
        "nnet.forward", "nnet.backward", "infnet.encode",
        "infnet.gmm_scores", "infnet.gmm_reconstruct",
        "infnet.lds_filter", "infnet.lds_reconstruct",
        "models.decode_loglik", "models.log_prior_with_grads",
        "bound.bound_estimate", "linalg.cholesky_spd",
        "baselines.lds_em_filter", "baselines.lds_em_smooth",
    ),
    "iter": ("baselines.lds_em_filter", "baselines.lds_em_smooth", "linalg.cholesky_spd"),
}
TRACE_OVERHEAD = "trace.overhead_ratio"


def per_layer_names():
    names = []
    for kind, span_names in LAYERS.items():
        for span in span_names:
            names += [(f"{span}.calls_per_{kind}", "count"), (f"{span}.self_ms_per_{kind}", "ms")]
    return names + [(TRACE_OVERHEAD, "ratio")]


# ---------------------------------------------------------------------------
# Timing, failure accounting


_REF_VEC = np.arange(4.0)
_REF_MAT = 2.0 * np.eye(4) + 0.1


def reference_work():
    """Fixed work that touches nothing of the package."""
    acc = 0
    for i in range(REF_INT_LOOPS):
        acc += i * i
    vec = _REF_VEC
    for _ in range(REF_ARRAY_LOOPS):
        vec = (vec * 0.5 + 1.0) @ _REF_MAT
        vec = vec - vec.mean()


class HostClock:
    """Wall times rescaled to a fixed host speed.

    A shared host changes speed by up to 1.8x for seconds at a time.  Right
    after each timed operation the clock runs reference_work() and scales the
    operation's wall time by REF_S / (its time), averaged with the previous
    reference run when that ended right before the operation began.  The
    figures are then in seconds at the speed the host had when the reference
    took REF_S, whatever share of a run fell in a slow spell.
    """

    GAP_S = 0.005  # a reference run ending this close before an operation brackets it

    def __init__(self):
        self.reset()

    def reset(self):
        self.scales = []  # one per timed operation
        self.ref_s = 0.0  # wall time spent in reference_work()
        self._last = (-math.inf, 0.0)  # end and duration of the latest reference run

    def scale(self, t0=None):
        """Runs reference_work(); returns REF_S / the reference time around t0."""
        end, before = self._last
        t1 = time.perf_counter()
        reference_work()
        t2 = time.perf_counter()
        self.ref_s += t2 - t1
        self._last = (t2, t2 - t1)
        ref = t2 - t1
        if t0 is not None and 0.0 <= t0 - end < self.GAP_S:
            ref = 0.5 * (ref + before)
        self.scales.append(REF_S / ref)
        return self.scales[-1]

    def since(self, t0):
        """Scaled seconds from t0 to now."""
        wall = time.perf_counter() - t0
        return wall * self.scale(t0)


CLOCK = HostClock()


class Ledger:
    """Attempted and failed operations, with each distinct error and its count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self._last = None

    def fail(self, exc):
        self.failed += 1
        self._last = exc
        key = f"{type(exc).__name__}: {exc}"
        self.errors[key] = self.errors.get(key, 0) + 1

    def run(self, fn, counted=True):
        """(True, result) or (False, None).

        Any exception is a failure, TypeError included.  A call with
        counted=False is made of steps that count themselves; it adds one
        attempt only when it fails outside a step.
        """
        if counted:
            self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:
            if exc is not self._last:
                if not counted:
                    self.attempted += 1
                self.fail(exc)
            self._last = None
            return False, None


class StepTimer:
    """Times every harness.train_step call and opens its trace root."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.ms = []  # per step; a failed step is +inf
        self.rows = 0  # data rows in the batches of completed steps
        self.recorder = None

    @contextlib.contextmanager
    def installed(self):
        original = harness.train_step

        def timed(state, cfg, batch, *args, **kwargs):
            self.ledger.attempted += 1
            root = (
                self.recorder.root("step", "harness.train_step")
                if self.recorder
                else contextlib.nullcontext()
            )
            t0 = time.perf_counter()
            try:
                with root:
                    out = original(state, cfg, batch, *args, **kwargs)
            except Exception as exc:
                self.ms.append(math.inf)
                self.ledger.fail(exc)
                raise
            self.ms.append(1e3 * CLOCK.since(t0))
            self.rows += np.size(batch) // state.data_dim
            return out

        harness.train_step = timed
        try:
            yield self
        finally:
            harness.train_step = original


def rank(values, q):
    """Nearest-rank quantile; a failure is +inf, so it is slower than any limit."""
    if not values:
        return math.inf
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean(values):
    """Mean of the samples; a failure is +inf, so it is slower than any limit."""
    return statistics.fmean(values) if values else math.inf


def tracing(recorder):
    return spans.installed(recorder) if recorder else contextlib.nullcontext()


def root(recorder, kind, name):
    return recorder.root(kind, name) if recorder else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(workload, seed, sizes, workdir):
    """Generate, export and load one dataset; returns (dataset, config)."""
    path = os.path.join(workdir, "data.txt")
    common = dict(
        n_components=10, latent_dim=2, hidden=sizes.hidden, activation="tanh",
        optimizer="adagrad", seed=seed, dataset=path,
    )
    if workload == "pinwheel-gmm":
        raw = data.pinwheel(n_per_arm=sizes.n_per_arm, arms=sizes.arms, seed=seed)
        cfg = harness.TrainConfig(
            model_kind="latent-gmm", batch_size=64, n_iters=sizes.iters_per_call,
            eval_interval=sizes.iters_per_call, **common,
        )
    else:
        raw = data.dot_sequences(
            sizes.n_seq, sizes.t_len, sizes.width, noise_std=0.05, seed=seed
        )
        n_iters = sizes.em_iters if workload == "dots-lds-em" else sizes.iters_per_call
        cfg = harness.TrainConfig(
            model_kind="latent-lds", seq_len=sizes.t_len, n_iters=n_iters,
            eval_interval=n_iters, **common,
        )
    data.export(raw, path)
    return harness.load_dataset(cfg), cfg


def timed_setup(workload, seed, sizes, workdir):
    """Generate + export + load, repeated; returns (dataset, config, seconds each)."""
    times = []
    for _ in range(sizes.setup_reps):
        t0 = time.perf_counter()
        ds, cfg = make_inputs(workload, seed, sizes, workdir)
        times.append(CLOCK.since(t0))
    return ds, cfg, times


# ---------------------------------------------------------------------------
# Output checks


class Checks:
    def __init__(self):
        self.failures = []
        self.ran = 0

    def expect(self, ok, what):
        self.ran += 1
        if not ok:
            self.failures.append(what)

    def guard(self, fn, *args):
        """Run a check that calls into the package; an exception fails it."""
        try:
            fn(self, *args)
        except Exception as exc:
            self.ran += 1
            self.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")


def finite_or_none(value):
    """JSON has no infinity or NaN; a figure with no finite value is null."""
    return value if math.isfinite(value) else None


def finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def check_round_trip(checks, rows, workdir):
    path = os.path.join(workdir, "metrics.txt")
    harness.write_metrics(path, rows)
    back = harness.read_metrics(path)
    same = len(back) == len(rows) and all(
        a.keys() == b.keys()
        and all(a[c] == b[c] or (math.isnan(a[c]) and math.isnan(b[c])) for c in a)
        for a, b in zip(rows, back)
    )
    checks.expect(same, "metrics log does not round-trip through harness.read_metrics")


def check_bound_terms(checks, state, batch, n_total, seed):
    model = models.GenerativeModel(
        decoder=harness.eval_decoder(state), prior=harness.eval_prior(state)
    )
    est = bound.bound_estimate(
        model, state.net, batch, np.random.default_rng(seed), n_total=n_total
    )
    terms = [getattr(est, name) for name in bound.TERM_NAMES]
    checks.expect(
        abs(sum(terms) - est.total) <= 1e-9 * (1.0 + sum(abs(t) for t in terms)),
        f"bound terms sum to {sum(terms)!r} but the total is {est.total!r}",
    )


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Outcome:
    # (rows, seconds) per structured training call or per EM iteration; the
    # first train_warmup of them are left out of train_rows_per_s.
    train: list = dataclasses.field(default_factory=list)
    train_warmup: int = 1
    step_ms: list = dataclasses.field(default_factory=list)
    traced_from: int = 0  # steps before this index ran untraced
    eval_ms: list = dataclasses.field(default_factory=list)
    neg_bound: float = math.nan
    imputation: float = math.nan
    tau_mae: float = math.nan


def evaluate_loop(fn, sizes, deadline, ledger, recorder, root_name):
    """Call fn(i) until the deadline; returns (per-call ms, results)."""
    ms, results = [], []
    with tracing(recorder):
        i = 0
        while i < sizes.quality_calls or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            with root(recorder, "eval", root_name):
                ok, res = ledger.run(lambda: fn(i))
            ms.append(1e3 * CLOCK.since(t0) if ok else math.inf)
            if ok:
                results.append(res)
            i += 1
    return ms[1:], results


def run_structured(cfg, ds, sizes, seconds, ledger, checks, recorder, workdir):
    """harness.train_structured calls, then harness.evaluate on the last state."""
    out = Outcome()
    timer = StepTimer(ledger)
    start = time.perf_counter()
    finals, result, calls = [], None, 0
    with timer.installed():
        while calls < sizes.quality_calls or time.perf_counter() - start < TRAIN_SHARE * seconds:
            # In a traced run call 0 stays untraced: it is the overhead baseline.
            traced = recorder if calls > 0 else None
            timer.recorder = traced
            if calls == 1:
                out.traced_from = len(timer.ms)
            call_cfg = dataclasses.replace(cfg, seed=cfg.seed + 7919 * calls)
            rows, scales, ref_s = timer.rows, len(CLOCK.scales), CLOCK.ref_s
            t0 = time.perf_counter()
            with tracing(traced):
                ok, res = ledger.run(
                    lambda: harness.train_structured(call_cfg, ds), counted=False
                )
            # The call's wall time less the reference work run after its
            # steps, scaled by the mean of those steps' scales.
            wall = time.perf_counter() - t0 - (CLOCK.ref_s - ref_s)
            scale = statistics.fmean(CLOCK.scales[scales:] or [CLOCK.scale()])
            out.train.append((timer.rows - rows, wall * scale))
            if ok:
                result = res
                if calls < sizes.quality_calls:
                    finals.append(res.metrics[-1])
            calls += 1
    out.step_ms = timer.ms
    is_lds = cfg.model_kind == "latent-lds"
    if finals:
        out.neg_bound = -statistics.median(r["test_bound"] for r in finals)
        out.imputation = statistics.median(r["imputation_mse"] for r in finals)
        if is_lds:
            out.tau_mae = statistics.median(r["tau_mae"] for r in finals)

    # The last trained state, or the initial one when no call completed.
    state = result.state if result else harness.init_state(cfg, ds.dim)
    tasks = ("bound", "imputation", "tau-ahead") if is_lds else ("bound", "imputation")
    out.eval_ms, evals = evaluate_loop(
        lambda i: harness.evaluate(state, ds, tasks, seed=i, taus=(1,)),
        sizes, start + seconds, ledger, recorder, "harness.evaluate",
    )

    if result is not None:
        finals_ok = finite(out.neg_bound, out.imputation, *([out.tau_mae] if is_lds else []))
        checks.expect(finals_ok, "final metrics are not finite")
        checks.expect(
            all(
                finite(e["bound"], e["imputation_mse"], *e.get("tau_mae", {}).values())
                for e in evals
            ),
            "evaluation outputs are not finite",
        )
        checks.guard(check_round_trip, result.metrics, workdir)
        test_rows = ds.rows[ds.test_idx]
        if is_lds:
            batch, n_total = test_rows[: cfg.seq_len], ds.test_idx.size // cfg.seq_len
        else:
            batch, n_total = test_rows[: harness.EVAL_ROW_CAP], ds.test_idx.size
        checks.guard(check_bound_terms, result.state, batch, n_total, cfg.seed)
    return out


def em_imputation_mse(params, seqs, seed):
    """harness.imputation_mse's masking rule, reconstructed by the RTS smoother."""
    rows = seqs.reshape(-1, seqs.shape[-1])
    rng = np.random.default_rng(seed)
    mask = rng.random(rows.shape) < IMPUTE_FRACTION
    filled = np.where(mask, 0.0, rows).reshape(seqs.shape)
    recon = np.concatenate(
        [baselines.lds_em_smooth(params, seq).mean @ params.emit.T for seq in filled]
    )
    return float(np.mean((recon[mask] - rows[mask]) ** 2))


def em_evaluate(params, seqs, seed):
    """(test log-likelihood, tau=1 MAE, imputation MSE) of an LDS-EM fit."""
    return (
        baselines.lds_em_loglik(params, seqs),
        baselines.lds_em_tau_mae(params, seqs, 1),
        em_imputation_mse(params, seqs, seed),
    )


def run_em(cfg, ds, sizes, seconds, ledger, checks, recorder, workdir):
    """One harness.train_lds_em fit, the same fit one iteration per call, evals."""
    out = Outcome()
    shape = (-1, cfg.seq_len, ds.dim)
    train, test = ds.rows[ds.train_idx].reshape(shape), ds.rows[ds.test_idx].reshape(shape)
    rows_per_iter = train.shape[0] * cfg.seq_len
    out.train_warmup = sizes.warmup
    start = time.perf_counter()
    # The reference fit for the output checks; it is also the warm-up.
    ok, fit = ledger.run(lambda: harness.train_lds_em(cfg, ds))

    # baselines.lds_em_fit with n_iter=1 and init= the previous parameters is
    # one iteration of the same EM run, so each iteration is timed on its own.
    fits, first = 0, None
    while fits < (2 if recorder else 1) or time.perf_counter() - start < TRAIN_SHARE * seconds:
        traced = recorder if fits > 0 else None
        if fits == 1:
            out.traced_from = len(out.step_ms)
        params, logliks = None, []
        with tracing(traced):
            for _ in range(cfg.n_iters):
                t0 = time.perf_counter()
                with root(traced, "iter", "baselines.lds_em_fit"):
                    step_ok, res = ledger.run(
                        lambda: baselines.lds_em_fit(train, cfg.latent_dim, n_iter=1, init=params)
                    )
                dt = CLOCK.since(t0)
                out.step_ms.append(1e3 * dt if step_ok else math.inf)
                if not step_ok:
                    break
                out.train.append((rows_per_iter, dt))
                params, ll = res
                logliks.append(ll[0])
        if fits == 0:
            first = (params, logliks)
        fits += 1

    params = fit.state[0] if ok else first[0]
    eval_seed = cfg.seed * 1_000_003 + 17
    out.eval_ms, evals = (
        evaluate_loop(
            lambda i: em_evaluate(params, test, eval_seed + i),
            sizes, start + seconds, ledger, recorder, "perfbench.em_evaluate",
        )
        if params is not None
        else ([math.inf], [])
    )
    if evals:
        loglik, tau_mae, imputation = zip(*evals[: sizes.quality_calls])
        out.neg_bound = -statistics.median(loglik) / (test.shape[0] * test.shape[1])
        out.tau_mae = statistics.median(tau_mae)
        out.imputation = statistics.median(imputation)
        checks.expect(
            finite(out.neg_bound, out.tau_mae, out.imputation), "final metrics are not finite"
        )
    if ok:
        em_params, logliks = fit.state
        checks.expect(
            bool(np.all(np.diff(logliks) >= -1e-9 * np.abs(logliks[1:]))),
            "LDS-EM log-likelihood decreased",
        )
        checks.guard(check_round_trip, fit.metrics, workdir)
        if len(first[1]) == cfg.n_iters:
            checks.expect(
                np.array_equal(first[1], logliks)
                and all(
                    np.array_equal(getattr(first[0], f.name), getattr(em_params, f.name))
                    for f in dataclasses.fields(em_params)
                ),
                "EM run one iteration per call differs from harness.train_lds_em",
            )
    return out


# ---------------------------------------------------------------------------
# Reporting


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(out, setup_times, ledger, sizes):
    # Means over the whole run rather than percentiles; README.md says why.
    timed = out.train[out.train_warmup :]
    rows, train_s = sum(r for r, _ in timed), sum(t for _, t in timed)
    return {
        "setup_s": statistics.median(setup_times),
        "train_rows_per_s": rows / train_s if train_s else 0.0,
        "train_step_ms_mean": mean(out.step_ms[sizes.warmup :]),
        "eval_ms_mean": mean(out.eval_ms),
        "final_test_neg_bound": out.neg_bound,
        "final_imputation_mse": out.imputation,
        "final_tau_mae": out.tau_mae,
        "ok_share": 1.0 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(out, recorder, sizes):
    summary = recorder.summary()
    values = {}
    for kind, names in LAYERS.items():
        for span in names:
            calls, self_ms = summary.get((kind, span), (0.0, 0.0))
            values[f"{span}.calls_per_{kind}"] = calls
            values[f"{span}.self_ms_per_{kind}"] = self_ms
    untraced = mean(out.step_ms[sizes.warmup : out.traced_from])
    values[TRACE_OVERHEAD] = mean(out.step_ms[out.traced_from :]) / untraced
    return values


def run_once(workload, seed, seconds, trace_on, sizes=FULL):
    """One benchmark run; returns (result line, details line)."""
    ledger, checks = Ledger(), Checks()
    CLOCK.reset()
    recorder = spans.Recorder() if trace_on else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ds, cfg, setup_times = timed_setup(workload, seed, sizes, workdir)
        body = run_em if workload == "dots-lds-em" else run_structured
        out = body(cfg, ds, sizes, seconds, ledger, checks, recorder, workdir)
    if trace_on:
        metrics, units = per_layer(out, recorder, sizes), dict(per_layer_names())
    else:
        metrics, units = end_to_end(out, setup_times, ledger, sizes), dict(END_TO_END)
    result = {
        "correct": checks.ran > 0 and not checks.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": finite_or_none(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "steps_timed": max(0, len(out.step_ms) - sizes.warmup),
        "evals_timed": len(out.eval_ms),
        "train_units_timed": max(0, len(out.train) - out.train_warmup),
        "train_step_ms_p50": finite_or_none(rank(out.step_ms[sizes.warmup :], 0.5)),
        "train_step_ms_p90": finite_or_none(rank(out.step_ms[sizes.warmup :], 0.9)),
        "eval_ms_p50": finite_or_none(rank(out.eval_ms, 0.5)),
        "eval_ms_p90": finite_or_none(rank(out.eval_ms, 0.9)),
        "setup_s_p90": rank(setup_times, 0.9),
        "host_scale_mean": statistics.fmean(CLOCK.scales),
        "errors": ledger.errors,
        "checks_run": checks.ran,
        "check_failures": checks.failures,
        "environment": environment(),
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 1 if details["check_failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
