"""The paper's amortization condition as an exact count: a structured step
costs what a VAE step does up to a per-datum linear term.

Each run counts the ``np.linalg`` ``cholesky``/``inv``/``solve`` calls and
the matrices they factor, a call's matrices being the product of its
broadcast batch shape.  At data sizes s, 2s and 4s every count must be
affine in the size: M(4s) - M(2s) = 2 (M(2s) - M(s)).  A mixture step's
calls do not grow with the batch at all.  A term quadratic in the rows or
in the sequence length (an n·n or T·T broadcast, a chain over all pairs of
time steps) breaks the law; a per-row or per-step term keeps it.
"""

import numpy as np
import pytest

from structvi import baselines, data, harness

NAMES = ("cholesky", "inv", "solve")


def count_linalg(monkeypatch):
    """{name: [calls, matrices]} of the patched ``np.linalg`` routines."""
    counts = {name: [0, 0] for name in NAMES}
    for name in NAMES:
        real = getattr(np.linalg, name)

        def counted(a, *rest, _real=real, _name=name, **kw):
            batch = np.shape(a)[:-2]
            if rest and np.ndim(rest[0]) > 1:  # solve's right-hand sides
                batch = np.broadcast_shapes(batch, np.shape(rest[0])[:-2])
            counts[_name][0] += 1
            counts[_name][1] += int(np.prod(batch))
            return _real(a, *rest, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def assert_affine(by_size, calls_fixed):
    """``by_size`` maps three sizes s, 2s, 4s to counts."""
    small, mid, large = (by_size[s] for s in sorted(by_size))
    for name in NAMES:
        for i, what in enumerate(("calls", "matrices")):
            m1, m2, m4 = small[name][i], mid[name][i], large[name][i]
            assert m4 - m2 == 2 * (m2 - m1), (name, what, m1, m2, m4)
            if what == "calls" and calls_fixed:
                assert m1 == m2 == m4, (name, m1, m2, m4)


@pytest.mark.parametrize("kind", ["latent-gmm", "latent-tmm"])
def test_mixture_step_cost_is_affine_in_the_batch_rows(monkeypatch, kind):
    """k = 4 components, d = 2, at 8, 16 and 32 rows: the same calls, and
    per-row matrices on top of a fixed per-component part."""
    rows = data.pinwheel(n_per_arm=20, arms=3, seed=0).rows
    cfg = harness.TrainConfig(
        model_kind=kind, n_components=4, latent_dim=2, hidden=(6,), timing=False
    )
    by_size = {}
    for n in (8, 16, 32):
        state = harness.init_state(cfg, rows.shape[1])
        counts = count_linalg(monkeypatch)
        harness.train_step(state, cfg, rows[:n], rows.shape[0], np.random.default_rng(0))
        monkeypatch.undo()
        by_size[n] = counts
    assert all(c[0] > 0 for c in by_size[8].values())
    assert_affine(by_size, calls_fixed=True)


@pytest.mark.parametrize("run", ["latent-lds-step", "lds-em-iteration"])
def test_dynamics_cost_is_affine_in_the_sequence_length(monkeypatch, run):
    """One latent-lds step on one sequence, and one LDS-EM iteration on six,
    at T = 5, 10 and 20: calls and matrices grow by a fixed amount per step."""
    by_size = {}
    for t_len in (5, 10, 20):
        ds = data.dot_sequences(n_seq=6, t_len=t_len, width_d=3, noise_std=0.05, seed=0)
        if run == "latent-lds-step":
            cfg = harness.TrainConfig(
                model_kind="latent-lds", latent_dim=2, hidden=(6,), seq_len=t_len, timing=False
            )
            state = harness.init_state(cfg, ds.dim)
            units = harness._units(state.net, ds.rows, t_len)
            counts = count_linalg(monkeypatch)
            harness.train_step(state, cfg, units[0], units.shape[0], np.random.default_rng(0))
        else:
            seqs = ds.rows.reshape(-1, t_len, ds.dim)
            init = baselines.lds_em_init(seqs, 2)
            counts = count_linalg(monkeypatch)
            baselines.lds_em_fit(seqs, 2, n_iter=1, init=init)
        monkeypatch.undo()
        by_size[t_len] = counts
    assert by_size[5]["inv"][0] > 0
    assert_affine(by_size, calls_fixed=False)
