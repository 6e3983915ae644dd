"""Manual forward/backward MLP with a Gaussian output head.

The gradient oracle is central finite differences of a random linear
functional of (mean, var) with step 1e-6.
"""

import warnings

import numpy as np
import pytest
from scipy import special

from structvi import nnet
from structvi.errors import ContractError


def random_net(rng, first_act="tanh"):
    n_in = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 3))
    hidden = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
    acts = ["tanh"] * len(hidden)
    if hidden:
        acts[0] = first_act
    net = nnet.init_mlp([n_in] + hidden + [2 * n_out], acts, rng)
    return net, n_in, n_out


def scalar_loss(net, x, wm, wv):
    mean, var, _ = nnet.forward(net, x)
    return float(np.sum(wm * mean) + np.sum(wv * var))


class TestGradients:
    def test_param_gradients_match_fd(self):
        """Max relative error below 1e-4 across 50 random configurations."""
        rng = np.random.default_rng(0)
        for trial in range(50):
            first = ("tanh", "softplus", "relu", "identity")[trial % 4]
            net, n_in, n_out = random_net(rng, first_act=first)
            batch = int(rng.integers(1, 4))
            x = rng.standard_normal((batch, n_in))
            wm = rng.standard_normal((batch, n_out))
            wv = rng.standard_normal((batch, n_out))

            mean, var, tape = nnet.forward(net, x)
            grad, _ = nnet.backward(net, tape, wm, wv)

            theta = nnet.param_vector(net)
            h = 1e-6
            fd = np.empty_like(theta)
            for i in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    scalar_loss(nnet.set_param_vector(net, up), x, wm, wv)
                    - scalar_loss(nnet.set_param_vector(net, dn), x, wm, wv)
                ) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4, trial

    def test_input_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            net, n_in, n_out = random_net(rng)
            x = rng.standard_normal((2, n_in))
            wm = rng.standard_normal((2, n_out))
            wv = rng.standard_normal((2, n_out))
            _, _, tape = nnet.forward(net, x)
            _, dx = nnet.backward(net, tape, wm, wv)
            h = 1e-6
            for r in range(x.shape[0]):
                for c in range(x.shape[1]):
                    up, dn = x.copy(), x.copy()
                    up[r, c] += h
                    dn[r, c] -= h
                    fd = (scalar_loss(net, up, wm, wv) - scalar_loss(net, dn, wm, wv)) / (2 * h)
                    assert dx[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestInit:
    def test_he_scale(self):
        """Empirical weight std within 10% of sqrt(2 / fan_in)."""
        rng = np.random.default_rng(2)
        net = nnet.init_mlp([200, 100], [], rng)
        w = net.layers[0].weight
        assert w.size == 20000
        assert np.std(w) == pytest.approx(np.sqrt(2.0 / 200), rel=0.1)
        np.testing.assert_array_equal(net.layers[0].bias, 0.0)

    def test_deterministic_per_seed(self):
        a = nnet.init_mlp([3, 8, 4], ["tanh"], np.random.default_rng(7))
        b = nnet.init_mlp([3, 8, 4], ["tanh"], np.random.default_rng(7))
        np.testing.assert_array_equal(nnet.param_vector(a), nnet.param_vector(b))


class TestGaussianHead:
    def test_variance_floor(self):
        """Hugely negative raw outputs pin the variance at the floor."""
        net = nnet.init_mlp([1, 2], [], np.random.default_rng(3))
        vec = nnet.param_vector(net)
        vec[:] = 0.0
        net = nnet.set_param_vector(net, vec)
        # bias drives raw variance output; set it very negative
        net.layers[-1].bias[1] = -500.0
        _, var, _ = nnet.forward(net, np.zeros((1, 1)))
        assert var[0, 0] == pytest.approx(1e-6, rel=1e-9)

    def test_variance_cap(self):
        net = nnet.init_mlp([1, 2], [], np.random.default_rng(4))
        net.layers[-1].bias[1] = 5e6
        _, var, _ = nnet.forward(net, np.zeros((1, 1)))
        assert var[0, 0] == pytest.approx(1e6)

    def test_variance_within_bounds_randomly(self):
        rng = np.random.default_rng(5)
        net, n_in, _ = random_net(rng)
        _, var, _ = nnet.forward(net, 100 * rng.standard_normal((50, n_in)))
        assert np.all(var >= 1e-6) and np.all(var <= 1e6)


    def test_variance_adjoint_is_the_sigmoid_of_the_raw_output(self):
        """With no hidden layer and a [0; I] weight, the input gradient is the
        adjoint of the raw variance half: dvar * expit(raw), zero where the
        variance is capped."""
        rng = np.random.default_rng(6)
        d = 7
        net = nnet.init_mlp([d, 2 * d], [], rng)
        net.layers[0].weight = np.vstack([np.zeros((d, d)), np.eye(d)])
        raw = np.vstack(
            [
                [-800.0, -40.0, -1e-3, 0.0, 1e-3, 40.0, 800.0],
                np.full(d, -1000.0),  # at the floor
                np.full(d, 2e6),  # at the cap
                [2e6, -900.0, 3.0, -3.0, 5e6, 0.5, -60.0],
                5.0 * rng.standard_normal((20, d)),
            ]
        )
        dmean = rng.standard_normal(raw.shape)
        dvar = rng.standard_normal(raw.shape)
        _, var, tape = nnet.forward(net, raw)
        capped = var >= nnet.VAR_CAP
        assert np.all(var[1] == nnet.VAR_FLOOR) and np.all(capped[2])
        want = dvar * special.expit(raw) * ~capped
        with np.errstate(all="raise"):
            _, dx = nnet.backward(net, tape, dmean, dvar)
        np.testing.assert_allclose(dx, want, rtol=1e-14, atol=0.0)
        assert np.all(dx[capped] == 0.0)


class TestShapesAndSampling:
    def test_single_vector_input(self):
        """Only an (n, in) batch of rows passes: a single vector, a stack of
        batches and rows of the wrong width raise before any layer runs."""
        rng = np.random.default_rng(6)
        net = nnet.init_mlp([3, 5, 4], ["tanh"], rng)
        for shape in [(3,), (4, 2, 3), (4, 2)]:
            with pytest.raises(ContractError, match="batch of rows"):
                nnet.forward(net, np.zeros(shape))
        mean, var, _ = nnet.forward(net, np.zeros((1, 3)))
        assert mean.shape == (1, 2) and var.shape == (1, 2)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(8)
        net, n_in, _ = random_net(rng)
        x = rng.standard_normal((4, n_in))
        m1, v1, _ = nnet.forward(net, x)
        m2, v2, _ = nnet.forward(net, x)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_param_vector_round_trip(self):
        rng = np.random.default_rng(11)
        net, _, _ = random_net(rng)
        vec = nnet.param_vector(net)
        back = nnet.param_vector(nnet.set_param_vector(net, vec + 1.0))
        np.testing.assert_allclose(back, vec + 1.0)


def out_of_place_forward(net, x):
    """``nnet.forward``'s arithmetic with a fresh array for every product,
    bias add and activation; returns (mean, var, post, var_softplus) on the
    (n, in) batch ``x``."""
    h = np.asarray(x, dtype=float)
    activations = {
        "tanh": np.tanh, "softplus": nnet._softplus,
        "relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z,
    }
    post = []
    for layer in net.layers[:-1]:
        h = activations[layer.activation](h @ layer.weight.T + layer.bias)
        post.append(h)
    raw = h @ net.layers[-1].weight.T + net.layers[-1].bias
    d = net.out_dim
    var_softplus = nnet._softplus(raw[:, d:])
    var = np.minimum(var_softplus + nnet.VAR_FLOOR, nnet.VAR_CAP)
    return raw[:, :d], var, post, var_softplus


class TestInPlaceLayers:
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("act", list(nnet.ACTIVATIONS))
    def test_forward_equals_out_of_place_layers(self, act, rows):
        """Bit for bit: mean, var and every tape entry, and the input is left
        as it was."""
        rng = np.random.default_rng(31)
        net = nnet.init_mlp([3, 6, 5, 8], [act, act], rng)
        for layer in net.layers:
            layer.bias = rng.standard_normal(layer.bias.shape)
        x = 3.0 * rng.standard_normal((rows, 3))
        before = x.copy()
        mean, var, tape = nnet.forward(net, x)
        want_mean, want_var, want_post, want_sp = out_of_place_forward(net, x)
        assert np.array_equal(mean, want_mean) and np.array_equal(var, want_var)
        assert np.array_equal(tape.x, x)
        assert len(tape.post) == len(want_post)
        assert all(np.array_equal(a, b) for a, b in zip(tape.post, want_post))
        assert np.array_equal(tape.var_softplus, want_sp)
        assert np.array_equal(x, before)


class TestSoftplus:
    POINTS = (0.0, 1e-300, 1e-8, 1.0, 36.7, 709.8, 745.2, 800.0)

    def test_within_4_ulp_of_logaddexp(self):
        """At +-POINTS and on 1e5 normal draws at each of four scales."""
        rng = np.random.default_rng(32)
        x = np.concatenate(
            [np.array(self.POINTS), -np.array(self.POINTS)]
            + [scale * rng.standard_normal(100_000) for scale in (0.1, 1.0, 30.0, 300.0)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nnet._softplus(x)
        want = np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_infinities_and_nan(self):
        x = np.array([np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nnet._softplus(x)
        assert np.array_equal(got, np.logaddexp(0.0, x)) and np.array_equal(got, [np.inf, 0.0])
        assert np.isnan(nnet._softplus(np.array([np.nan]))).all()
