"""Plain-numpy MLPs with hand-written reverse mode.

``forward`` takes an (n, in) batch of rows.  One table, ``ACTIVATIONS``,
gives each hidden activation its forward map and its slope, read from the
layer's recorded output; the tape holds exactly what the backward pass needs
and nothing else.  The final linear layer feeds a Gaussian head: the first
``Mlp.out_dim`` outputs are the mean, the rest pass through softplus and are
floored/capped (``VAR_FLOOR``, ``VAR_CAP``) to keep downstream log-densities
finite.

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


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# name -> (map of a layer's fresh product h W^T + b, in place where numpy
# allows; slope read from the layer's output a, None for the identity)
ACTIVATIONS = {
    "tanh": (lambda h: np.tanh(h, out=h), lambda a: 1.0 - a * a),
    "identity": (lambda h: h, None),
    # a = softplus(z) => sigmoid(z) = 1 - exp(-a)
    "softplus": (_softplus, lambda a: 1.0 - np.exp(-a)),
    "relu": (lambda h: np.maximum(h, 0.0, out=h), lambda a: a > 0.0),
}


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


@dataclass
class Mlp:
    layers: list

    @property
    def out_dim(self):
        """Width of the mean and of the variance: half the last layer's."""
        return self.layers[-1].bias.shape[0] // 2


@dataclass
class GradTape:
    """Per-call record: input, post-activation values, and the softplus of
    the raw variance half (before floor and cap)."""

    x: np.ndarray
    post: list
    var_softplus: np.ndarray


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
    return Mlp(layers)


def forward(net, x):
    """Returns (mean, var, tape) for an (n, in) batch of rows."""
    x = np.asarray(x, dtype=float)
    n_in = net.layers[0].weight.shape[1]
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ContractError(f"need an (n, {n_in}) batch of rows, got shape {x.shape}")
    h = x
    post = []
    for layer in net.layers[:-1]:
        h = h @ layer.weight.T
        h += layer.bias
        h = ACTIVATIONS[layer.activation][0](h)
        post.append(h)
    last = net.layers[-1]
    raw = h @ last.weight.T
    raw += last.bias
    d = net.out_dim
    mean = raw[:, :d]
    var_softplus = _softplus(raw[:, d:])
    var = var_softplus + VAR_FLOOR
    np.minimum(var, VAR_CAP, out=var)
    return mean, var, GradTape(x=x, post=post, var_softplus=var_softplus)


def backward(net, tape, dmean, dvar):
    """Reverse sweep for upstream gradients on (mean, var).

    Returns (flat parameter gradient, gradient with respect to the input),
    the gradient in ``param_vector``'s layout.
    """
    sp = tape.var_softplus
    capped = sp + VAR_FLOOR >= VAR_CAP
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
        slope = ACTIVATIONS[net.layers[li - 1].activation][1] if li > 0 else None
        if slope is not None:
            upstream = upstream * slope(tape.post[li - 1])
    flat = linalg.flatten([g for pair in grads for g in pair])
    return flat, upstream


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
    return Mlp([Layer(w, b, l.activation) for l, w, b in pairs])
