"""Flat parameter vectors: the one codec in ``linalg`` and every round trip
through it (networks, priors, posterior networks, the conjugate posterior)."""

import dataclasses

import numpy as np
import pytest

from structvi import infnet, linalg, models, nnet, updates
from structvi.errors import ContractError


def priors(rng, k=3, d=2):
    s = linalg.tril_size(d)
    mix = models.GaussianMixture(
        logits=rng.standard_normal(k), means=rng.standard_normal((k, d)),
        chol_raw=0.2 * rng.standard_normal((k, s)),
    )
    dyn = models.LinearDynamics(
        trans=rng.standard_normal((d, d)), noise_raw=rng.standard_normal(s),
        init_mean=rng.standard_normal(d), init_raw=rng.standard_normal(s),
    )
    student = models.StudentMixture(mix.logits, mix.means, mix.chol_raw, dof=3.0)
    return {"gaussian": mix, "student": student, "dynamics": dyn}


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((2, 3)), rng.standard_normal(4), np.array(1.5)]
    vec = linalg.flatten(arrays)
    assert vec.shape == (11,)
    back = linalg.unflatten(vec, [a.shape for a in arrays])
    assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(arrays, back))
    back[0][0, 0] = 99.0  # fresh arrays: the vector is untouched
    assert vec[0] == arrays[0][0, 0]


@pytest.mark.parametrize("bad", [lambda v: v[:-1], lambda v: np.append(v, 0.0),
                                 lambda v: v[None, :]])
def test_unflatten_of_another_length_is_contract_error(bad):
    with pytest.raises(ContractError, match="flat vector"):
        linalg.unflatten(bad(np.arange(6.0)), [(2,), (2, 2)])


@pytest.mark.parametrize("name", ["gaussian", "student", "dynamics"])
def test_prior_vectors_round_trip_and_keep_the_dof(name):
    prior = priors(np.random.default_rng(1))[name]
    vec = prior.param_vector()
    back = prior.with_param_vector(vec + 1.0)
    assert type(back) is type(prior)
    assert getattr(back, "dof", None) == getattr(prior, "dof", None)
    np.testing.assert_array_equal(back.param_vector(), vec + 1.0)


def wrong_lengths(vec):
    return [vec[:-1], np.append(vec, 0.0)]


@pytest.mark.parametrize("name", ["gaussian", "student", "dynamics"])
def test_prior_vector_of_wrong_length_is_contract_error(name):
    prior = priors(np.random.default_rng(2))[name]
    for bad in wrong_lengths(prior.param_vector()):
        with pytest.raises(ContractError):
            prior.with_param_vector(bad)


@pytest.mark.parametrize("name", ["gaussian", "student", "dynamics"])
def test_priors_are_frozen_and_a_new_vector_builds_fresh_factors(name):
    """No field of a prior can be reassigned, and ``with_param_vector`` on a
    prior whose factors are built reads the new vector's factors, equal to
    those of a prior that never built any."""
    prior = priors(np.random.default_rng(8))[name]
    for field in dataclasses.fields(prior):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prior, field.name, getattr(prior, field.name))
    derived = [n for n in ("chols", "covs", "precisions") if hasattr(type(prior), n)]
    old = {n: getattr(prior, n) for n in derived}
    vec = prior.param_vector() + 0.1
    moved = prior.with_param_vector(vec)
    fresh = priors(np.random.default_rng(8))[name].with_param_vector(vec)
    for n in derived:
        np.testing.assert_array_equal(getattr(moved, n), getattr(fresh, n), err_msg=n)
        assert not np.array_equal(getattr(moved, n), old[n]), n


@pytest.mark.parametrize("make", [
    lambda rng: infnet.init_gmm_net(3, 2, 4, hidden=(5,), rng=rng),
    lambda rng: infnet.init_lds_net(2, 4, hidden=(5,), rng=rng),
], ids=["gmm", "lds"])
def test_phi_vector_of_wrong_length_is_contract_error(make):
    net = make(np.random.default_rng(3))
    phi = net.phi_vector()
    np.testing.assert_array_equal(net.with_phi_vector(phi).phi_vector(), phi)
    for bad in wrong_lengths(phi):
        with pytest.raises(ContractError):
            net.with_phi_vector(bad)


def test_network_vector_of_wrong_length_is_contract_error():
    net = nnet.init_mlp([3, 4, 2], ["tanh"], np.random.default_rng(4))
    assert nnet.param_vector(net).size == nnet.num_params(net) == 26
    for bad in wrong_lengths(nnet.param_vector(net)):
        with pytest.raises(ContractError):
            nnet.set_param_vector(net, bad)


def test_posterior_vector_of_wrong_length_is_contract_error():
    q = updates.default_gmm_prior(3, 2)
    for bad in wrong_lengths(q.flat_values()):
        with pytest.raises(ContractError):
            q.with_flat_values(bad)


def test_mixture_from_factors_reproduces_the_mixture():
    mix = priors(np.random.default_rng(6))["gaussian"]
    back = models.GaussianMixture.from_factors(mix.weights, mix.means, mix.chols)
    np.testing.assert_allclose(back.weights, mix.weights, rtol=1e-14)
    np.testing.assert_allclose(back.chol_raw, mix.chol_raw, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(back.means, mix.means)


def central_fd(f, vec, h=1e-6):
    out = np.zeros_like(vec)
    for i in range(vec.size):
        step = np.zeros_like(vec)
        step[i] = h
        out[i] = (f(vec + step) - f(vec - step)) / (2 * h)
    return out


@pytest.mark.parametrize("name", ["gaussian", "dynamics"])
def test_param_grad_is_the_chain_rule_of_the_moments(name):
    """``param_grad`` of fixed moment gradients is the parameter-vector
    gradient of the linear functional they define on the moments."""
    rng = np.random.default_rng(7)
    prior = priors(rng)[name]
    if name == "gaussian":
        moments = lambda p: (p.logits, p.means, p.covs)
    else:
        moments = lambda p: (p.trans, p.noise_cov, p.init_mean, p.init_cov)
    grads = [rng.standard_normal(np.shape(m)) for m in moments(prior)]
    value = lambda vec: sum(
        float(np.sum(g * m)) for g, m in zip(grads, moments(prior.with_param_vector(vec)))
    )
    got = prior.param_grad(*grads)
    np.testing.assert_allclose(got, central_fd(value, prior.param_vector()), rtol=1e-7, atol=1e-8)
