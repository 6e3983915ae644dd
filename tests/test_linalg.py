"""Batched small linear-algebra helpers, checked against scipy."""

import warnings

import numpy as np
import pytest
from scipy import special

from structvi import linalg
from structvi.errors import NumericalError


class TestLogsumexp:
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_axis_none_returns_python_float(self, shape):
        x = np.random.default_rng(0).normal(scale=30.0, size=shape)
        out = linalg.logsumexp(x)
        assert type(out) is float
        assert out == pytest.approx(special.logsumexp(x), abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_axis_none_all_neg_inf(self, shape):
        out = linalg.logsumexp(np.full(shape, -np.inf))
        assert type(out) is float
        assert out == -np.inf

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_axis_and_keepdims_match_scipy(self, axis, keepdims):
        x = np.random.default_rng(1).normal(scale=30.0, size=(3, 4))
        x[1] = -np.inf
        out = linalg.logsumexp(x, axis=axis, keepdims=keepdims)
        ref = special.logsumexp(x, axis=axis, keepdims=keepdims)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_all_neg_inf_is_silent(self, axis, keepdims):
        x = np.full((3, 4), -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.logsumexp(x, axis=axis, keepdims=keepdims)
        ref = special.logsumexp(x, axis=axis, keepdims=keepdims)
        assert np.shape(out) == np.shape(ref)
        assert np.all(np.asarray(out) == -np.inf)

    def test_axis_none_keepdims_keeps_shape(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        out = linalg.logsumexp(x, keepdims=True)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(special.logsumexp(x), rel=1e-12)


class TestCholeskySpd:
    SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, fails unjittered
    SPD = np.array([[2.0, 0.3], [0.3, 1.0]])

    def test_jitter_touches_only_the_failing_matrix(self):
        stacked = linalg.cholesky_spd(np.stack([self.SINGULAR, self.SPD]))
        np.testing.assert_array_equal(stacked[1], linalg.cholesky_spd(self.SPD))
        np.testing.assert_array_equal(stacked[0], linalg.cholesky_spd(self.SINGULAR))

    def test_single_matrix_takes_its_first_trace_scaled_retry(self):
        jitter = linalg.JITTER_SCALE * np.trace(self.SINGULAR) / 2
        want = np.linalg.cholesky(self.SINGULAR + jitter * np.eye(2))
        np.testing.assert_array_equal(linalg.cholesky_spd(self.SINGULAR), want)

    @pytest.mark.parametrize("stack", [False, True])
    def test_raises_when_the_retries_run_out(self, stack):
        indefinite = np.diag([1.0, -1.0])  # zero trace, so zero jitter
        mat = np.stack([self.SPD, indefinite]) if stack else indefinite
        with pytest.raises(NumericalError, match="test matrix"):
            linalg.cholesky_spd(mat, "test matrix")


class TestCholeskySolves:
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_inverse_matches_numpy_on_stacks(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((3, 4, d, d))
        mat = a @ np.swapaxes(a, -1, -2) + d * np.eye(d)
        chol = np.linalg.cholesky(mat)
        np.testing.assert_allclose(
            linalg.inv_from_chol(chol), np.linalg.inv(mat), rtol=1e-12
        )


class TestCachedTriangleHelpers:
    """``cholesky_vjp``, ``tril_raw_vjp`` and ``logdet_from_chol`` read the
    cached triangle constants and ndarray methods; each returns the bits of
    the formula it replaced, kept here, for one matrix and for stacks."""

    @staticmethod
    def cholesky_vjp_formula(chol, grad_chol):
        d = chol.shape[-1]
        p = np.tril(chol.swapaxes(-1, -2) @ np.tril(grad_chol))
        idx = np.arange(d)
        p[..., idx, idx] *= 0.5
        lt_inv = np.linalg.inv(chol)
        return linalg.symmetrize(lt_inv.swapaxes(-1, -2) @ p @ lt_inv)

    @staticmethod
    def tril_raw_vjp_formula(chol, grad_mat):
        d = chol.shape[-1]
        grad_chol = (grad_mat + grad_mat.swapaxes(-1, -2)) @ chol
        rows, cols = np.tril_indices(d)
        diag_slots = np.flatnonzero(rows == cols)
        idx = np.arange(d)
        out = grad_chol[..., rows, cols].copy()
        out[..., diag_slots] = grad_chol[..., idx, idx] * np.diagonal(chol, axis1=-2, axis2=-1)
        return out

    @staticmethod
    def logdet_formula(chol):
        return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)

    @pytest.mark.parametrize("lead", [(), (4,), (3, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_helpers_match_their_formulas(self, d, lead):
        rng = np.random.default_rng(10 * d + len(lead))
        chol = linalg.tril_from_raw(rng.standard_normal(lead + (linalg.tril_size(d),)), d)
        grad = rng.standard_normal(lead + (d, d))
        assert np.array_equal(
            linalg.cholesky_vjp(chol, grad), self.cholesky_vjp_formula(chol, grad)
        )
        assert np.array_equal(
            linalg.tril_raw_vjp(chol, grad), self.tril_raw_vjp_formula(chol, grad)
        )
        assert np.array_equal(linalg.logdet_from_chol(chol), self.logdet_formula(chol))
        # one factor shared by a stack of adjoints
        grads = rng.standard_normal((3,) + lead + (d, d))
        assert np.array_equal(
            linalg.tril_raw_vjp(chol, grads), self.tril_raw_vjp_formula(chol, grads)
        )
        assert np.array_equal(
            linalg.cholesky_vjp(chol, grads), self.cholesky_vjp_formula(chol, grads)
        )

    def test_upper_adjoint_entries_are_discarded_even_when_not_finite(self):
        chol = np.array([[1.5, 0.0], [0.3, 0.7]])
        grad = np.array([[0.2, np.inf], [-0.4, 1.1]])
        got = linalg.cholesky_vjp(chol, grad)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, self.cholesky_vjp_formula(chol, grad))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_cached_constants_are_read_only(self, d):
        tri = linalg._tril_cache(d)
        rows, cols = np.tril_indices(d)
        assert np.array_equal(tri.rows, rows) and np.array_equal(tri.cols, cols)
        assert np.array_equal(tri.diag_slots, np.flatnonzero(rows == cols))
        assert np.array_equal(tri.idx, np.arange(d))
        assert np.array_equal(tri.lower, np.tril(np.ones((d, d))) > 0)
        assert np.array_equal(tri.flat, np.flatnonzero(tri.lower))
        assert np.array_equal(tri.half_diag, np.where(np.eye(d) > 0, 0.5, 1.0))
        for value in vars(tri).values():
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[...] = 0
