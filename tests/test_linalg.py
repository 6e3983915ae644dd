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
