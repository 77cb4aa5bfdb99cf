import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaseg.codes import sylvester
from hadaseg.errors import ShapeError
from hadaseg.layer import (
    _row_max,
    _softmax_backward,
    _softmax_last_axis,
    hadamard_backward,
    hadamard_forward,
)

from helpers import rel_error

WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64]


def _softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward_reference(s, g):
    return s * g - s * (s * g).sum(axis=-1, keepdims=True)


def _rows(n, elements):
    return hnp.arrays(np.float64, (2, n), elements=elements)


class TestSoftmaxKernels:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_row_max_finds_every_column(self, n):
        # Row i holds its strict max in column i, the last column included.
        x = np.where(np.eye(n), 2.0, -1.0)
        got = _row_max(x)
        assert got.shape == (n, 1)
        assert np.array_equal(got[:, 0], np.full(n, 2.0))

    # -0.0 is left out of the draws: where +0.0 and -0.0 tie for a row's
    # max, either sign is a correct max and .max itself picks by order.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from(WIDTHS))
    def test_row_max_equals_max_bitwise(self, data, n):
        finite = st.floats(allow_nan=False).filter(lambda v: v != 0) | st.just(0.0)
        x = data.draw(_rows(n, finite))
        got = _row_max(x)[:, 0]
        assert np.array_equal(got.view(np.int64), x.max(axis=-1).view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from(WIDTHS))
    def test_softmax_matches_the_reference_formulas(self, data, n):
        logits = data.draw(_rows(n, st.floats(-1e3, 1e3)))
        g = data.draw(_rows(n, st.floats(-1e3, 1e3)))
        s = _softmax_last_axis(logits)
        np.testing.assert_allclose(s, _softmax(logits), rtol=1e-14, atol=1e-300)
        assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-13)
        # The backward cancels s*g against s*(s.g), so each row's error is
        # judged against the size of the terms of s.g.
        error = np.abs(_softmax_backward(s, g) - _softmax_backward_reference(s, g))
        assert np.all(error <= 1e-14 * (s * np.abs(g)).sum(axis=-1, keepdims=True))

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e3, -1e3, 1e3, -1e3], [-1e3, -1e3, -1e3, -1e3], [1e3, 0, 0, 0]])
        s = _softmax_last_axis(logits)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, _softmax(logits), rtol=1e-14, atol=0)
        assert np.array_equal(s.sum(axis=-1), np.ones(3))
        back = _softmax_backward(s, np.arange(12.0).reshape(3, 4))
        assert np.all(np.isfinite(back))

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(2)
        logits, g = rng.standard_normal((2, 4, 8))
        s = _softmax_last_axis(logits.copy())
        before = (logits.copy(), s.copy(), g.copy())
        _softmax_last_axis(logits)
        _softmax_backward(s, g)
        for kept, now in zip(before, (logits, s, g)):
            assert np.array_equal(kept, now)


class TestForward:
    def test_pure_codeword_dominant_probability(self):
        cb = sylvester(3)
        y_c = np.tile(cb.matrix[5].astype(np.float64), (2, 3, 1))
        act = hadamard_forward(cb, y_c)
        # transform of a codeword is 8 * e_5, so the softmax puts
        # exp(8) / (exp(8) + 7) on channel 5.
        expected = np.exp(8.0) / (np.exp(8.0) + 7.0)
        assert np.allclose(act.output[..., 5], expected, atol=1e-12)
        assert np.all(np.argmax(act.output, axis=-1) == 5)
        assert np.allclose(act.output[0, 0], _softmax(8.0 * np.eye(8)[5]), atol=1e-12)

    def test_zero_input_is_uniform(self):
        act = hadamard_forward(sylvester(3), np.zeros((1, 1, 8)))
        assert np.allclose(act.output, 1.0 / 8.0)

    def test_one_pixel_per_class_k2(self):
        cb = sylvester(2)
        y_c = cb.matrix.astype(np.float64).reshape(1, 4, 4)
        act = hadamard_forward(cb, y_c)
        assert np.array_equal(np.argmax(act.output, axis=-1)[0], [0, 1, 2, 3])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_argmax_invariance_on_scaled_codewords(self, k):
        cb = sylvester(k)
        for scale_factor in (1.0, 2.5, 10.0):
            y_c = scale_factor * cb.matrix.astype(np.float64).reshape(1, cb.n, cb.n)
            act = hadamard_forward(cb, y_c)
            assert np.array_equal(np.argmax(act.output, axis=-1)[0], np.arange(cb.n))

    def test_rows_are_probability_vectors_even_at_large_magnitude(self):
        # Max subtraction keeps the softmax finite at any magnitude; entries
        # stay nonnegative (far-below-max logits underflow to exactly 0 in
        # float64) and each pixel still sums to 1.
        rng = np.random.default_rng(7)
        cb = sylvester(3)
        for magnitude in (1.0, 100.0, 1e4):
            y_c = magnitude * rng.standard_normal((4, 4, 8))
            act = hadamard_forward(cb, y_c)
            assert np.all(np.isfinite(act.output))
            assert np.all(act.output >= 0)
            assert np.abs(act.output.sum(axis=-1) - 1.0).max() < 1e-6

    def test_rows_strictly_positive_at_moderate_magnitude(self):
        rng = np.random.default_rng(17)
        act = hadamard_forward(sylvester(3), 5.0 * rng.standard_normal((4, 4, 8)))
        assert np.all(act.output > 0)

    def test_k0_is_plain_softmax(self):
        cb = sylvester(0)
        y_c = np.array([[[3.0]], [[-2.0]]])
        act = hadamard_forward(cb, y_c)
        assert np.array_equal(act.output, _softmax(y_c))

    def test_transformed_matches_fwht(self):
        rng = np.random.default_rng(3)
        cb = sylvester(2)
        y_c = rng.standard_normal((2, 2, 4))
        act = hadamard_forward(cb, y_c)
        dense = y_c @ cb.matrix.astype(np.float64).T
        assert np.allclose(act.output, _softmax(dense), atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard_forward(sylvester(3), np.zeros((2, 2, 4)))


class TestBackward:
    def test_zero_gradient(self):
        cb = sylvester(2)
        act = hadamard_forward(cb, np.ones((2, 2, 4)))
        assert np.array_equal(hadamard_backward(act, np.zeros((2, 2, 4))), np.zeros((2, 2, 4)))

    def test_constant_gradient_annihilated(self):
        # The softmax Jacobian kills vectors that are constant across channels.
        rng = np.random.default_rng(1)
        cb = sylvester(3)
        act = hadamard_forward(cb, rng.standard_normal((2, 2, 8)))
        grad = np.full((2, 2, 8), 3.7)
        assert np.abs(hadamard_backward(act, grad)).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_finite_differences(self, k):
        rng = np.random.default_rng(100 + k)
        cb = sylvester(k)
        step = 1e-4
        for _ in range(10):
            y_c = rng.standard_normal((1, 1, cb.n))
            grad = rng.standard_normal((1, 1, cb.n))
            act = hadamard_forward(cb, y_c)
            analytic = hadamard_backward(act, grad)
            numeric = np.zeros_like(y_c)
            for i in range(cb.n):
                for sign in (1.0, -1.0):
                    shifted = y_c.copy()
                    shifted[0, 0, i] += sign * step
                    value = (hadamard_forward(cb, shifted).output * grad).sum()
                    numeric[0, 0, i] += sign * value / (2 * step)
            assert rel_error(analytic, numeric) < 1e-5

    def test_gradient_shape_mismatch(self):
        act = hadamard_forward(sylvester(2), np.zeros((2, 2, 4)))
        with pytest.raises(ShapeError):
            hadamard_backward(act, np.zeros((2, 3, 4)))
