"""Allocation guards for the 2^k-wide tail of a generator update.

At k = 6 the Hadamard head and the generator loss run over [b, H, W, 64]
maps, and every fresh map of that size costs about as much as the
arithmetic on it. These tests bound the peak of the new bytes that
tracemalloc sees during each call, in maps of the input's size, so an edit
that keeps one more such map alive fails here.
"""

import tracemalloc

import numpy as np
import pytest

from hadaseg.codes import sylvester
from hadaseg.layer import hadamard_backward, hadamard_forward
from hadaseg.loss import LossWeights, generator_loss_sums

SHAPE = (2, 64, 64, 64)
MAP_BYTES = int(np.prod(SHAPE)) * 8
# Room for the per-pixel vectors ([b, H, W] row sums, label columns).
SLACK = 0.25


def _peak_maps(fn) -> float:
    """The peak of the bytes allocated while ``fn`` runs, in maps."""
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MAP_BYTES


@pytest.fixture(scope="module")
def tail():
    rng = np.random.default_rng(90)
    cb = sylvester(6)
    y_c = rng.standard_normal(SHAPE)
    act = hadamard_forward(cb, y_c)
    labels = rng.integers(0, 8, SHAPE[:3])
    alpha = rng.uniform(0.1, 0.9, (2, 8, 8, 1))
    return cb, y_c, act, labels, alpha, rng.standard_normal(SHAPE)


def test_head_forward_makes_one_map(tail):
    # The transform's output, with the softmax run in place on it.
    cb, y_c, *_ = tail
    assert _peak_maps(lambda: hadamard_forward(cb, y_c)) <= 1 + SLACK


def test_head_backward_makes_one_map(tail):
    # Its result; s*g and s*(s.g) live one block at a time.
    _, _, act, _, _, g = tail
    assert _peak_maps(lambda: hadamard_backward(act, g)) <= 1 + SLACK


def test_head_forward_and_backward_keep_two_maps(tail):
    cb, y_c, _, _, _, g = tail
    assert _peak_maps(lambda: hadamard_backward(hadamard_forward(cb, y_c), g)) <= 2 + SLACK


@pytest.mark.parametrize("lambda3, maps", [(250.0, 2), (0.0, 1)])
def test_generator_loss_makes_its_gradients_only(tail, lambda3, maps):
    # The code difference's buffer becomes y_hat's gradient, so the maps
    # made are the returned gradients: y_hat's, and y_c_hat's unless
    # lambda3 is 0.
    cb, y_c, act, labels, alpha, _ = tail
    counts = (alpha.size, y_c.size, y_c.size)
    w = LossWeights(lambda3=lambda3)

    def call():
        return generator_loss_sums(alpha, act.output, labels, y_c, cb, counts, w)

    assert _peak_maps(call) <= maps + SLACK
