import math
from dataclasses import astuple, replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaseg.codes import sylvester
from hadaseg.data import gen_synthetic, one_hot
from hadaseg.errors import ShapeError
from hadaseg.loss import (
    LOG_CLAMP,
    LossWeights,
    cross_entropy,
    cross_entropy_grad,
    discriminator_loss,
    discriminator_loss_from_sums,
    discriminator_loss_grads,
    discriminator_loss_sums,
    generator_loss,
    generator_loss_from_sums,
    generator_loss_grads,
    generator_loss_sums,
    mae,
    mae_grad,
)
from hadaseg.netkit import (
    DiscriminatorConfig,
    GeneratorConfig,
    build_discriminator,
    build_generator,
)

from helpers import finite_difference, rel_error


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        z = np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(cross_entropy(z, z)) < 1e-10

    def test_uniform_binary(self):
        assert math.isclose(
            cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])),
            math.log(2) / 2,
            rel_tol=1e-12,
        )

    def test_all_ones_target_map(self):
        z_hat = np.full((2, 2), 0.5)
        assert math.isclose(cross_entropy(z_hat, np.ones((2, 2))), math.log(2), rel_tol=1e-12)

    def test_clamp_keeps_loss_finite(self):
        z_hat = np.array([0.0, 1.0])
        z = np.array([1.0, 0.0])
        assert np.isfinite(cross_entropy(z_hat, z))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros(3), np.zeros(4))

    def test_gradient_equals_the_masked_form(self):
        # Zero at and below the clamp, the exact quotient above it.
        z_hat = np.array([0.0, 1e-13, LOG_CLAMP, 2e-12, 0.5, 1.0, 0.25])
        z = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5])
        expected = np.where(z_hat > LOG_CLAMP, -z / (z.size * np.maximum(z_hat, LOG_CLAMP)), 0.0)
        assert np.array_equal(cross_entropy_grad(z_hat, z), expected)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        z_hat = rng.uniform(0.05, 0.95, size=(3, 4))
        z = rng.uniform(0.0, 1.0, size=(3, 4))
        analytic = cross_entropy_grad(z_hat, z)
        numeric = finite_difference(lambda a: cross_entropy(a, z), z_hat.copy())
        assert rel_error(analytic, numeric) < 1e-6


class TestMae:
    def test_identical(self):
        assert mae(np.ones(5), np.ones(5)) == 0.0

    def test_signed_difference(self):
        assert mae(np.array([1.0, -1.0]), np.array([-1.0, 1.0])) == 2.0

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(30)
        z_hat = rng.standard_normal(8)
        z = rng.standard_normal(8)
        expected = sum(abs(a - b) for a, b in zip(z_hat, z)) / 8
        assert math.isclose(mae(z_hat, z), expected, rel_tol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((2, 3))
        z_hat = z + rng.choice([-1.0, 1.0], size=(2, 3)) * rng.uniform(0.2, 1.0, (2, 3))
        analytic = mae_grad(z_hat, z)
        numeric = finite_difference(lambda a: mae(a, z), z_hat.copy())
        assert rel_error(analytic, numeric) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.zeros((2, 2)), np.zeros((2, 3)))


class TestDiscriminatorLoss:
    def test_perfect_discriminator(self):
        eps = 1e-12
        a_real = np.full((2, 2), 1.0 - eps)
        a_fake = np.full((2, 2), eps)
        assert abs(discriminator_loss(a_real, a_fake)) < 1e-9

    def test_coin_flip(self):
        half = np.full((3, 3), 0.5)
        assert math.isclose(discriminator_loss(half, half), 2 * math.log(2), rel_tol=1e-12)

    def test_single_cell(self):
        value = discriminator_loss(np.array([[0.9]]), np.array([[0.1]]))
        assert math.isclose(value, -2 * math.log(0.9), rel_tol=1e-12)

    def test_cross_entropy_identity(self):
        # S(1|a) + S(0|b) == CE(a, ones) + CE(1 - b, ones), algebraically.
        rng = np.random.default_rng(40)
        a = rng.uniform(0.05, 0.95, (4, 4))
        b = rng.uniform(0.05, 0.95, (4, 4))
        via_ce = cross_entropy(a, np.ones_like(a)) + cross_entropy(1.0 - b, np.ones_like(b))
        assert math.isclose(discriminator_loss(a, b), via_ce, rel_tol=1e-14)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        a_real = rng.uniform(0.1, 0.9, (2, 3))
        a_fake = rng.uniform(0.1, 0.9, (2, 3))
        g_real, g_fake = discriminator_loss_grads(a_real, a_fake)
        numeric_real = finite_difference(
            lambda a: discriminator_loss(a, a_fake), a_real.copy()
        )
        numeric_fake = finite_difference(
            lambda a: discriminator_loss(a_real, a), a_fake.copy()
        )
        assert rel_error(g_real, numeric_real) < 1e-6
        assert rel_error(g_fake, numeric_fake) < 1e-6


def _maps_with_clamped_entries(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (2, 5, 5, 1))
    # Entries at and around the clamp from both ends of (0, 1).
    edges = [0.0, 1e-13, LOG_CLAMP, 2e-12, 1.0 - 1e-13, 1.0 - 1e-12, 1.0]
    a.reshape(-1)[rng.choice(a.size, len(edges), replace=False)] = edges
    return a


class TestClampedLogGradient:
    def test_byte_identical_to_the_inline_expressions(self):
        # The clamped -1/(N*a) helper replaced three inline np.where
        # expressions; its outputs must match them bit for bit.
        for seed in range(5):
            a_real = _maps_with_clamped_entries(seed)
            a_fake = _maps_with_clamped_entries(seed + 100)
            n = a_real.size
            old_real = np.where(
                a_real > LOG_CLAMP, -1.0 / (n * np.maximum(a_real, LOG_CLAMP)), 0.0
            )
            one_minus = 1.0 - a_fake
            old_fake = np.where(
                one_minus > LOG_CLAMP, 1.0 / (n * np.maximum(one_minus, LOG_CLAMP)), 0.0
            )
            old_alpha = np.where(
                a_fake > LOG_CLAMP, -1.0 / (n * np.maximum(a_fake, LOG_CLAMP)), 0.0
            )
            assert (old_real == 0.0).any() and (old_fake == 0.0).any()
            g_real, g_fake = discriminator_loss_grads(a_real, a_fake)
            assert g_real.tobytes() == old_real.tobytes()
            assert g_fake.tobytes() == old_fake.tobytes()
            y = np.zeros((2, 5, 5, 2))
            g_alpha, _, _ = generator_loss_grads(a_fake, y, y, y, y)
            assert g_alpha.tobytes() == old_alpha.tobytes()


def _single_pixel_fixture():
    cb = sylvester(1)
    y_hat = np.array([[[0.5, 0.5]]])
    y = np.array([[[1.0, 0.0]]])
    y_c_hat = np.zeros((1, 1, 2))
    y_c = cb.matrix[0].astype(np.float64).reshape(1, 1, 2)
    alpha_fake = np.array([[0.5]])
    return alpha_fake, y_hat, y, y_c_hat, y_c


class TestGeneratorLoss:
    def test_default_weights(self):
        w = LossWeights()
        assert (w.lambda1, w.lambda2, w.lambda3) == (1000.0, 100.0, 250.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda1=-1.0)
        with pytest.raises(ValueError):
            LossWeights(lambda2=float("nan"))

    def test_perfect_prediction_is_near_zero(self):
        y = np.zeros((2, 2, 4))
        y[..., 1] = 1.0
        y_c = np.tile(sylvester(2).matrix[1].astype(np.float64), (2, 2, 1))
        alpha = np.full((1, 1), 1.0 - 1e-12)
        total, terms = generator_loss(alpha, y, y, y_c, y_c, LossWeights())
        assert 0.0 <= total < 1e-9
        assert terms.cross_entropy == 0.0
        assert terms.mae_probability == 0.0
        assert terms.mae_code == 0.0

    def test_single_pixel_scalar_oracle(self):
        alpha_fake, y_hat, y, y_c_hat, y_c = _single_pixel_fixture()
        # Hand-computed: adv = -ln(0.5); ce = -(1*ln 0.5)/2; mae_y = 0.5;
        # mae_yc = 1. Total with (1000, 100, 250) weights follows directly.
        expected_adv = -math.log(0.5)
        expected_ce = math.log(2) / 2
        expected_total = expected_adv + 1000 * expected_ce + 100 * 0.5 + 250 * 1.0
        total, terms = generator_loss(alpha_fake, y_hat, y, y_c_hat, y_c, LossWeights())
        assert math.isclose(terms.adversarial, expected_adv, rel_tol=1e-12)
        assert math.isclose(terms.cross_entropy, expected_ce, rel_tol=1e-12)
        assert terms.mae_probability == 0.5
        assert terms.mae_code == 1.0
        assert math.isclose(total, expected_total, rel_tol=1e-12)

    def test_monotone_in_each_lambda(self):
        alpha_fake, y_hat, y, y_c_hat, y_c = _single_pixel_fixture()
        base = LossWeights()
        total_base, _ = generator_loss(alpha_fake, y_hat, y, y_c_hat, y_c, base)
        for name in ("lambda1", "lambda2", "lambda3"):
            heavier = replace(base, **{name: getattr(base, name) + 10.0})
            total_heavier, _ = generator_loss(alpha_fake, y_hat, y, y_c_hat, y_c, heavier)
            assert total_heavier > total_base

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            y_hat = rng.uniform(1e-15, 1.0, (2, 2, 4))
            y_hat /= y_hat.sum(axis=-1, keepdims=True)
            y = np.eye(4)[rng.integers(0, 4, (2, 2))]
            y_c_hat = rng.standard_normal((2, 2, 4))
            y_c = rng.choice([-1.0, 1.0], (2, 2, 4))
            alpha = rng.uniform(0.0, 1.0, (1, 1))
            total, terms = generator_loss(alpha, y_hat, y, y_c_hat, y_c, LossWeights())
            assert np.isfinite(total) and total >= 0
            for value in (terms.adversarial, terms.cross_entropy, terms.mae_probability, terms.mae_code):
                assert np.isfinite(value) and value >= 0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(51)
        y = np.eye(4)[rng.integers(0, 4, (2, 2))]
        y_hat = rng.uniform(0.1, 0.9, (2, 2, 4))
        y_c = rng.choice([-1.0, 1.0], (2, 2, 4))
        y_c_hat = y_c + rng.choice([-1.0, 1.0], (2, 2, 4)) * rng.uniform(0.2, 0.8, (2, 2, 4))
        alpha = rng.uniform(0.2, 0.8, (2, 2))
        w = LossWeights(3.0, 5.0, 7.0)

        g_alpha, g_y_hat, g_y_c_hat = generator_loss_grads(alpha, y_hat, y, y_c_hat, y_c, w)
        numeric_alpha = finite_difference(
            lambda a: generator_loss(a, y_hat, y, y_c_hat, y_c, w)[0], alpha.copy()
        )
        numeric_y_hat = finite_difference(
            lambda a: generator_loss(alpha, a, y, y_c_hat, y_c, w)[0], y_hat.copy()
        )
        numeric_y_c_hat = finite_difference(
            lambda a: generator_loss(alpha, y_hat, y, a, y_c, w)[0], y_c_hat.copy()
        )
        assert rel_error(g_alpha, numeric_alpha) < 1e-5
        assert rel_error(g_y_hat, numeric_y_hat) < 1e-5
        assert rel_error(g_y_c_hat, numeric_y_c_hat) < 1e-5

    def test_shape_mismatch(self):
        alpha_fake, y_hat, y, y_c_hat, y_c = _single_pixel_fixture()
        with pytest.raises(ShapeError):
            generator_loss(alpha_fake, y_hat, y[:, :, :1], y_c_hat, y_c, LossWeights())


def _label_path_case(rng, case):
    """Loss inputs around the edges of the label path, with the labels
    drawn first: probabilities at 0, below the clamp and equal to their
    target (MAE sign 0), code entries equal to their target, and (case 5)
    a saturated map whose cross-entropy is exactly zero."""
    cb = sylvester(3)
    labels = rng.integers(0, 8, (2, 3, 5))
    y = np.eye(8)[labels]
    y_hat = rng.uniform(0.0, 1.0, y.shape)
    y_hat[rng.random(y.shape) < 0.2] = 0.0
    y_hat[rng.random(y.shape) < 0.2] = 1e-13
    if case == 5:
        y_hat = y.copy()
    else:
        same = rng.random(y.shape) < 0.2
        y_hat[same] = y[same]
    y_c = cb.matrix[labels].astype(np.float64)
    y_c_hat = rng.standard_normal(y.shape)
    same = rng.random(y.shape) < 0.2
    y_c_hat[same] = y_c[same]
    alpha = rng.uniform(0.0, 1.0, (2, 2, 2, 1))
    alpha[0, 0, 0, 0] = 0.0
    return cb, labels, alpha, y_hat, y, y_c_hat, y_c


class TestFusedGeneratorLoss:
    def test_byte_identical_to_the_term_functions(self):
        # The label path's gradients equal the dense reference's, the term
        # functions composed, bit for bit; its cross-entropy agrees to
        # rounding. Also at a zero MAE weight, where a clamped entry's
        # gradient is a signed 0. At lambda3 = 0 (case 4) the label path
        # gives no code-map gradient.
        rng = np.random.default_rng(60)
        for case in range(7):
            cb, labels, alpha, y_hat, y, y_c_hat, y_c = _label_path_case(rng, case)
            s = np.take_along_axis(y_hat, labels[..., None], axis=-1)
            assert case == 5 or ((s == 0.0).any() and (s == 1e-13).any() and (s == 1.0).any())
            w = LossWeights(3.0, 0.0 if case == 6 else 5.0, 0.0 if case == 4 else 7.0)
            counts = (alpha.size, y.size, y_c.size)
            sums, grads = generator_loss_sums(alpha, y_hat, labels, y_c_hat, cb, counts, w)
            total, terms = generator_loss_from_sums([sums], counts, w)
            values = [
                total,
                terms.adversarial,
                terms.cross_entropy,
                terms.mae_probability,
                terms.mae_code,
            ]
            expected_total, expected_terms = generator_loss(alpha, y_hat, y, y_c_hat, y_c, w)
            expected_values = [expected_total, *astuple(expected_terms)]
            expected_grads = generator_loss_grads(alpha, y_hat, y, y_c_hat, y_c, w)
            np.testing.assert_allclose(values, expected_values, rtol=1e-12, atol=0)
            # The MAE sums add the dense elements in the dense order.
            assert values[3:] == expected_values[3:]
            if case == 4:
                assert grads[2] is None
                grads, expected_grads = grads[:2], expected_grads[:2]
            for got, expected in zip(grads, expected_grads):
                assert got.tobytes() == expected.tobytes()

    def test_label_path_shape_mismatch(self):
        cb, labels, alpha, y_hat, y, y_c_hat, _ = _label_path_case(np.random.default_rng(62), 0)
        counts = (alpha.size, y.size, y.size)
        with pytest.raises(ShapeError):
            generator_loss_sums(alpha, y_hat, labels[:, :2], y_c_hat, cb, counts)
        with pytest.raises(ShapeError):
            generator_loss_sums(alpha, y_hat, labels, y_c_hat, sylvester(2), counts)

    def test_inputs_are_not_modified(self):
        alpha_fake, y_hat, y, y_c_hat, y_c = _single_pixel_fixture()
        labels = np.zeros((1, 1), dtype=np.int64)
        inputs = (alpha_fake, y_hat, y, y_c_hat, y_c, labels)
        copies = [a.copy() for a in inputs]
        generator_loss(alpha_fake, y_hat, y, y_c_hat, y_c)
        generator_loss_grads(alpha_fake, y_hat, y, y_c_hat, y_c)
        generator_loss_sums(alpha_fake, y_hat, labels, y_c_hat, sylvester(1), (1, 2, 2))
        for before, after in zip(copies, inputs):
            assert np.array_equal(before, after)


# The values whose sign numpy's sign and copysign treat differently (the
# zeros and NaN), and the infinities.
_SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def _special_case(rng, k, shape=(2, 3, 4)):
    """Loss inputs at code length 2^k whose probability map and code map
    hold every special value, off and on the label columns. A code map
    entry equal to its code gives a difference of +0.0; a difference of
    -0.0 cannot arise, since every code entry is +1 or -1."""
    cb = sylvester(k)
    labels = rng.integers(0, cb.n, shape)
    y = np.eye(cb.n)[labels]
    y_c = cb.matrix[labels].astype(np.float64)
    y_hat = rng.uniform(0.0, 1.0, y.shape)
    y_c_hat = rng.standard_normal(y.shape)
    for z_hat, z in ((y_hat, y), (y_c_hat, y_c)):
        flat, target = z_hat.reshape(-1), z.reshape(-1)
        spots = rng.choice(flat.size, size=min(flat.size, 3 * _SPECIAL.size + 2), replace=False)
        flat[spots[: 3 * _SPECIAL.size]] = np.tile(_SPECIAL, 3)
        flat[spots[3 * _SPECIAL.size :]] = target[spots[3 * _SPECIAL.size :]]
    alpha = rng.uniform(0.0, 1.0, (2, 2, 2, 1))
    return cb, labels, alpha, y_hat, y, y_c_hat, y_c


def _assert_label_path_matches_dense(cb, labels, alpha, y_hat, y, y_c_hat, y_c, w):
    """Gradients and MAE sums of ``generator_loss_sums`` equal, bit for bit,
    what the dense reference gives for a one-chunk batch, signed zeros and
    NaN sign bits included."""
    counts = (alpha.size, y.size, y_c.size)
    with np.errstate(all="ignore"):
        sums, grads = generator_loss_sums(alpha, y_hat, labels, y_c_hat, cb, counts, w)
        _, terms = generator_loss_from_sums([sums], counts, w)
        _, expected_terms = generator_loss(alpha, y_hat, y, y_c_hat, y_c, w)
        expected_grads = generator_loss_grads(alpha, y_hat, y, y_c_hat, y_c, w)
    if w.lambda3 == 0:
        assert grads[2] is None
        grads, expected_grads = grads[:2], expected_grads[:2]
    pairs = [(np.float64(getattr(terms, name)), np.float64(getattr(expected_terms, name)))
             for name in ("mae_probability", "mae_code")]
    for got, expected in pairs + list(zip(grads, expected_grads)):
        assert got.tobytes() == expected.tobytes()


class TestSignPathSpecialValues:
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("lambda3", [0.0, 250.0])
    def test_special_values_match_the_dense_reference(self, k, lambda3):
        # copysign gives +-c where sign gives 0 (the zeros) or NaN, so the
        # label path mends those elements; its gradients and MAE sums still
        # equal the dense reference's bit for bit.
        rng = np.random.default_rng(80 + k)
        case = _special_case(rng, k)
        y_hat, y_c_hat = case[3], case[5]
        for z_hat in (y_hat, y_c_hat):
            assert np.isnan(z_hat).any() and np.isinf(z_hat).any()
            assert (np.signbit(z_hat) & (z_hat == 0)).any()
        assert ((y_c_hat - case[6]) == 0).any()
        _assert_label_path_matches_dense(*case, LossWeights(lambda3=lambda3))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k=st.sampled_from([1, 2, 3]),
        lambda3=st.sampled_from([0.0, 250.0]),
    )
    def test_drawn_maps_match_the_dense_reference(self, data, k, lambda3):
        n = 2**k
        labels = data.draw(hnp.arrays(np.int64, (2, 3), elements=st.integers(0, n - 1)))
        values = st.floats(allow_subnormal=True) | st.sampled_from(list(_SPECIAL))
        y_hat = data.draw(hnp.arrays(np.float64, (2, 3, n), elements=values))
        y_c_hat = data.draw(hnp.arrays(np.float64, (2, 3, n), elements=values | st.sampled_from([-1.0, 1.0])))
        cb = sylvester(k)
        y = np.eye(n)[labels]
        y_c = cb.matrix[labels].astype(np.float64)
        alpha = np.full((2, 1, 1, 1), 0.5)
        _assert_label_path_matches_dense(
            cb, labels, alpha, y_hat, y, y_c_hat, y_c, LossWeights(lambda3=lambda3)
        )


def _batch_of_three(head):
    """The loss inputs of a batch of 3 as a training step makes them, with
    clamped and saturated entries added, and the batch's label maps."""
    gen_cfg = GeneratorConfig(depth=2, base_channels=4, code_bits=2, head=head)
    gen = build_generator(gen_cfg, seed=70)
    disc = build_discriminator(
        DiscriminatorConfig(layers=2, base_channels=4),
        input_channels=gen_cfg.input_channels + gen_cfg.output_channels,
        seed=71,
    )
    samples = gen_synthetic(seed=72, count=3, size=16, num_classes=4)
    labels = np.stack([s.labels.labels for s in samples])
    x = np.stack([s.image for s in samples])
    y = one_hot(labels, 4)
    y_c = sylvester(2).matrix[labels].astype(np.float64)
    y_hat, y_c_hat = (node.value for node in gen.forward(x))
    a_real = disc.forward(x, y).value
    a_fake = disc.forward(x, y_hat).value
    a_real[0, 0, 0, 0], a_fake[1, 0, 0, 0], a_fake[2, 1, 1, 0] = 1.0, 1.0, 0.0
    y_hat[0, 0, 0] = 0.0
    y_hat[2, 3, 3] = y[2, 3, 3]
    return a_real, a_fake, y_hat, y, y_c_hat, y_c, labels


def _chunk_slices(sizes):
    bounds = np.cumsum((0,) + sizes)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class TestChunkSums:
    @pytest.mark.parametrize("head", ["hadamard", "one_hot"])
    @pytest.mark.parametrize("sizes", [(3,), (2, 1), (1, 1, 1)])
    def test_discriminator_chunks_combine_to_the_batch_loss(self, head, sizes):
        a_real, a_fake = _batch_of_three(head)[:2]
        counts = (a_real.size, a_fake.size)
        whole = discriminator_loss_grads(a_real, a_fake)
        chunk_sums = []
        for part in _chunk_slices(sizes):
            sums, grads = discriminator_loss_sums(a_real[part], a_fake[part], counts)
            chunk_sums.append(sums)
            for got, expected in zip(grads, whole):
                assert got.tobytes() == expected[part].tobytes()
        assert math.isclose(
            discriminator_loss_from_sums(chunk_sums, counts),
            discriminator_loss(a_real, a_fake),
            rel_tol=1e-15,
        )

    @pytest.mark.parametrize("head", ["hadamard", "one_hot"])
    @pytest.mark.parametrize("lambda3", [0.0, 250.0])
    @pytest.mark.parametrize("sizes", [(3,), (2, 1), (1, 1, 1)])
    def test_generator_chunks_combine_to_the_batch_loss(self, head, lambda3, sizes):
        # The label path's chunks, against the dense loss of the batch:
        # equal gradients, and sums that differ from the dense terms only
        # in rounding. At lambda3 = 0 there is no code-map gradient.
        a_fake, y_hat, y, y_c_hat, y_c, labels = _batch_of_three(head)[1:]
        w = LossWeights(lambda3=lambda3)
        counts = (a_fake.size, y.size, y_c.size)
        total, terms = generator_loss(a_fake, y_hat, y, y_c_hat, y_c, w)
        whole = generator_loss_grads(a_fake, y_hat, y, y_c_hat, y_c, w)
        chunk_sums = []
        for part in _chunk_slices(sizes):
            sums, grads = generator_loss_sums(
                a_fake[part], y_hat[part], labels[part], y_c_hat[part], sylvester(2), counts, w
            )
            chunk_sums.append(sums)
            assert (grads[2] is None) == (lambda3 == 0.0)
            for got, expected in zip(grads, whole):
                if got is not None:
                    assert got.tobytes() == expected[part].tobytes()
        chunked_total, chunked_terms = generator_loss_from_sums(chunk_sums, counts, w)
        assert math.isclose(chunked_total, total, rel_tol=1e-15)
        for name in ("adversarial", "cross_entropy", "mae_probability", "mae_code"):
            assert math.isclose(
                getattr(chunked_terms, name), getattr(terms, name), rel_tol=1e-15
            ), name
