import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaseg.codes import sylvester
from hadaseg.errors import ShapeError
from hadaseg.netkit import autodiff as ad
from hadaseg.netkit.models import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
)

from helpers import reachable_nodes, rel_error


# The edge values every draw includes: signed zeros, subnormals and values
# near the overflow range, then 12 arbitrary finite floats.
_KINK_EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.0, -1.0, 1e-300, -1e-300]
)
_kink_inputs = hnp.arrays(
    np.float64, 12, elements=st.floats(allow_nan=False, allow_infinity=False)
).map(lambda tail: np.concatenate([_KINK_EDGES, tail]))


def _conv_oracle(x, w, b, stride):
    """Direct nested-loop convolution with same padding."""
    batch, height, width, cin = x.shape
    k, _, _, cout = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out_h = (height + 2 * pad - k) // stride + 1
    out_w = (width + 2 * pad - k) // stride + 1
    out = np.zeros((batch, out_h, out_w, cout))
    for bi in range(batch):
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[bi, i * stride : i * stride + k, j * stride : j * stride + k]
                for co in range(cout):
                    out[bi, i, j, co] = (patch * w[..., co]).sum() + b[co]
    return out


def _gradcheck_op(build, inputs, seed=0, tol=1e-5, step=1e-5, raw=()):
    """Check analytic input gradients of an op against finite differences.

    ``build`` maps a list of leaf Nodes to the output Node; the objective is
    a fixed random projection of the output. Inputs whose indices are in
    ``raw`` enter through ``as_node``: they must get no gradient, and the
    others are checked.
    """
    rng = np.random.default_rng(seed)
    leaves = [
        ad.as_node(v) if index in raw else ad.constant(v) for index, v in enumerate(inputs)
    ]
    out = build(leaves)
    projection = rng.standard_normal(out.value.shape)
    ad.backward([(out, projection)])
    analytic = [None if leaf.grad is None else leaf.grad.copy() for leaf in leaves]

    for index, base in enumerate(inputs):
        if index in raw:
            assert analytic[index] is None, f"input {index}"
            continue
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for pos in range(flat.size):
            original = flat[pos]
            flat[pos] = original + step
            plus = (build([ad.constant(v) for v in inputs]).value * projection).sum()
            flat[pos] = original - step
            minus = (build([ad.constant(v) for v in inputs]).value * projection).sum()
            flat[pos] = original
            num_flat[pos] = (plus - minus) / (2 * step)
        assert rel_error(analytic[index], numeric) < tol, f"input {index}"


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5, 3))
        w = np.zeros((1, 1, 3, 3))
        for c in range(3):
            w[0, 0, c, c] = 1.0
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(np.zeros(3)))
        assert np.allclose(out.value, x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracle(self, stride):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 6, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b), stride=stride)
        assert np.allclose(out.value, _conv_oracle(x, w, b, stride), atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 4, 3))
        w = rng.standard_normal((3, 3, 3, 2))
        b = rng.standard_normal(2)
        _gradcheck_op(
            lambda leaves: ad.conv2d(leaves[0], leaves[1], leaves[2], stride=stride),
            [x, w, b],
            seed=3,
            tol=1e-4,
        )

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gradients_by_kernel_size(self, k, stride):
        # Non-square, odd width, Cin != Cout: the transposed-convolution
        # input gradient (stride 1) and the scatter (stride 2) must both
        # get the borders and the channel swap right.
        rng = np.random.default_rng(20 + k)
        x = rng.standard_normal((2, 4, 7, 3))
        w = rng.standard_normal((k, k, 3, 2))
        b = rng.standard_normal(2)
        _gradcheck_op(
            lambda leaves: ad.conv2d(leaves[0], leaves[1], leaves[2], stride=stride),
            [x, w, b],
            seed=k + stride,
            tol=1e-4,
        )

    @pytest.mark.parametrize("stride", [1, 2])
    def test_input_gradient_is_adjoint(self, stride):
        # With zero bias conv2d is linear in x, so its input gradient is the
        # adjoint map: <conv(x), g> == <x, dx> up to rounding. Channel counts
        # are those of the generator's dec0 layer.
        rng = np.random.default_rng(30)
        x = rng.standard_normal((1, 12, 10, 19))
        w = rng.standard_normal((3, 3, 19, 16))
        node = ad.constant(x)
        out = ad.conv2d(node, ad.constant(w), ad.constant(np.zeros(16)), stride=stride)
        g = rng.standard_normal(out.value.shape)
        ad.backward([(out, g)])
        assert np.isclose((out.value * g).sum(), (x * node.grad).sum(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_raw_input_gets_no_gradient(self, stride):
        # An as_node input needs no gradient, so none is computed or stored;
        # the weight and bias gradients are those of a constant input.
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 6, 5, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        g = rng.standard_normal((2, 6 // stride, -(-5 // stride), 4))
        grads = {}
        for wrap in (ad.as_node, ad.constant):
            xn, wn, bn = wrap(x), ad.constant(w), ad.constant(b)
            ad.backward([(ad.conv2d(xn, wn, bn, stride=stride), g)])
            grads[wrap] = (xn.grad, wn.grad, bn.grad)
        assert grads[ad.as_node][0] is None
        assert grads[ad.constant][0] is not None
        for raw, const in zip(grads[ad.as_node][1:], grads[ad.constant][1:]):
            np.testing.assert_allclose(raw, const, rtol=1e-12, atol=0)

    def test_shape_validation(self):
        x = ad.constant(np.zeros((1, 4, 4, 3)))
        with pytest.raises(ShapeError):
            ad.conv2d(x, ad.constant(np.zeros((2, 2, 3, 4))), ad.constant(np.zeros(4)))
        with pytest.raises(ShapeError):
            ad.conv2d(x, ad.constant(np.zeros((3, 3, 2, 4))), ad.constant(np.zeros(4)))
        with pytest.raises(ShapeError):
            ad.conv2d(x, ad.constant(np.zeros((3, 3, 3, 4))), ad.constant(np.zeros(5)))
        with pytest.raises(ShapeError):
            ad.conv2d(
                x, ad.constant(np.zeros((3, 3, 3, 4))), ad.constant(np.zeros(4)), stride=3
            )


class TestElementwiseOps:
    def test_leaky_relu_values(self):
        x = ad.constant(np.array([[-2.0, 0.5]]))
        assert np.allclose(ad.leaky_relu(x).value, [[-0.4, 0.5]])

    def test_relu_values(self):
        x = ad.constant(np.array([[-2.0, 0.5]]))
        assert np.allclose(ad.relu(x).value, [[0.0, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(
        x=_kink_inputs,
        g=hnp.arrays(np.float64, 24, elements=st.floats(-1e3, 1e3)),
    )
    def test_relu_family_matches_the_masked_forms(self, x, g):
        # Bitwise: the forward and backward of leaky_relu and relu equal
        # the np.where expressions they replace, signed zeros included.
        def bits(a):
            return np.asarray(a, dtype=np.float64).view(np.int64)

        slope = ad.LEAKY_SLOPE
        for op, forward, factor in (
            (
                ad.leaky_relu,
                np.where(x > 0, x, slope * x),
                np.where(x > 0, 1.0, slope),
            ),
            (ad.relu, np.where(x > 0, x, 0.0), x > 0),
        ):
            leaf = ad.constant(x)
            out = op(leaf)
            ad.backward([(out, g)])
            assert np.array_equal(bits(out.value), bits(forward))
            assert np.array_equal(bits(leaf.grad), bits(g * factor))

    def test_relu_propagates_nan(self):
        # A NaN input used to come out as 0, hiding divergence from the
        # training loop's finite checks.
        out = ad.relu(ad.constant(np.array([np.nan, -1.0, 2.0]))).value
        assert np.isnan(out[0])
        assert np.array_equal(out[1:], [0.0, 2.0])

    def test_sigmoid_range_and_extremes(self):
        x = ad.constant(np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0]))
        out = ad.sigmoid(x).value
        assert np.all((out >= 0) & (out <= 1))
        assert out[2] == 0.5

    @pytest.mark.parametrize(
        "op",
        [ad.leaky_relu, ad.relu, ad.sigmoid, ad.per_pixel_softmax],
        ids=["leaky_relu", "relu", "sigmoid", "softmax"],
    )
    def test_gradients(self, op):
        rng = np.random.default_rng(4)
        # Kink-free inputs: keep magnitudes away from 0 for the relu family.
        x = rng.standard_normal((2, 4, 4, 3))
        x += np.sign(x) * 0.05
        _gradcheck_op(lambda leaves: op(leaves[0]), [x], seed=5, tol=1e-4)


class TestUpsampleAndConcat:
    def test_upsample_values(self):
        x = ad.constant(np.arange(4.0).reshape(1, 2, 2, 1))
        out = ad.nearest_upsample_2x(x).value
        assert np.array_equal(
            out[0, :, :, 0],
            [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
        )

    def test_upsample_gradient(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 2))
        _gradcheck_op(lambda leaves: ad.nearest_upsample_2x(leaves[0]), [x], seed=7, tol=1e-4)

    def test_concat_values_and_split(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1, 2, 2, 3))
        b = rng.standard_normal((1, 2, 2, 2))
        na, nb = ad.constant(a), ad.constant(b)
        out = ad.channel_concat(na, nb)
        assert out.value.shape == (1, 2, 2, 5)
        grad = rng.standard_normal(out.value.shape)
        ad.backward([(out, grad)])
        # The split must be exact: pieces reassemble to the incoming gradient.
        assert np.array_equal(na.grad, grad[..., :3])
        assert np.array_equal(nb.grad, grad[..., 3:])
        assert np.isclose(
            np.linalg.norm(grad) ** 2,
            np.linalg.norm(na.grad) ** 2 + np.linalg.norm(nb.grad) ** 2,
        )

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.channel_concat(
                ad.constant(np.zeros((1, 2, 2, 3))), ad.constant(np.zeros((1, 3, 2, 3)))
            )


def _composed_decoder_stage(x, skip, w, b):
    return ad.conv2d(ad.channel_concat(ad.nearest_upsample_2x(x), skip), w, b)


class TestUpsampleConcatConv2d:
    @staticmethod
    def _inputs(rng, batch, height, width, cup, cskip, cout):
        return [
            rng.standard_normal((batch, height, width, cup)),
            rng.standard_normal((batch, 2 * height, 2 * width, cskip)),
            rng.standard_normal((3, 3, cup + cskip, cout)),
            rng.standard_normal(cout),
        ]

    @pytest.mark.parametrize("raw", [(), (1,)], ids=["skip_needs_grad", "raw_skip"])
    def test_gradients_odd_channels(self, raw):
        # Odd, unequal channel counts and a non-square input, so every tap
        # of the sub-pixel map and both borders are exercised.
        inputs = self._inputs(np.random.default_rng(50), 1, 3, 2, 5, 3, 7)
        _gradcheck_op(
            lambda leaves: ad.upsample_concat_conv2d(*leaves), inputs, seed=51, tol=1e-4, raw=raw
        )

    def test_input_gradient_is_adjoint(self):
        # With zero bias the op is linear in (x, skip), so its input
        # gradients are the adjoint map: <op(x, skip), g> == <x, dx> + <skip, dskip>.
        rng = np.random.default_rng(52)
        x, skip, w, _ = self._inputs(rng, 1, 6, 5, 16, 3, 16)
        xn, sn = ad.constant(x), ad.constant(skip)
        out = ad.upsample_concat_conv2d(xn, sn, ad.constant(w), ad.constant(np.zeros(16)))
        g = rng.standard_normal(out.value.shape)
        ad.backward([(out, g)])
        inner = (x * xn.grad).sum() + (skip * sn.grad).sum()
        assert np.isclose((out.value * g).sum(), inner, rtol=1e-12, atol=0)

    def _assert_matches_composed_path(self, height, width, cup, cskip, cout):
        # Values and every gradient equal those of upsample -> concat ->
        # conv2d, relative to each array's largest entry (the sums are
        # reassociated, so entries near zero differ by more than 1e-12 of
        # themselves).
        rng = np.random.default_rng(53)
        inputs = self._inputs(rng, 2, height, width, cup, cskip, cout)
        g = rng.standard_normal((2, 2 * height, 2 * width, cout))
        results = []
        for op in (_composed_decoder_stage, ad.upsample_concat_conv2d):
            leaves = [ad.constant(v) for v in inputs]
            out = op(*leaves)
            ad.backward([(out, g)])
            results.append([out.value] + [leaf.grad for leaf in leaves])
        for name, composed, fused in zip(["out", "x", "skip", "w", "b"], *results):
            assert rel_error(fused, composed, floor=0.0) < 1e-12, name

    def test_matches_composed_path(self):
        # dec0's channels: 16 upsampled + 3 skip -> 16.
        self._assert_matches_composed_path(8, 8, 16, 3, 16)

    # dec1's (32 + 16 -> 16) and dec2's (64 + 32 -> 32) channels.
    @pytest.mark.parametrize("cup, cskip, cout", [(32, 16, 16), (64, 32, 32)], ids=["dec1", "dec2"])
    def test_matches_composed_path_non_square(self, cup, cskip, cout):
        self._assert_matches_composed_path(5, 3, cup, cskip, cout)

    def test_input_gradients_ignore_the_other_inputs_wrapping(self):
        # Each input's gradient comes from its own product, so it is the same
        # bytes whether or not the other input needs a gradient; a raw input
        # gets none.
        inputs = self._inputs(np.random.default_rng(54), 2, 5, 3, 16, 3, 16)
        g = np.random.default_rng(55).standard_normal((2, 10, 6, 16))

        def grads(x_wrap, skip_wrap):
            x, skip = x_wrap(inputs[0]), skip_wrap(inputs[1])
            w, b = ad.constant(inputs[2]), ad.constant(inputs[3])
            ad.backward([(ad.upsample_concat_conv2d(x, skip, w, b), g)])
            return x.grad, skip.grad

        dx_both, dskip_both = grads(ad.constant, ad.constant)
        dx_alone, dskip_none = grads(ad.constant, ad.as_node)
        dx_none, dskip_alone = grads(ad.as_node, ad.constant)
        assert dskip_none is None and dx_none is None
        assert dx_both.tobytes() == dx_alone.tobytes()
        assert dskip_both.tobytes() == dskip_alone.tobytes()

    def test_shape_validation(self):
        x = ad.constant(np.zeros((1, 2, 3, 4)))
        skip = ad.constant(np.zeros((1, 4, 6, 2)))
        w, b = ad.constant(np.zeros((3, 3, 6, 5))), ad.constant(np.zeros(5))
        assert ad.upsample_concat_conv2d(x, skip, w, b).shape == (1, 4, 6, 5)
        with pytest.raises(ShapeError):
            ad.upsample_concat_conv2d(x, ad.constant(np.zeros((1, 4, 4, 2))), w, b)
        with pytest.raises(ShapeError):
            ad.upsample_concat_conv2d(x, skip, ad.constant(np.zeros((3, 3, 5, 5))), b)
        with pytest.raises(ShapeError):
            ad.upsample_concat_conv2d(x, skip, ad.constant(np.zeros((5, 5, 6, 5))), b)
        with pytest.raises(ShapeError):
            ad.upsample_concat_conv2d(x, skip, w, ad.constant(np.zeros(4)))
        with pytest.raises(ShapeError):
            ad.upsample_concat_conv2d(ad.constant(np.zeros((2, 3, 4))), skip, w, b)


class TestSoftmaxAndHead:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        out = ad.per_pixel_softmax(ad.constant(rng.standard_normal((2, 3, 3, 5))))
        assert np.allclose(out.value.sum(axis=-1), 1.0)

    def test_head_matches_layer_functions(self):
        rng = np.random.default_rng(10)
        cb = sylvester(2)
        x = rng.standard_normal((2, 4, 4, 4))
        from hadaseg.layer import hadamard_backward, hadamard_forward

        node = ad.constant(x)
        out = ad.hadamard_head(node, cb)
        act = hadamard_forward(cb, x)
        assert np.array_equal(out.value, act.output)
        grad = rng.standard_normal(out.value.shape)
        ad.backward([(out, grad)])
        assert np.allclose(node.grad, hadamard_backward(act, grad), atol=1e-15)

    def test_head_gradient(self):
        rng = np.random.default_rng(11)
        cb = sylvester(2)
        x = rng.standard_normal((2, 4, 4, 4))
        _gradcheck_op(lambda leaves: ad.hadamard_head(leaves[0], cb), [x], seed=12, tol=1e-4)


class TestBackward:
    def test_fanout_accumulates(self):
        x = ad.constant(np.array([1.0, -2.0]))
        y = ad.leaky_relu(x)
        z = ad.channel_concat(y, y)
        ad.backward([(z, np.ones(4))])
        # Each use of y contributes once: dz/dx = 2 * leaky'(x).
        assert np.allclose(x.grad, [2.0, 0.4])

    def test_interior_seed_adds_to_flow_through(self):
        x = ad.constant(np.array([0.5, 1.5]))
        y = ad.relu(x)
        z = ad.relu(y)
        seed_z, seed_y = np.ones(2), np.full(2, 10.0)
        ad.backward([(z, seed_z), (y, seed_y)])
        assert np.allclose(y.grad, [11.0, 11.0])
        assert np.allclose(x.grad, [11.0, 11.0])
        # The seeds are copied, not stored: accumulating into y.grad left
        # the caller's arrays unchanged.
        assert np.array_equal(seed_z, [1.0, 1.0])
        assert np.array_equal(seed_y, [10.0, 10.0])
        assert not np.shares_memory(z.grad, seed_z)
        assert not np.shares_memory(y.grad, seed_y)

    def test_seed_shape_checked(self):
        x = ad.constant(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward([(x, np.zeros(3))])

    def test_fresh_pass_resets_gradients(self):
        x = ad.constant(np.array([1.0, 2.0]))
        y = ad.relu(x)
        ad.backward([(y, np.ones(2))])
        first = x.grad.copy()
        ad.backward([(y, np.ones(2))])
        assert np.array_equal(x.grad, first)


def _tiny_models():
    gen = Generator(GeneratorConfig(depth=2, base_channels=4, code_bits=2), seed=1)
    disc = Discriminator(DiscriminatorConfig(layers=2, base_channels=4), input_channels=7, seed=2)
    return gen, disc


class TestGradientNeeds:
    def test_leaf_and_op_flags(self):
        raw = ad.as_node(np.ones((1, 2, 2, 1)))
        const = ad.constant(np.ones((1, 2, 2, 1)))
        assert not raw.needs_grad and const.needs_grad
        assert ad.as_node(const) is const
        assert not ad.relu(raw).needs_grad
        assert ad.channel_concat(raw, const).needs_grad

    def test_backward_skips_nodes_that_need_no_gradient(self):
        raw = ad.as_node(np.array([[1.0, -1.0]]))
        const = ad.constant(np.array([[2.0, -3.0]]))
        inner = ad.relu(raw)
        out = ad.channel_concat(inner, const)
        ad.backward([(out, np.arange(4.0).reshape(1, 4))])
        assert raw.grad is None and inner.grad is None
        assert np.array_equal(const.grad, [[2.0, 3.0]])

    def test_no_two_gradients_share_memory(self):
        # One generator and one discriminator backward, as in a training
        # step: every stored gradient owns its buffer.
        gen, disc = _tiny_models()
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 16, 16, 3))
        y_hat, y_c = gen.forward(x)
        alpha = disc.forward(ad.channel_concat(ad.as_node(x), y_hat))
        seeds = [
            (alpha, rng.standard_normal(alpha.shape)),
            (y_hat, rng.standard_normal(y_hat.shape)),
            (y_c, rng.standard_normal(y_c.shape)),
        ]
        ad.backward(seeds)
        d_seed = rng.standard_normal(alpha.shape)
        alpha_real = disc.forward(np.concatenate((x, y_hat.value), axis=-1))
        ad.backward([(alpha_real, d_seed)])
        arrays = [seed for _, seed in seeds] + [d_seed]
        arrays += [
            node.grad
            for node in reachable_nodes([alpha, y_c, alpha_real])
            if node.grad is not None
        ]
        assert len(arrays) > 40
        for i, first in enumerate(arrays):
            for second in arrays[i + 1 :]:
                assert not np.shares_memory(first, second)

    def test_frozen_generator_builds_no_tape(self):
        # With its Parameters' flags cleared, a forward on a raw input keeps
        # no backprop closure anywhere (so no im2col buffer outlives it);
        # setting the flags again restores the tape.
        gen, _ = _tiny_models()
        x = np.random.default_rng(43).standard_normal((2, 16, 16, 3))
        ad.set_needs_grad(gen.parameters.values(), False)
        frozen = reachable_nodes(gen.forward(x))
        assert len(frozen) > 20
        assert all(node._backprop is None and not node.needs_grad for node in frozen)
        ad.set_needs_grad(gen.parameters.values(), True)
        y_hat, _ = gen.forward(x)
        assert y_hat._backprop is not None

    def test_frozen_parameters_get_no_gradient(self):
        # A frozen network between a trainable input and the loss passes the
        # input gradient through but computes none for its own Parameters.
        gen, disc = _tiny_models()
        rng = np.random.default_rng(44)
        x = rng.standard_normal((2, 16, 16, 3))
        y_hat, _ = gen.forward(x)
        ad.set_needs_grad(disc.parameters.values(), False)
        alpha = disc.forward(ad.channel_concat(ad.as_node(x), y_hat))
        ad.backward([(alpha, rng.standard_normal(alpha.shape))])
        assert all(p.grad is None for p in disc.parameters.values())
        assert all(p.grad is not None for p in gen.parameters.values())

    def test_generator_parameter_gradients_ignore_input_wrapping(self):
        gen, _ = _tiny_models()
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 16, 16, 3))
        grads = {}
        for wrap in (ad.as_node, ad.constant):
            x_node = wrap(x)
            y_hat, y_c = gen.forward(x_node)
            g = np.random.default_rng(42)
            ad.backward(
                [(y_hat, g.standard_normal(y_hat.shape)), (y_c, g.standard_normal(y_c.shape))]
            )
            assert (x_node.grad is None) == (wrap is ad.as_node)
            grads[wrap] = {name: p.grad.copy() for name, p in gen.parameters.items()}
        for name in gen.parameters:
            assert np.array_equal(grads[ad.as_node][name], grads[ad.constant][name]), name
