import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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

from helpers import channel_concat, nearest_upsample_2x, reachable_nodes, rel_error


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


def _pair_oracle(image, classes, w, b, stride=2):
    """The reference of conv2d over an image and a class map as parts: a
    conv2d over their concatenation, the class map zero-extended to the
    kernel's input channels."""
    missing = w.value.shape[2] - image.value.shape[3] - classes.value.shape[3]
    zeros = ad.as_node(np.zeros(classes.value.shape[:3] + (missing,)))
    concat = channel_concat(image, channel_concat(classes, zeros))
    return ad.conv2d(concat, w, b, stride=stride)


def _pair(image, classes, w, b, stride=2):
    """conv2d over the image's columns and the class map itself, the two
    kinds of part the discriminator's first layer reads in training."""
    return ad.conv2d([ad.conv_columns(image, 3, stride), classes], w, b, stride=stride)


class TestConv2dPair:
    """conv2d over two parts, an image and a class map, as the
    discriminator's first layer runs it."""

    @pytest.mark.parametrize("class_channels", [5, 2], ids=["full", "narrower"])
    def test_matches_conv2d_over_concat(self, class_channels):
        # The kernel reads 3 image and 5 class channels. A class map of 2
        # channels reads as zero-extended to 5, and the weight-gradient
        # rows of the 3 missing channels are exactly 0.
        rng = np.random.default_rng(32)
        image = ad.as_node(rng.standard_normal((2, 8, 6, 3)))
        classes = ad.constant(rng.standard_normal((2, 8, 6, class_channels)))
        w = ad.constant(rng.standard_normal((3, 3, 8, 4)))
        b = ad.constant(rng.standard_normal(4))
        out = _pair(image, classes, w, b)
        expected = _pair_oracle(image, classes, w, b)
        assert out.value.shape == expected.value.shape == (2, 4, 3, 4)
        assert rel_error(out.value, expected.value) < 1e-12
        g = rng.standard_normal(out.value.shape)
        got, want = ad.gradients([(out, g)]), ad.gradients([(expected, g)])
        assert image not in got and image not in want
        for leaf in (classes, w, b):
            assert rel_error(got[leaf], want[leaf]) < 1e-12
        assert not got[w][:, :, 3 + class_channels :].any()

    # At stride 1 a part's input gradient is the flipped-kernel conv over
    # its kernel channels, which for the class map start past 0.
    @pytest.mark.parametrize(
        "wrap, stride",
        [
            pytest.param(ad.as_node, 2, id="raw"),
            pytest.param(ad.constant, 2, id="constant"),
            pytest.param(ad.as_node, 1, id="raw-stride1"),
            pytest.param(ad.constant, 1, id="constant-stride1"),
        ],
    )
    def test_image_gradient_only_when_needed(self, wrap, stride):
        # 3 image and 2 class channels leave the 6-channel kernel's last
        # channel unread.
        rng = np.random.default_rng(33)
        image = wrap(rng.standard_normal((1, 6, 4, 3)))
        classes = ad.as_node(rng.standard_normal((1, 6, 4, 2)))
        w = ad.constant(rng.standard_normal((3, 3, 6, 2)))
        b = ad.constant(rng.standard_normal(2))
        out = _pair(image, classes, w, b, stride)
        g = rng.standard_normal(out.value.shape)
        got = ad.gradients([(out, g)])
        assert classes not in got
        if wrap is ad.as_node:
            assert image not in got
        else:
            want = ad.gradients([(_pair_oracle(image, classes, w, b, stride), g)])
            assert rel_error(got[image], want[image]) < 1e-12

    @pytest.mark.parametrize(
        "class_channels, stride",
        [
            pytest.param(3, 2, id="full"),
            pytest.param(1, 2, id="narrower"),
            pytest.param(3, 1, id="full-stride1"),
            pytest.param(1, 1, id="narrower-stride1"),
        ],
    )
    def test_gradients(self, class_channels, stride):
        rng = np.random.default_rng(34)
        image = rng.standard_normal((2, 4, 5, 2))
        classes = rng.standard_normal((2, 4, 5, class_channels))
        w = rng.standard_normal((3, 3, 5, 2))
        b = rng.standard_normal(2)
        _gradcheck_op(
            lambda leaves: _pair(*leaves, stride), [image, classes, w, b], seed=35, tol=1e-4
        )

    def test_shape_validation(self):
        rng = np.random.default_rng(36)
        image = rng.standard_normal((1, 4, 4, 3))
        w = ad.constant(rng.standard_normal((3, 3, 6, 2)))
        b = ad.constant(np.zeros(2))
        for classes in (
            np.zeros((1, 4, 6, 2)),  # another width
            np.zeros((2, 4, 4, 2)),  # another batch
            np.zeros((1, 4, 4, 4)),  # 3 + 4 channels for a 6-channel kernel
        ):
            with pytest.raises(ShapeError):
                _pair(image, classes, w, b)
        classes = np.zeros((1, 4, 4, 2))
        with pytest.raises(ShapeError):  # another stride
            ad.conv2d(
                [ad.conv_columns(image, 3, 2), ad.conv_columns(classes, 3, 1)], w, b, stride=2
            )
        with pytest.raises(ShapeError):  # a kernel of another size
            _pair(image, classes, ad.constant(np.zeros((1, 1, 6, 2))), b)
        with pytest.raises(ShapeError):  # an even window
            even = ad.constant(np.zeros((2, 2, 3, 2)))
            ad.conv2d([ad.conv_columns(image, 2, 1)], even, b, stride=1)
        with pytest.raises(ShapeError):
            _pair(image, classes, w, ad.constant(np.zeros(3)))
        with pytest.raises(ShapeError):
            _pair(image[0], classes, w, b)
        with pytest.raises(ShapeError):  # a raw part that is no image
            _pair(image, classes[0], w, b)
        # Columns pointed at a node of another shape.
        columns = ad.conv_columns(classes, 3, 2)
        moved = replace(columns, source=ad.as_node(np.zeros((1, 4, 4, 1))))
        with pytest.raises(ShapeError):
            ad.conv2d([ad.conv_columns(image, 3, 2), moved], w, b, stride=2)
        # Only a list may leave kernel channels unread: a single map
        # narrower than the kernel is refused.
        with pytest.raises(ShapeError):
            ad.conv2d(ad.as_node(image), w, b, stride=2)


class TestPadSame:
    @pytest.mark.parametrize(
        "shape", [(2, 64, 64, 3), (2, 32, 32, 16), (1, 3, 5, 2)]
    )
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_equals_np_pad_bitwise(self, shape, pad):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(shape)
        v.reshape(-1)[:2] = -0.0, np.nan
        expected = np.pad(v, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        assert ad._pad_same(v, pad).tobytes() == expected.tobytes()


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
        out = nearest_upsample_2x(x).value
        assert np.array_equal(
            out[0, :, :, 0],
            [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
        )

    def test_upsample_gradient(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 2))
        _gradcheck_op(lambda leaves: nearest_upsample_2x(leaves[0]), [x], seed=7, tol=1e-4)

    def test_concat_values_and_split(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1, 2, 2, 3))
        b = rng.standard_normal((1, 2, 2, 2))
        na, nb = ad.constant(a), ad.constant(b)
        out = channel_concat(na, nb)
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
            channel_concat(
                ad.constant(np.zeros((1, 2, 2, 3))), ad.constant(np.zeros((1, 3, 2, 3)))
            )


def _composed_decoder_stage(x, skip, w, b):
    return ad.conv2d(channel_concat(nearest_upsample_2x(x), skip), w, b)


def _decoder_stage(x, skip, w, b, stride=1):
    return ad.conv2d([ad.Upsampled(x), skip], w, b, stride=stride)


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
            lambda leaves: _decoder_stage(*leaves), inputs, seed=51, tol=1e-4, raw=raw
        )

    def test_input_gradient_is_adjoint(self):
        # With zero bias the op is linear in (x, skip), so its input
        # gradients are the adjoint map: <op(x, skip), g> == <x, dx> + <skip, dskip>.
        rng = np.random.default_rng(52)
        x, skip, w, _ = self._inputs(rng, 1, 6, 5, 16, 3, 16)
        xn, sn = ad.constant(x), ad.constant(skip)
        out = _decoder_stage(xn, sn, ad.constant(w), ad.constant(np.zeros(16)))
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
        for op in (_composed_decoder_stage, _decoder_stage):
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
            ad.backward([(_decoder_stage(x, skip, w, b), g)])
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
        assert _decoder_stage(x, skip, w, b).shape == (1, 4, 6, 5)
        with pytest.raises(ShapeError):
            _decoder_stage(x, ad.constant(np.zeros((1, 4, 4, 2))), w, b)
        with pytest.raises(ShapeError):
            _decoder_stage(x, skip, ad.constant(np.zeros((3, 3, 5, 5))), b)
        with pytest.raises(ShapeError):
            _decoder_stage(x, skip, ad.constant(np.zeros((5, 5, 6, 5))), b)
        with pytest.raises(ShapeError):
            _decoder_stage(x, skip, w, ad.constant(np.zeros(4)))
        with pytest.raises(ShapeError):
            _decoder_stage(ad.constant(np.zeros((2, 3, 4))), skip, w, b)
        # An Upsampled part alone, so no other part's shape is at fault: it
        # takes only a 3x3 kernel at stride 1, and after a 4x4 part its 2x
        # size, 4x6, differs.
        with pytest.raises(ShapeError, match="5x5"):
            ad.conv2d([ad.Upsampled(x)], ad.constant(np.zeros((5, 5, 4, 5))), b)
        with pytest.raises(ShapeError, match="stride 2"):
            ad.conv2d([ad.Upsampled(x)], ad.constant(np.zeros((3, 3, 4, 5))), b, stride=2)
        with pytest.raises(ShapeError, match=r"\(1, 4, 4, 2\).* vs \(1, 4, 6, 4\)"):
            ad.conv2d([ad.constant(np.zeros((1, 4, 4, 2))), ad.Upsampled(x)], w, b)


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
        z = channel_concat(y, y)
        ad.backward([(z, np.ones(4))])
        # Each use of y contributes once: dz/dx = 2 * leaky'(x).
        assert np.allclose(x.grad, [2.0, 0.4])

    def test_interior_seed_adds_to_flow_through(self):
        x = ad.constant(np.array([0.5, 1.5]))
        y = ad.relu(x)
        z = ad.relu(y)
        seed_z, seed_y = np.ones(2), np.full(2, 10.0)
        ad.backward([(z, seed_z), (y, seed_y)])
        # y's gradient is 1 from z plus its seed of 10, and x gets all of it.
        assert np.allclose(x.grad, [11.0, 11.0])
        # The seeds are copied, not stored: adding z's contribution to y's
        # gradient left the caller's arrays unchanged.
        assert np.array_equal(seed_z, [1.0, 1.0])
        assert np.array_equal(seed_y, [10.0, 10.0])
        assert not np.shares_memory(x.grad, seed_z)
        assert not np.shares_memory(x.grad, seed_y)
        assert y.grad is None and z.grad is None

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

    def test_interior_gradient_freed_once_read(self):
        # On x -> first -> middle -> last, the gradient middle's backprop
        # receives is freed before first's backprop runs, and no interior
        # node keeps a .grad after the walk.
        x = ad.constant(np.array([0.5, -1.0, 2.0]))
        first = ad.relu(x)
        middle = ad.relu(first)
        last = ad.relu(middle)
        received, freed = [], []
        middle_backprop, first_backprop = middle._backprop, first._backprop

        def record(g):
            received.append(weakref.ref(g))
            return middle_backprop(g)

        def check(g):
            freed.append(received[0]() is None)
            return first_backprop(g)

        middle._backprop, first._backprop = record, check
        ad.backward([(last, np.full(3, 2.0))])
        assert freed == [True]
        assert all(node.grad is None for node in (first, middle, last))
        assert np.array_equal(x.grad, [2.0, 0.0, 2.0])


def _closure_arrays(fn):
    """Every array that the closure of ``fn`` holds, in a cell of its own or
    inside a list, tuple or ``Columns`` part."""
    stack = [cell.cell_contents for cell in fn.__closure__]
    while stack:
        held = stack.pop()
        if isinstance(held, np.ndarray):
            yield held
        elif isinstance(held, (list, tuple)):
            stack.extend(held)
        elif isinstance(held, ad.Columns):
            stack.append(held.matrix)


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
        assert channel_concat(raw, const).needs_grad

    def test_backward_skips_nodes_that_need_no_gradient(self):
        raw = ad.as_node(np.array([[1.0, -1.0]]))
        const = ad.constant(np.array([[2.0, -3.0]]))
        inner = ad.relu(raw)
        out = channel_concat(inner, const)
        ad.backward([(out, np.arange(4.0).reshape(1, 4))])
        assert raw.grad is None and inner.grad is None
        assert np.array_equal(const.grad, [[2.0, 3.0]])

    def test_no_two_gradients_share_memory(self):
        # One generator and one discriminator walk, as in a training step:
        # every leaf gradient owns its buffer, apart from the seeds and
        # from the other walk's gradients.
        gen, disc = _tiny_models()
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 16, 16, 3))
        y_hat, y_c = gen.forward(x)
        alpha = disc.forward(x, y_hat)
        seeds = [
            (alpha, rng.standard_normal(alpha.shape)),
            (y_hat, rng.standard_normal(y_hat.shape)),
            (y_c, rng.standard_normal(y_c.shape)),
        ]
        walks = [ad.gradients(seeds)]
        d_seed = rng.standard_normal(alpha.shape)
        alpha_real = disc.forward(x, y_hat.value)
        walks.append(ad.gradients([(alpha_real, d_seed)]))
        arrays = [seed for _, seed in seeds] + [d_seed]
        arrays += [grad for grads in walks for grad in grads.values() if grad is not None]
        # Both walks reach every discriminator Parameter, the first also
        # every generator Parameter.
        assert len(arrays) == 4 + len(gen.parameters) + 2 * len(disc.parameters)
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
        alpha = disc.forward(x, y_hat)
        ad.backward([(alpha, rng.standard_normal(alpha.shape))])
        assert all(p.grad is None for p in disc.parameters.values())
        assert all(p.grad is not None for p in gen.parameters.values())

    def test_frozen_conv_keeps_no_columns(self):
        # Only the weight gradient reads the im2col matrix, so a conv whose
        # kernel needs no gradient drops it when the node is built; the
        # input gradient is unchanged. At stride 1 the columns are k^2 times
        # the map, so the node keeps none even when the kernel needs a
        # gradient.
        rng = np.random.default_rng(45)
        x = ad.constant(rng.standard_normal((2, 8, 8, 3)))
        w = ad.Parameter("w", rng.standard_normal((3, 3, 3, 4)))
        b = ad.Parameter("b", rng.standard_normal(4))
        for stride in (2, 1):
            size = 8 // stride
            seed = rng.standard_normal((2, size, size, 4))
            input_grads = []
            for frozen in (False, True):
                ad.set_needs_grad([w, b], not frozen)
                out = ad.conv2d(x, w, b, stride=stride)
                column_shape = (2 * size * size, 27)
                kept = any(a.shape == column_shape for a in _closure_arrays(out._backprop))
                assert kept == (stride == 2 and not frozen), (stride, frozen)
                ad.backward([(out, seed)])
                input_grads.append(x.grad)
            assert np.array_equal(input_grads[0], input_grads[1])

    def test_decoder_stage_keeps_no_columns(self):
        # The stage's tape lives through a training step, so its backward
        # rebuilds the up and skip column matrices instead of keeping them,
        # in a container or a Columns part as much as in a cell of its own.
        rng = np.random.default_rng(46)
        x = ad.constant(rng.standard_normal((2, 4, 4, 3)))
        skip = ad.constant(rng.standard_normal((2, 8, 8, 2)))
        w = ad.Parameter("w", rng.standard_normal((3, 3, 5, 4)))
        b = ad.Parameter("b", rng.standard_normal(4))
        out = ad.conv2d([ad.Upsampled(x), skip], w, b)
        held = list(_closure_arrays(out._backprop))
        assert held
        column_shapes = {(2 * 5 * 5, 4 * 3), (2 * 8 * 8, 9 * 2)}
        assert not any(a.shape in column_shapes for a in held)

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


def _discriminator_update_seeds(disc, rng, chunks):
    """The discriminator update of a training step split into ``chunks``:
    per chunk, a real and a fake pass, each seeded with a random gradient."""
    per_chunk = []
    for _ in range(chunks):
        seeds = []
        for _ in range(2):
            pair = rng.standard_normal((1, 16, 16, 7))
            alpha = disc.forward(pair[..., :3], pair[..., 3:])
            seeds.append((alpha, rng.standard_normal(alpha.shape)))
        per_chunk.append(seeds)
    return per_chunk


def _map_on_threads(fn, items):
    """``[fn(item) for item in items]``, the first on the calling thread and
    the others on a pool; every call finishes before this returns or raises,
    and the first item's exception wins."""
    with ThreadPoolExecutor(max(1, len(items) - 1)) as pool:
        futures = [pool.submit(fn, item) for item in items[1:]]
        return [fn(items[0])] + [future.result() for future in futures]


class TestConcurrentBackward:
    def test_gradients_returns_visited_leaves_and_writes_no_leaf_grad(self):
        # Each visited leaf is returned, None where nothing arrived (here,
        # through a node with no backprop). No node's .grad is written.
        x = ad.constant(np.array([1.0, -2.0]))
        cut = ad.constant(np.array([3.0, 4.0]))
        marker = np.zeros(2)
        x.grad = cut.grad = marker
        y = ad.leaky_relu(x)
        z = channel_concat(y, ad.Node(cut.value, parents=(cut,)))
        raw_out = ad.relu(ad.as_node(np.ones(2)))
        grads = ad.gradients([(z, np.ones(4)), (y, np.ones(2)), (raw_out, np.ones(2))])
        assert set(grads) == {x, cut}
        assert np.array_equal(grads[x], [2.0, 0.4])
        assert grads[cut] is None
        assert x.grad is marker and cut.grad is marker
        assert y.grad is None and z.grad is None
        # A seeded leaf gets its seed back as a copy, not as its .grad.
        seed = np.full(2, 5.0)
        leaf_grad = ad.gradients([(cut, seed)])[cut]
        assert np.array_equal(leaf_grad, seed) and not np.shares_memory(leaf_grad, seed)
        assert cut.grad is marker

    def test_two_passes_sum_like_separate_backwards(self):
        # The discriminator update's two passes: one call gives each
        # Parameter the sum of what each pass alone gives it.
        _, disc = _tiny_models()
        (seeds,) = _discriminator_update_seeds(disc, np.random.default_rng(51), chunks=1)
        separate = [ad.gradients([seed]) for seed in seeds]
        both = ad.gradients(seeds)
        for p in disc.parameters.values():
            assert np.array_equal(both[p], separate[0][p] + separate[1][p]), p.name
            assert p.grad is None, p.name

    def test_stress_many_threads_short_switch_interval(self):
        # One call per chunk on concurrent threads, switching as often as
        # the interpreter allows: a leaf update that went to another
        # thread's call would change the bits.
        _, disc = _tiny_models()
        per_chunk = _discriminator_update_seeds(disc, np.random.default_rng(53), chunks=4)
        serial = [ad.gradients(seeds) for seeds in per_chunk]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                concurrent = _map_on_threads(ad.gradients, per_chunk)
                for got, expected in zip(concurrent, serial):
                    assert list(got) == list(expected)
                    for p, grad in expected.items():
                        assert np.array_equal(got[p], grad), p.name
        finally:
            sys.setswitchinterval(interval)
