import numpy as np
import pytest

from hadaseg.codes import sylvester
from hadaseg.errors import ShapeError
from hadaseg.netkit import autodiff as ad

from helpers import rel_error


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


def _gradcheck_op(build, inputs, seed=0, tol=1e-5, step=1e-5):
    """Check analytic input gradients of an op against finite differences.

    ``build`` maps a list of leaf Nodes to the output Node; the objective is
    a fixed random projection of the output.
    """
    rng = np.random.default_rng(seed)
    leaves = [ad.constant(v) for v in inputs]
    out = build(leaves)
    projection = rng.standard_normal(out.value.shape)
    ad.backward([(out, projection)])
    analytic = [leaf.grad.copy() for leaf in leaves]

    for index, base in enumerate(inputs):
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
        ad.backward([(z, np.ones(2)), (y, np.full(2, 10.0))])
        assert np.allclose(y.grad, [11.0, 11.0])
        assert np.allclose(x.grad, [11.0, 11.0])

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
