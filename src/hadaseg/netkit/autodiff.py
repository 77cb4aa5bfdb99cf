"""Reverse-mode autodiff over a fixed set of dense tensor ops.

Tensors are float64 channels-last numpy arrays. Each operation appends a
node to an implicit tape (the node graph itself); ``backward`` topologically
sorts the ancestors of the seeded outputs and walks them in reverse,
accumulating gradients into every node it visits. Shape problems surface at
graph build time, not inside backward.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..codes import Codebook
from ..errors import ShapeError
from ..layer import hadamard_backward, hadamard_forward


class Node:
    """One tensor on the tape: a value, a gradient slot, and its parents."""

    __slots__ = ("value", "grad", "parents", "_backprop")

    def __init__(self, value, parents=(), backprop=None):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self._backprop = backprop

    @property
    def shape(self):
        return self.value.shape


class Parameter(Node):
    """A named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value)
        self.name = name


def constant(value) -> Node:
    """Wrap an array as a non-trainable leaf."""
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _toposort(roots) -> list[Node]:
    visited: set[int] = set()
    topo: list[Node] = []
    for root in roots:
        if id(root) in visited:
            continue
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return topo


def backward(seeds) -> None:
    """Run reverse-mode accumulation from ``seeds``: (node, gradient) pairs.

    Gradients of every node reachable from the seeds are reset first, so a
    fresh call never mixes with a previous pass. Seeding an interior node
    adds to whatever flows back into it from downstream seeds.
    """
    seeds = list(seeds)
    topo = _toposort([node for node, _ in seeds])
    for node in topo:
        node.grad = np.zeros_like(node.value)
    for node, grad in seeds:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != node.value.shape:
            raise ShapeError(
                f"seed gradient shape {grad.shape} != node shape {node.value.shape}"
            )
        node.grad += grad
    for node in reversed(topo):
        if node._backprop is not None:
            node._backprop(node)


def _check_image(x: Node, op: str) -> None:
    if x.value.ndim != 4:
        raise ShapeError(f"{op} expects [B, H, W, C] input, got shape {x.value.shape}")


def _im2col(padded: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Column matrix of every k x k window of ``padded`` taken at ``stride``.

    Returns the [B * Ho * Wo, k * k * C] matrix, columns ordered (kh, kw, C)
    to match the kernel layout, and the output height and width.
    """
    batch, channels = padded.shape[0], padded.shape[3]
    windows = sliding_window_view(padded, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    out_h, out_w = windows.shape[1], windows.shape[2]
    # windows is [B, Ho, Wo, C, k, k].
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        batch * out_h * out_w, k * k * channels
    )
    return cols, out_h, out_w


def _pad_same(v: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad both spatial axes; 1x1 kernels (pad 0) get ``v`` uncopied."""
    if pad == 0:
        return v
    return np.pad(v, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def conv2d(x: Node, w: Node, b: Node, stride: int = 1) -> Node:
    """Same-padded 2-D convolution, stride 1 or 2, odd square kernels.

    Layout: input [B, H, W, Cin], kernel [kh, kw, Cin, Cout], bias [Cout].
    Implemented as im2col + one matmul; the column matrix is cached for the
    weight gradient. At stride 1 the input gradient is the same-padded
    convolution of the output gradient with the flipped kernel, its channel
    axes swapped: one more im2col + matmul. At stride 2 the column gradient
    is scattered back tap by tap.
    """
    _check_image(x, "conv2d")
    xv, wv, bv = x.value, w.value, b.value
    if wv.ndim != 4 or wv.shape[0] != wv.shape[1] or wv.shape[0] % 2 == 0:
        raise ShapeError(f"kernel must be [k, k, Cin, Cout] with odd k, got {wv.shape}")
    if wv.shape[2] != xv.shape[3]:
        raise ShapeError(
            f"kernel expects {wv.shape[2]} input channels, input has {xv.shape[3]}"
        )
    if bv.shape != (wv.shape[3],):
        raise ShapeError(f"bias shape {bv.shape} != ({wv.shape[3]},)")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")

    batch, height, width, cin = xv.shape
    k, _, _, cout = wv.shape
    pad = k // 2
    xp = _pad_same(xv, pad)
    cols, out_h, out_w = _im2col(xp, k, stride)
    w_mat = wv.reshape(k * k * cin, cout)
    out = (cols @ w_mat + bv).reshape(batch, out_h, out_w, cout)

    def backprop(node: Node) -> None:
        g = node.grad.reshape(-1, cout)
        b.grad += node.grad.sum(axis=(0, 1, 2))
        w.grad += (cols.T @ g).reshape(wv.shape)
        if stride == 1:
            g_cols, _, _ = _im2col(_pad_same(node.grad, pad), k, 1)
            w_flip = wv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
            x.grad += (g_cols @ w_flip).reshape(xv.shape)
            return
        dcols = (g @ w_mat.T).reshape(batch, out_h, out_w, k, k, cin)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                dxp[
                    :,
                    i : i + stride * out_h : stride,
                    j : j + stride * out_w : stride,
                    :,
                ] += dcols[:, :, :, i, j, :]
        x.grad += dxp[:, pad : pad + height, pad : pad + width, :]

    return Node(out, parents=(x, w, b), backprop=backprop)


def leaky_relu(x: Node, negative_slope: float = 0.2) -> Node:
    xv = x.value
    out = np.where(xv > 0, xv, negative_slope * xv)

    def backprop(node: Node) -> None:
        x.grad += node.grad * np.where(xv > 0, 1.0, negative_slope)

    return Node(out, parents=(x,), backprop=backprop)


def relu(x: Node) -> Node:
    xv = x.value
    out = np.where(xv > 0, xv, 0.0)

    def backprop(node: Node) -> None:
        x.grad += node.grad * (xv > 0)

    return Node(out, parents=(x,), backprop=backprop)


def sigmoid(x: Node) -> Node:
    xv = x.value
    out = np.empty_like(xv)
    positive = xv >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-xv[positive]))
    ex = np.exp(xv[~positive])
    out[~positive] = ex / (1.0 + ex)

    def backprop(node: Node) -> None:
        x.grad += node.grad * out * (1.0 - out)

    return Node(out, parents=(x,), backprop=backprop)


def nearest_upsample_2x(x: Node) -> Node:
    """Double both spatial axes by pixel repetition."""
    _check_image(x, "nearest_upsample_2x")
    xv = x.value
    out = xv.repeat(2, axis=1).repeat(2, axis=2)

    def backprop(node: Node) -> None:
        batch, height, width, channels = xv.shape
        g = node.grad.reshape(batch, height, 2, width, 2, channels)
        x.grad += g.sum(axis=(2, 4))

    return Node(out, parents=(x,), backprop=backprop)


def channel_concat(a: Node, b: Node) -> Node:
    """Concatenate along the channel (last) axis."""
    av, bv = a.value, b.value
    if av.shape[:-1] != bv.shape[:-1]:
        raise ShapeError(
            f"concat inputs differ outside the channel axis: {av.shape} vs {bv.shape}"
        )
    out = np.concatenate((av, bv), axis=-1)
    split = av.shape[-1]

    def backprop(node: Node) -> None:
        a.grad += node.grad[..., :split]
        b.grad += node.grad[..., split:]

    return Node(out, parents=(a, b), backprop=backprop)


def per_pixel_softmax(x: Node) -> Node:
    """Numerically stable softmax over the channel (last) axis."""
    xv = x.value
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backprop(node: Node) -> None:
        g = node.grad
        inner = (out * g).sum(axis=-1, keepdims=True)
        x.grad += out * g - out * inner

    return Node(out, parents=(x,), backprop=backprop)


def hadamard_head(x: Node, cb: Codebook, scale: float = 1.0) -> Node:
    """The parameter-free code-correlation head (see hadaseg.layer)."""
    act = hadamard_forward(cb, x.value, scale=scale)

    def backprop(node: Node) -> None:
        x.grad += hadamard_backward(act, node.grad)

    return Node(act.output, parents=(x,), backprop=backprop)
