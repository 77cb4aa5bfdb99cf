"""Reverse-mode autodiff over a fixed set of dense tensor ops.

Tensors are float64 channels-last numpy arrays. Each operation appends a
node to an implicit tape (the node graph itself); ``backward`` topologically
sorts the ancestors of the seeded outputs and walks them in reverse,
accumulating gradients into every node it visits. Shape problems surface at
graph build time, not inside backward.

Every node records at construction whether it needs a gradient. Parameters
and ``constant`` leaves do unless ``set_needs_grad`` cleared their flag (a
frozen network); a raw array that ``as_node`` wraps does not; an op node
does when any of its parents does, and otherwise keeps no backprop, so a
frozen network's forward on a raw input builds no tape. ``backward`` never
visits a node that needs no gradient, so its ``.grad`` stays None, and the
conv ops skip the gradient of any input, weight or bias that needs none. A
node's first gradient contribution is stored as its ``.grad`` and later
ones are added to it; no ``.grad`` shares memory with another node's or
with a caller's seed.

``upsample_concat_conv2d`` is a UNet decoder stage, nearest 2x upsampling,
skip concatenation and a 3x3 conv, computed as one op at the low resolution:
the upsampled branch is four 2x2 sub-pixel convs, one per output phase (see
its docstring).

The ReLU family avoids ``np.where``: a masked select runs numpy's slow
branching path when the mask's signs are mixed. On a [4, 64, 64, 16] map of
random signs, ``np.where(x > 0, x, 0.0)`` takes 1.3-1.9 ms, 0.4 ms on the
same values sorted, and ``np.maximum(x, 0.0)`` 0.2 ms (one thread, 2-vCPU
Xeon VM). So the forwards are maxima and the backward factors are mask
arithmetic, equal bit for bit to the masked forms, except that ``relu``
passes a NaN on where the masked form gives 0.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..codes import Codebook
from ..errors import ShapeError
from ..layer import _softmax_backward, _softmax_last_axis, hadamard_backward, hadamard_forward

# The negative-side slope of every leaky ReLU in the networks.
LEAKY_SLOPE = 0.2


class Node:
    """One tensor on the tape: a value, a gradient slot, and its parents.

    A leaf needs a gradient unless built with ``needs_grad=False``; an op
    node needs one when any parent does, and otherwise keeps no backprop.
    """

    __slots__ = ("value", "grad", "parents", "needs_grad", "_backprop")

    def __init__(self, value, parents=(), backprop=None, needs_grad=True):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        if self.parents:
            needs_grad = any(parent.needs_grad for parent in self.parents)
        self.needs_grad = needs_grad
        self._backprop = backprop if needs_grad else None

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
    """Wrap an array as a non-trainable leaf that still receives a gradient."""
    return Node(value)


def as_node(x) -> Node:
    """Pass a Node through; wrap a raw array as a leaf that needs no gradient."""
    return x if isinstance(x, Node) else Node(x, needs_grad=False)


def set_needs_grad(parameters, needs_grad: bool) -> None:
    """Set the ``needs_grad`` flag of every Parameter in ``parameters``.

    With the flag cleared, ops on a network's Parameters and a raw input
    keep no backprop, and ``backward`` computes no gradient for the
    Parameters. ``backward`` reads the flags, so a graph built while they
    were cleared must be walked before they are set again.
    """
    for parameter in parameters:
        parameter.needs_grad = needs_grad


def _toposort(roots) -> list[Node]:
    visited: set[int] = set()
    topo: list[Node] = []
    for root in roots:
        if not root.needs_grad or id(root) in visited:
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
                if parent.needs_grad and id(parent) not in visited:
                    stack.append((parent, False))
    return topo


def _accumulate(node: Node, grad: np.ndarray) -> None:
    """Store the first contribution to ``node.grad``; add later ones to it.

    A stored contribution becomes the node's gradient buffer, so callers pass
    arrays that nothing else holds.
    """
    if node.grad is None:
        node.grad = grad
    else:
        node.grad += grad


def backward(seeds) -> None:
    """Run reverse-mode accumulation from ``seeds``: (node, gradient) pairs.

    Only nodes that need a gradient (see the module docstring) are visited;
    every other node keeps ``.grad`` None. Gradients of the visited nodes
    are reset to None first, so a fresh call never mixes with a previous
    pass. A node's first contribution is stored and later ones are added to
    it; a seed array is copied, never stored or modified. Seeding an
    interior node adds to whatever flows back into it from downstream seeds.
    """
    seeds = [(node, np.asarray(grad, dtype=np.float64)) for node, grad in seeds]
    for node, grad in seeds:
        if grad.shape != node.value.shape:
            raise ShapeError(
                f"seed gradient shape {grad.shape} != node shape {node.value.shape}"
            )
    topo = _toposort([node for node, _ in seeds])
    for node in topo:
        node.grad = None
    for node, grad in seeds:
        if node.needs_grad:
            _accumulate(node, grad.copy())
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


def _input_gradient(g: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Input gradient of a same-padded stride-1 convolution with kernel
    ``wv`` [k, k, Cin, Cout], given the output gradient ``g`` [B, H, W, Cout]:
    the same-padded convolution of ``g`` with the flipped kernel, its channel
    axes swapped. One im2col and one matmul; returns [B, H, W, Cin]."""
    k, _, cin, cout = wv.shape
    g_cols, _, _ = _im2col(_pad_same(g, k // 2), k, 1)
    w_flip = wv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    return (g_cols @ w_flip).reshape(g.shape[:3] + (cin,))


def _bias_gradient(g: np.ndarray) -> np.ndarray:
    """Sum of the output gradient ``g`` [..., Cout] over every axis but the
    last, as one product with a ones vector (faster than ``g.sum``)."""
    g = g.reshape(-1, g.shape[-1])
    return np.ones(g.shape[0]) @ g


def conv2d(x: Node, w: Node, b: Node, stride: int = 1) -> Node:
    """Same-padded 2-D convolution, stride 1 or 2, odd square kernels.

    Layout: input [B, H, W, Cin], kernel [kh, kw, Cin, Cout], bias [Cout].
    Implemented as im2col + one matmul; the column matrix is cached for the
    weight gradient. At stride 1 the input gradient is the same-padded
    convolution of the output gradient with the flipped kernel, its channel
    axes swapped: one more im2col + matmul. At stride 2 the column gradient
    is scattered back tap by tap. An input that needs no gradient gets none
    computed.
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
    xp_shape = xp.shape  # the backward keeps the shape, not the padded copy

    def backprop(node: Node) -> None:
        g = node.grad.reshape(-1, cout)
        if b.needs_grad:
            _accumulate(b, _bias_gradient(node.grad))
        if w.needs_grad:
            # [Cout, M] x [M, K] runs faster in BLAS than cols.T @ g.
            _accumulate(w, (g.T @ cols).T.reshape(wv.shape))
        if not x.needs_grad:
            return
        if stride == 1:
            _accumulate(x, _input_gradient(node.grad, wv))
            return
        dcols = (g @ w_mat.T).reshape(batch, out_h, out_w, k, k, cin)
        dxp = np.zeros(xp_shape)
        for i in range(k):
            for j in range(k):
                dxp[
                    :,
                    i : i + stride * out_h : stride,
                    j : j + stride * out_w : stride,
                    :,
                ] += dcols[:, :, :, i, j, :]
        _accumulate(x, dxp[:, pad : pad + height, pad : pad + width, :])

    return Node(out, parents=(x, w, b), backprop=backprop)


def leaky_relu(x: Node) -> Node:
    """x where x > 0, LEAKY_SLOPE * x elsewhere.

    The slope lies in [0, 1], so the larger of x and slope * x is the right
    branch, which the maximum picks without a mask. The backward factor
    (x > 0) * (1 - slope) + slope is exactly 1 or exactly the slope.
    """
    xv = x.value
    out = np.maximum(xv, LEAKY_SLOPE * xv)

    def backprop(node: Node) -> None:
        factor = (xv > 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
        factor *= node.grad
        _accumulate(x, factor)

    return Node(out, parents=(x,), backprop=backprop)


def relu(x: Node) -> Node:
    """max(x, 0); a NaN input stays NaN, so divergence is not hidden."""
    xv = x.value
    out = np.maximum(xv, 0.0)

    def backprop(node: Node) -> None:
        _accumulate(x, node.grad * (xv > 0))

    return Node(out, parents=(x,), backprop=backprop)


def sigmoid(x: Node) -> Node:
    xv = x.value
    out = np.empty_like(xv)
    positive = xv >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-xv[positive]))
    ex = np.exp(xv[~positive])
    out[~positive] = ex / (1.0 + ex)

    def backprop(node: Node) -> None:
        _accumulate(x, node.grad * out * (1.0 - out))

    return Node(out, parents=(x,), backprop=backprop)


def nearest_upsample_2x(x: Node) -> Node:
    """Double both spatial axes by pixel repetition.

    The generator's decoder uses ``upsample_concat_conv2d`` instead; this op
    is the reference that its tests compose against.
    """
    _check_image(x, "nearest_upsample_2x")
    xv = x.value
    out = xv.repeat(2, axis=1).repeat(2, axis=2)

    def backprop(node: Node) -> None:
        batch, height, width, channels = xv.shape
        g = node.grad.reshape(batch, height, 2, width, 2, channels)
        _accumulate(x, g.sum(axis=(2, 4)))

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
        if a.needs_grad:
            _accumulate(a, node.grad[..., :split].copy())
        if b.needs_grad:
            _accumulate(b, node.grad[..., split:].copy())

    return Node(out, parents=(a, b), backprop=backprop)


# Nearest 2x upsampling followed by a same-padded 3x3 conv, per axis: an
# output row of parity a is a 2-tap conv over the padded low-resolution
# input, taking window tap s from the full-resolution taps d where
# _SUBPIXEL_TAPS[(a, s), d] is 1. Parity 0 reads (w0, w1 + w2) and parity 1
# reads (w0 + w1, w2); the parity-a window of output row i starts at padded
# row i + a.
_SUBPIXEL_TAPS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _subpixel_kernel(w_up: np.ndarray) -> np.ndarray:
    """The [3, 3, Cup, Cout] kernel over the upsampled input as a
    [4 Cup, 4 Cout] kernel over 2x2 windows of the low-resolution input:
    rows (s, t, Cup), columns (a, c, Cout). Tap (s, t) of output phase (a, c)
    sums the taps (d, e) that read it."""
    cup, cout = w_up.shape[2:]
    rows = (_SUBPIXEL_TAPS @ w_up.reshape(3, -1)).reshape(4, 3, cup * cout)  # [(a, s), e, ...]
    both = np.matmul(_SUBPIXEL_TAPS, rows)  # [(a, s), (c, t), (Cup, Cout)]
    both = both.reshape(2, 2, 2, 2, cup, cout).transpose(1, 3, 4, 0, 2, 5)
    return both.reshape(4 * cup, 4 * cout)


def _fold_subpixel_kernel(d_kernel: np.ndarray, cup: int, cout: int) -> np.ndarray:
    """The adjoint of ``_subpixel_kernel``: a gradient with respect to the
    [4 Cup, 4 Cout] kernel, folded back to [3, 3, Cup, Cout]."""
    both = d_kernel.reshape(2, 2, cup, 2, 2, cout).transpose(3, 0, 4, 1, 2, 5)
    rows = np.matmul(_SUBPIXEL_TAPS.T, both.reshape(4, 4, cup * cout))  # [(a, s), e, ...]
    return (_SUBPIXEL_TAPS.T @ rows.reshape(4, -1)).reshape(3, 3, cup, cout)


def upsample_concat_conv2d(x: Node, skip: Node, w: Node, b: Node) -> Node:
    """``conv2d(channel_concat(nearest_upsample_2x(x), skip), w, b)`` for a
    3x3 kernel at stride 1, computed without the upsampled map.

    Layout: ``x`` [B, h, w, Cup], ``skip`` [B, 2h, 2w, Cskip], kernel
    [3, 3, Cup + Cskip, Cout] (its first Cup input channels act on the
    upsampled ``x``), bias [Cout]. Nearest upsampling followed by a 3x3 conv
    is four 2x2 sub-pixel convs at the low resolution, one per output phase
    (row and column parity), and a conv over a concat is the sum of the
    convs over its parts. So the up branch is one 2x2-window im2col of the
    padded ``x``, [B (h+1) (w+1), 4 Cup], times a [4 Cup, 4 Cout] kernel
    holding the four phases; phase (a, c) is the window grid at offset
    (a, c), added into its output phase. The skip branch is an im2col of
    ``skip`` times the kernel's skip channels.

    Backward: the up branch places the output gradient's four phases at
    their offsets in a [B, h+1, w+1, 2, 2, Cout] array that is zero where a
    window feeds no output of that phase. That array times the cached
    columns is the 2x2 kernel's gradient, folded back through the tap map;
    times the kernel's transpose it gives the window gradients, and four
    shifted slices of those sum to the gradient of ``x``. The skip branch's
    weight gradient comes from its cached columns and its input gradient
    from its own transposed-conv product, computed only when ``skip`` needs
    one. Neither input gradient depends on which inputs need one.
    """
    _check_image(x, "upsample_concat_conv2d")
    _check_image(skip, "upsample_concat_conv2d")
    xv, sv, wv, bv = x.value, skip.value, w.value, b.value
    batch, height, width, cup = xv.shape
    if sv.shape[:3] != (batch, 2 * height, 2 * width):
        raise ShapeError(
            f"skip shape {sv.shape} is not the 2x upsampled size of input {xv.shape}"
        )
    cin = cup + sv.shape[3]
    if wv.ndim != 4 or wv.shape[:3] != (3, 3, cin):
        raise ShapeError(f"kernel must be [3, 3, {cin}, Cout], got {wv.shape}")
    cout = wv.shape[3]
    if bv.shape != (cout,):
        raise ShapeError(f"bias shape {bv.shape} != ({cout},)")

    # Window positions (B, h+1, w+1) and output phases (a, c).
    grid = (batch, height + 1, width + 1, 2, 2)
    kernel_up = _subpixel_kernel(wv[:, :, :cup])
    cols_up, _, _ = _im2col(_pad_same(xv, 1), 2, 1)
    cols_skip, _, _ = _im2col(_pad_same(sv, 1), 3, 1)
    out = cols_skip @ wv[:, :, cup:].reshape(-1, cout)
    out += bv
    blocks = out.reshape(batch, height, 2, width, 2, cout)
    phases = (cols_up @ kernel_up).reshape(grid + (cout,))
    for a in range(2):
        for c in range(2):
            blocks[:, :, a, :, c] += phases[:, a : a + height, c : c + width, a, c]
    out = out.reshape(batch, 2 * height, 2 * width, cout)

    def backprop(node: Node) -> None:
        g = node.grad
        if b.needs_grad:
            _accumulate(b, _bias_gradient(g))
        if w.needs_grad or x.needs_grad:
            g_blocks = g.reshape(batch, height, 2, width, 2, cout)
            g_phases = np.zeros(grid + (cout,))
            for a in range(2):
                for c in range(2):
                    g_phases[:, a : a + height, c : c + width, a, c] = g_blocks[:, :, a, :, c]
            g_phases = g_phases.reshape(-1, 4 * cout)
            if w.needs_grad:
                dw = np.empty_like(wv)
                # [N, M] x [M, K] runs faster in BLAS, as in conv2d.
                dw[:, :, :cup] = _fold_subpixel_kernel((g_phases.T @ cols_up).T, cup, cout)
                dw[:, :, cup:] = (g.reshape(-1, cout).T @ cols_skip).T.reshape(3, 3, -1, cout)
                _accumulate(w, dw)
            if x.needs_grad:
                # The window axes (s, t) take the place of the phase axes.
                d_windows = (g_phases @ kernel_up.T).reshape(grid + (cup,))
                del g_phases
                # Window tap (s, t) at (i + 1 - s, j + 1 - t) reads x[i, j].
                dx = d_windows[:, 1:, 1:, 0, 0] + d_windows[:, 1:, :-1, 0, 1]
                dx += d_windows[:, :-1, 1:, 1, 0]
                dx += d_windows[:, :-1, :-1, 1, 1]
                _accumulate(x, dx)
        if skip.needs_grad:
            _accumulate(skip, _input_gradient(g, wv[:, :, cup:]))

    return Node(out, parents=(x, skip, w, b), backprop=backprop)


def per_pixel_softmax(x: Node) -> Node:
    """Numerically stable softmax over the channel (last) axis."""
    out = _softmax_last_axis(x.value)

    def backprop(node: Node) -> None:
        _accumulate(x, _softmax_backward(out, node.grad))

    return Node(out, parents=(x,), backprop=backprop)


def hadamard_head(x: Node, cb: Codebook) -> Node:
    """The parameter-free code-correlation head (see hadaseg.layer)."""
    act = hadamard_forward(cb, x.value)

    def backprop(node: Node) -> None:
        _accumulate(x, hadamard_backward(act, node.grad))

    return Node(act.output, parents=(x,), backprop=backprop)
