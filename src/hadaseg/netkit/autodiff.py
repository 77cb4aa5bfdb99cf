"""Reverse-mode autodiff over a fixed set of dense tensor ops.

Tensors are float64 channels-last numpy arrays. Each operation appends a
node to an implicit tape (the node graph itself) with a backprop closure
that maps the node's gradient to a tuple of gradients, one per parent in
``parents`` order: a fresh array that nothing else holds, or None for a
parent that needs none. ``gradients`` topologically sorts the ancestors of
the seeded outputs, walks them in reverse and returns the leaves'
gradients (leaves are nodes without parents, such as Parameters);
``backward`` stores them as the leaves' ``.grad``, the only place the
engine writes one. Shape problems surface at graph build time, not inside
the walk.

Every node records at construction whether it needs a gradient. Parameters
and ``constant`` leaves do unless ``set_needs_grad`` cleared their flag (a
frozen network); a raw array that ``as_node`` wraps does not; an op node
does when any of its parents does, and otherwise keeps no backprop, so a
frozen network's forward on a raw input builds no tape. ``gradients`` never
visits a node that needs no gradient, and the conv ops skip the gradient of
any input, weight or bias that needs none. A walk keeps its gradients in a
dict of its own: a node's first contribution is stored and later ones are
added to it, and an interior node's gradient is dropped as soon as its
backprop has read it, so no interior node keeps a gradient after the walk.
No gradient shares memory with another node's or with a caller's seed, and
no seed is written.

``conv2d`` is the engine's one convolution, over one map or over the
channel concatenation of a list of parts. It builds each part's columns and
sums their products with the part's kernel rows, so the concatenated map is
never built. A part's columns are one copy of its windows, a strided array
[B, Ho, Wo, k, k, C] built straight over the padded map with no transpose
(``_im2col``). The discriminator's first layer is one such conv, over an
image and a class map. A part may also be a map upsampled 2x by pixel
repetition (``Upsampled``), read as four 2x2 sub-pixel convs at the low
resolution, one product whose phases a strided view places, without
building the upsampled map; a UNet decoder stage is one conv over such a
part and its skip. No input gradient scatters window gradients tap by tap:
at stride 1 it is the conv of the output gradient with the flipped kernel,
at stride 2 one sub-pixel product over the four input phases, and an
Upsampled part's is four shifted slices of its window gradients added.

The ReLU family avoids ``np.where``: a masked select runs numpy's slow
branching path when the mask's signs are mixed. On a [4, 64, 64, 16] map of
random signs, ``np.where(x > 0, x, 0.0)`` takes 1.3-1.9 ms, 0.4 ms on the
same values sorted, and ``np.maximum(x, 0.0)`` 0.2 ms (one thread, 2-vCPU
Xeon VM). So the forwards are maxima and the backward factors are mask
arithmetic, equal bit for bit to the masked forms, except that ``relu``
passes a NaN on where the masked form gives 0.

Concurrency. Graphs that share only leaves can be built and walked at the
same time, one ``gradients`` call per thread. The engine starts no thread
and has no thread-local or other shared mutable state: a walk writes only
to its own dict, an op's backprop reads only its closure and its argument,
and ``gradients`` writes no node's ``.grad``. So no array is written by two
threads, and the caller adds the returned leaf gradients in an order it
chooses, which keeps the sums independent of thread timing. Training does
not rely on this: it runs its chunks in separate processes (see train.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..codes import Codebook
from ..errors import ShapeError
from ..layer import _softmax_backward, _softmax_last_axis, hadamard_backward, hadamard_forward

# The negative-side slope of every leaky ReLU in the networks.
LEAKY_SLOPE = 0.2


class Node:
    """One tensor on the tape: a value, its parents, and a ``.grad`` slot
    that ``backward`` fills on leaves.

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
    keep no backprop, and ``gradients`` computes no gradient for the
    Parameters. ``gradients`` reads the flags, so a graph built while they
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


def _add(grads: dict, contributions, pending: dict) -> None:
    """Store each (node, gradient) contribution as the node's gradient in
    ``grads`` if it is the first, else add it in place; skip None. A first
    contribution takes in the node's ``pending`` seed, if any: c + seed
    equals seed + c bit for bit, so the sum is that of adding in seed order."""
    for node, grad in contributions:
        if grad is None:
            continue
        held = grads.get(node)
        if held is None:
            seed = pending.pop(node, None)
            if seed is not None:
                grad += seed
            grads[node] = grad
        else:
            held += grad


def gradients(seeds) -> dict[Node, np.ndarray | None]:
    """Run reverse-mode accumulation from ``seeds``: (node, gradient) pairs.
    A seed whose gradient is None is skipped.

    Returns the gradient of every visited leaf, None where none arrived,
    and writes no node's ``.grad``. Only nodes that need a gradient (see the
    module docstring) are visited. The gradients live in one dict local to
    the call: a node's first contribution is stored and later ones are added
    to it, and an interior node's gradient leaves the dict when its backprop
    reads it. Seeding an interior node adds to whatever flows back into it
    from downstream seeds. A seed array is never stored or written: it is
    added into the first gradient that reaches its node (a node seeded more
    than once holds the seeds' sum, a new array), and it is copied only
    when nothing reaches its node.
    """
    seeds = [(node, np.asarray(grad, dtype=np.float64)) for node, grad in seeds if grad is not None]
    for node, grad in seeds:
        if grad.shape != node.value.shape:
            raise ShapeError(
                f"seed gradient shape {grad.shape} != node shape {node.value.shape}"
            )
    topo = _toposort([node for node, _ in seeds])
    pending: dict[Node, np.ndarray] = {}
    for node, grad in seeds:
        if node.needs_grad:
            pending[node] = pending[node] + grad if node in pending else grad
    grads: dict[Node, np.ndarray] = {}

    def take(node: Node) -> np.ndarray | None:
        grad = grads.pop(node, None)
        if grad is None and node in pending:
            grad = pending.pop(node).copy()
        return grad

    for node in reversed(topo):
        if node._backprop is not None:
            _add(grads, zip(node.parents, node._backprop(take(node))), pending)
    return {node: take(node) for node in topo if not node.parents}


def backward(seeds) -> None:
    """``gradients(seeds)``, with each visited leaf's gradient stored as its
    ``.grad`` (None where none arrived). Interior nodes keep ``.grad`` None."""
    for leaf, grad in gradients(seeds).items():
        leaf.grad = grad


def _check_image(x: Node, op: str) -> None:
    if x.value.ndim != 4:
        raise ShapeError(f"{op} expects [B, H, W, C] input, got shape {x.value.shape}")


def _im2col(padded: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Column matrix of every k x k window of ``padded`` taken at ``stride``.

    Returns the [B * Ho * Wo, k * k * C] matrix, columns ordered (kh, kw, C)
    to match the kernel layout, and the output height and width. The windows
    are one strided array [B, Ho, Wo, k, k, C] built as an ``np.ndarray``
    over the padded map, which took 0.9-1.9 us against 14-16 us for
    ``sliding_window_view``, a slice and a transpose (one thread). Such an
    array needs a C-contiguous buffer, so any other source is copied once.
    """
    padded = np.ascontiguousarray(padded)
    batch, height, width, channels = padded.shape
    out_h, out_w = (height - k) // stride + 1, (width - k) // stride + 1
    s_b, s_h, s_w, s_c = padded.strides
    windows = np.ndarray(
        (batch, out_h, out_w, k, k, channels),
        padded.dtype,
        padded,
        strides=(s_b, stride * s_h, stride * s_w, s_h, s_w, s_c),
    )
    return windows.reshape(batch * out_h * out_w, k * k * channels), out_h, out_w


def _pad_same(v: np.ndarray, pad: int, after: int | None = None) -> np.ndarray:
    """Zero-pad both spatial axes by ``pad`` in front and ``after`` (default
    ``pad``) behind; no padding (a 1x1 kernel) returns ``v`` uncopied."""
    after = pad if after is None else after
    if pad == after == 0:
        return v
    batch, height, width, channels = v.shape
    out = np.empty((batch, height + pad + after, width + pad + after, channels), dtype=v.dtype)
    # Only the border is zeroed: zeroing the whole buffer first took 600
    # against 420 us for a [2, 64, 64, 64] map padded by 1 (one thread).
    out[:, :pad] = 0.0
    out[:, pad + height :] = 0.0
    rows = out[:, pad : pad + height]
    rows[:, :, :pad] = 0.0
    rows[:, :, pad + width :] = 0.0
    rows[:, :, pad : pad + width] = v
    return out


def _input_gradient(g: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Input gradient of a same-padded stride-1 convolution with kernel
    ``wv`` [k, k, Cin, Cout], given the output gradient ``g`` [B, H, W, Cout]:
    the same-padded convolution of ``g`` with the flipped kernel, its channel
    axes swapped. One im2col and one matmul; returns [B, H, W, Cin]."""
    k, _, cin, cout = wv.shape
    g_cols, _, _ = _im2col(_pad_same(g, k // 2), k, 1)
    w_flip = wv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    return (g_cols @ w_flip).reshape(g.shape[:3] + (cin,))


def _phase_kernel(wv: np.ndarray) -> np.ndarray:
    """The kernel ``wv`` [k, k, Cin, Cout] of a same-padded stride-2 conv,
    folded for its input gradient into a [m^2 Cout, 4 Cin] kernel over m x m
    windows of the output gradient, m = (k + 1) / 2: rows (s, t, Cout),
    columns (a, c, Cin). With the gradient padded by f = (m - 1) // 2 in
    front, window (u, v) offset (s, t) is output (u + s - f, v + t - f),
    which read input pixel (2u + a, 2v + c) through tap
    (a + p + 2f - 2s, c + p + 2f - 2t), p = k // 2. A block whose tap lies
    outside the kernel stays zero, so a 1x1 kernel's odd phases get none."""
    k, _, cin, cout = wv.shape
    m, p = (k + 1) // 2, k // 2
    reads = [(a, s, a + p + 2 * (p // 2) - 2 * s) for a in range(2) for s in range(m)]
    reads = [(a, s, tap) for a, s, tap in reads if 0 <= tap < k]
    kernel = np.zeros((m, m, cout, 2, 2, cin))
    for a, s, row in reads:
        for c, t, column in reads:
            kernel[s, t, :, a, c] = wv[row, column].T
    return kernel.reshape(m * m * cout, 4 * cin)


def _strided_input_gradient(g: np.ndarray, wv: np.ndarray, shape: tuple) -> np.ndarray:
    """Input gradient of a same-padded stride-2 convolution with kernel ``wv``
    [k, k, Cin, Cout] over an input of ``shape`` [B, H, W, Cin], given the
    output gradient ``g`` [B, Ho, Wo, Cout]: a transposed conv, which for
    each of the four input phases (row and column parity) is a stride-1 conv
    of ``g`` with the taps that phase reads. The m x m windows of ``g`` times
    the ``_phase_kernel`` columns of each row parity a, one product per a,
    written straight into the input rows of that parity, then cropped to an
    odd H or W. One product followed by a depth-to-space copy gives the same
    bytes but builds a second map: it took 1.7-1.9 against 1.2-1.6 ms for
    ``disc.d0``'s class part at k = 6 ([2, 32, 32, 16] -> [2, 64, 64, 64],
    one BLAS thread) and about as long on the smaller maps."""
    k, _, cin, _ = wv.shape
    m = (k + 1) // 2
    batch, out_h, out_w = g.shape[:3]
    g_cols, _, _ = _im2col(_pad_same(g, (m - 1) // 2, m // 2), m, 1)
    kernel = _phase_kernel(wv)
    dx = np.empty((batch * out_h, 2, out_w, 2 * cin))
    windows = g_cols.reshape(batch * out_h, out_w, -1)
    for a in range(2):
        np.matmul(windows, kernel[:, 2 * a * cin : 2 * (a + 1) * cin], out=dx[:, a])
    return dx.reshape(batch, 2 * out_h, 2 * out_w, cin)[:, : shape[1], : shape[2]]


def _bias_gradient(g: np.ndarray) -> np.ndarray:
    """Sum of the output gradient ``g`` [..., Cout] over every axis but the
    last, as one product with a ones vector (faster than ``g.sum``)."""
    g = g.reshape(-1, g.shape[-1])
    return np.ones(g.shape[0]) @ g


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


def _phase_view(phases: np.ndarray) -> np.ndarray:
    """The C-contiguous sub-pixel ``phases`` [B, h+1, w+1, 2, 2, C] as a
    writable strided view [B, h, 2, w, 2, C] laid out like the output:
    element (b, i, a, j, c) is ``phases[b, i + a, j + c, a, c]``, and
    (i, a) -> (i + a, a) is 1-to-1. Built directly as an ``np.ndarray`` over
    ``phases``, like the windows of ``_im2col``."""
    s_b, s_i, s_j, s_a, s_c, s_ch = phases.strides
    batch, height, width, _, _, channels = phases.shape
    shape = (batch, height - 1, 2, width - 1, 2, channels)
    strides = (s_b, s_i, s_i + s_a, s_j, s_j + s_c, s_ch)
    return np.ndarray(shape, phases.dtype, phases, strides=strides)


def _add_subpixel_phases(out: np.ndarray, phases: np.ndarray, low_shape: tuple) -> None:
    """Add to ``out`` [B, 2h, 2w, Cout] the sub-pixel ``phases``, the 2x2
    windows of a map of ``low_shape`` [B, h, w, C] padded by 1 times its
    [4 C, 4 Cout] sub-pixel kernel: phase (a, c) at window offset (a, c)
    lands on the output pixels of row parity a and column parity c."""
    batch, height, width, _ = low_shape
    blocks = out.reshape(batch, height, 2, width, 2, -1)
    blocks += _phase_view(phases.reshape(batch, height + 1, width + 1, 2, 2, -1))


def _upsampled_input_gradient(d_windows: np.ndarray, low_shape: tuple) -> np.ndarray:
    """The adjoint of the 2x2 windows of a map of ``low_shape`` [B, h, w, C]
    padded by 1: the map's gradient, given the gradient ``d_windows``
    [B (h+1) (w+1), 4 C] of its windows. Window tap (s, t) read pixel
    (i, j) at window (i + 1 - s, j + 1 - t); the four shifted slices are
    added in tap order. One ``np.add.reduce`` over a strided tap view gives
    the same bytes but took 0.48 against 0.13 ms at [2, 32, 32, 16] and 0.13
    against 0.05 ms at [2, 16, 16, 32] (one BLAS thread), so the slices stay."""
    batch, height, width, channels = low_shape
    d = d_windows.reshape(batch, height + 1, width + 1, 2, 2, channels)
    dx = d[:, 1:, 1:, 0, 0] + d[:, 1:, :-1, 0, 1]
    dx += d[:, :-1, 1:, 1, 0]
    dx += d[:, :-1, :-1, 1, 1]
    return dx


def _subpixel_phase_gradient(g: np.ndarray) -> np.ndarray:
    """The adjoint of the placement in ``_add_subpixel_phases``: the output
    gradient ``g`` [B, 2h, 2w, Cout] as the [B (h+1) (w+1), 4 Cout] gradient
    of the phase product, zero where a window feeds no output of a phase."""
    batch, height, width, cout = g.shape[0], g.shape[1] // 2, g.shape[2] // 2, g.shape[3]
    g_phases = np.zeros((batch, height + 1, width + 1, 2, 2, cout))
    _phase_view(g_phases)[...] = g.reshape(batch, height, 2, width, 2, cout)
    return g_phases.reshape(-1, 4 * cout)


@dataclass(frozen=True, eq=False)
class Upsampled:
    """A ``conv2d`` part: the map ``source`` [B, h, w, C] (a Node, or a raw
    array that gets no gradient) upsampled 2x by pixel repetition, a
    [B, 2h, 2w, C] map that is never built.

    Nearest upsampling followed by a 3x3 conv is four 2x2 sub-pixel convs at
    the low resolution, one per output phase (row and column parity): one
    product of the 2x2 windows of ``source`` with the part's kernel rows
    folded into a [4 C, 4 Cout] kernel. So the part takes a 3x3 kernel at
    stride 1.
    """

    source: Node


def conv2d(x, w: Node, b: Node, stride: int = 1) -> Node:
    """Same-padded 2-D convolution, stride 1 or 2, odd square kernels.

    Layout: input [B, H, W, Cin], kernel [k, k, Cin, Cout], bias [Cout].
    ``x`` is one map, which must have the kernel's Cin channels, or a list
    of parts whose channel concatenation is the input. Each part is a map
    (a Node, or a raw array that gets no gradient) or an ``Upsampled`` map,
    which takes a 3x3 kernel at stride 1. The concatenated map is never
    built: the columns of the map parts times their rows of the kernel,
    summed in order, plus the bias, plus each Upsampled part's four
    sub-pixel phases. The kernel reads the parts' channels in order, and a
    list may leave trailing kernel channels unread: those count as zero,
    and their weight-gradient rows are 0. All parts must have one batch and
    size, an Upsampled part twice its source's.

    Backward: each part's weight-gradient rows come from its columns. When
    the kernel needs a gradient the node keeps them at stride 2; at stride 1
    they are k^2 times the map, so the backward rebuilds them. A part whose
    source needs a gradient gets one from its kernel channels, a transposed
    conv: ``_input_gradient`` at stride 1, ``_strided_input_gradient`` at
    stride 2 and, for an Upsampled part, ``_subpixel_phase_gradient`` then
    ``_upsampled_input_gradient``. A raw part gets none.
    """
    wv, bv = w.value, b.value
    if wv.ndim != 4 or wv.shape[0] != wv.shape[1] or wv.shape[0] % 2 == 0:
        raise ShapeError(f"kernel must be [k, k, Cin, Cout] with odd k, got {wv.shape}")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    k, cin, cout = wv.shape[0], wv.shape[2], wv.shape[3]
    if bv.shape != (cout,):
        raise ShapeError(f"bias shape {bv.shape} != ({cout},)")
    given = x if isinstance(x, list) else [x]
    upsampled = [isinstance(part, Upsampled) for part in given]
    sources = [as_node(part.source if up else part) for part, up in zip(given, upsampled)]
    for source in sources:
        _check_image(source, "conv2d")
    shapes = [source.value.shape for source in sources]
    shapes = [(s[0], 2 * s[1], 2 * s[2], s[3]) if up else s for s, up in zip(shapes, upsampled)]
    if any(upsampled) and (k, stride) != (3, 1):
        raise ShapeError(
            f"an Upsampled part needs a 3x3 kernel at stride 1, got {k}x{k} at stride {stride}"
        )
    if any(shape[:3] != shapes[0][:3] for shape in shapes):
        raise ShapeError(f"conv2d parts differ in [B, H, W]: {' vs '.join(map(str, shapes))}")
    widths = [shape[3] for shape in shapes]
    if sum(widths) > cin or (not isinstance(x, list) and widths[0] != cin):
        raise ShapeError(
            f"kernel expects {cin} input channels, input has {' + '.join(map(str, widths))}"
        )

    # An Upsampled part's columns are those of its 2x2 sub-pixel windows.
    windows = [2 if up else k for up in upsampled]
    columns = [
        _im2col(_pad_same(source.value, n // 2), n, stride)[0]
        for source, n in zip(sources, windows)
    ]
    out_hw = tuple(-(-n // stride) for n in shapes[0][1:3])
    rows = shapes[0][0] * out_hw[0] * out_hw[1]
    spans = [slice(end - width, end) for end, width in zip(accumulate(widths), widths)]
    kernels = [
        _subpixel_kernel(wv[:, :, span]) if up else wv[:, :, span].reshape(-1, cout)
        for span, up in zip(spans, upsampled)
    ]
    products = (cols @ kernel for cols, kernel, up in zip(columns, kernels, upsampled) if not up)
    out = np.zeros((rows, cout)) if all(upsampled) else next(products)
    for product in products:
        out += product
    # The bias sum is a new array, not an in-place add, in every conv.
    # eval_k3's peak RSS under perfbench's allocator settings (freed memory
    # stays mapped) reads either about 135 or about 150-165 MB, and the
    # allocation order moves the odds: in 30 s runs this form read high in
    # 5 of 10 (a separate decoder op with an in-place add, 3 of 10), and an
    # in-place add in every conv in 5 of 5 (2-vCPU VM).
    out = (out + bv).reshape(shapes[0][:1] + out_hw + (cout,))
    for cols, source, kernel, up in zip(columns, sources, kernels, upsampled):
        if up:
            _add_subpixel_phases(out, cols @ kernel, source.value.shape)
    # Only the weight gradient reads the columns, and only an Upsampled
    # part's input gradient reads the part's kernel rows.
    kept = columns if w.needs_grad and stride == 2 else None
    kernels = [kernel if up else None for kernel, up in zip(kernels, upsampled)]

    def backprop(g: np.ndarray) -> tuple:
        # BLAS sums a strided operand in another order, so the gradients
        # read a C-contiguous g, whatever layout it arrives in.
        g = np.ascontiguousarray(g)
        g_mat = g.reshape(-1, cout)
        db = _bias_gradient(g) if b.needs_grad else None
        g_phases = _subpixel_phase_gradient(g) if any(upsampled) else None
        dw = None
        if w.needs_grad:
            dw = np.zeros_like(wv)
            for i, (source, span, n, up) in enumerate(zip(sources, spans, windows, upsampled)):
                cols = kept[i] if kept else _im2col(_pad_same(source.value, n // 2), n, 1)[0]
                # [Cout, M] x [M, K] runs faster in BLAS than cols.T @ g.
                if up:
                    d_kernel = (g_phases.T @ cols).T
                    dw[:, :, span] = _fold_subpixel_kernel(d_kernel, widths[i], cout)
                else:
                    dw[:, :, span] = (g_mat.T @ cols).T.reshape(k, k, -1, cout)
                del cols
        dparts = []
        for source, shape, span, kernel, up in zip(sources, shapes, spans, kernels, upsampled):
            if not source.needs_grad:
                dparts.append(None)
            elif up:
                # The window axes (s, t) take the place of the phase axes.
                dparts.append(_upsampled_input_gradient(g_phases @ kernel.T, source.value.shape))
            elif stride == 1:
                dparts.append(_input_gradient(g, wv[:, :, span]))
            else:
                dparts.append(_strided_input_gradient(g, wv[:, :, span], shape))
        return (*dparts, dw, db)

    return Node(out, parents=(*sources, w, b), backprop=backprop)


def leaky_relu(x: Node) -> Node:
    """x where x > 0, LEAKY_SLOPE * x elsewhere.

    The slope lies in [0, 1], so the larger of x and slope * x is the right
    branch, which the maximum picks without a mask. The backward factor
    (x > 0) * (1 - slope) + slope is exactly 1 or exactly the slope.
    """
    xv = x.value
    out = np.maximum(xv, LEAKY_SLOPE * xv)

    def backprop(g: np.ndarray) -> tuple:
        factor = (xv > 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
        factor *= g
        return (factor,)

    return Node(out, parents=(x,), backprop=backprop)


def relu(x: Node) -> Node:
    """max(x, 0); a NaN input stays NaN, so divergence is not hidden."""
    xv = x.value
    out = np.maximum(xv, 0.0)

    def backprop(g: np.ndarray) -> tuple:
        return (g * (xv > 0),)

    return Node(out, parents=(x,), backprop=backprop)


def sigmoid(x: Node) -> Node:
    xv = x.value
    out = np.empty_like(xv)
    positive = xv >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-xv[positive]))
    ex = np.exp(xv[~positive])
    out[~positive] = ex / (1.0 + ex)

    def backprop(g: np.ndarray) -> tuple:
        return (g * out * (1.0 - out),)

    return Node(out, parents=(x,), backprop=backprop)


def per_pixel_softmax(x: Node) -> Node:
    """Numerically stable softmax over the channel (last) axis."""
    out = _softmax_last_axis(x.value)

    def backprop(g: np.ndarray) -> tuple:
        return (_softmax_backward(out, g),)

    return Node(out, parents=(x,), backprop=backprop)


def hadamard_head(x: Node, cb: Codebook) -> Node:
    """The parameter-free code-correlation head (see hadaseg.layer)."""
    act = hadamard_forward(cb, x.value)

    def backprop(g: np.ndarray) -> tuple:
        return (hadamard_backward(act, g),)

    return Node(act.output, parents=(x,), backprop=backprop)
