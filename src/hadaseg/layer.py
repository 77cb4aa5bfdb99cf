"""The Hadamard layer: per-pixel softmax(H^T @ y_c) and its exact gradient.

The layer has no trainable parameters. Its forward pass correlates the
incoming channel vector against every codeword at once (one fast transform
per pixel) and normalizes with a softmax, so codeword-like activations turn
into near-one-hot probability vectors.

The softmax kernels make no sum over the short channel axis: numpy runs
such a reduction as one short strided loop per pixel. On an [8, 64, 64, 8]
map, ``.sum(axis=-1)`` takes 0.8 ms against 0.15 ms for ``@ np.ones(8)``
(one thread, 2-vCPU Xeon VM), so row sums and dot products are
matrix-vector products. A row max has the same per-pixel cost but no
product form: on [2, 64, 64, n] maps ``.max(axis=-1)`` took 0.71 ms at
n = 8 and 0.95 ms at n = 64, against 0.27 and 1.28 ms for halving the
axis with ``np.maximum`` into fresh arrays, and about as long at n = 32
(0.79 against 0.77 ms). So rows narrower than 32 are halved and wider
ones take ``.max``.
Halving inside one reused buffer was slower at every width (0.37 ms at
n = 8, 1.79 ms at n = 64), because numpy buffers an output that overlaps
its input.

The forward runs the softmax in place on the transform's fresh output, so
it makes one [..., n] map. The backward makes one map, its result, and
fills it block by block: a block's s*g, s*(s.g) (built in the result's
block) and their difference stay in the core's cache until the transform
writes its product over the block. At k = 6 inside training steps (chunks
of 4 images, one thread) that took 8.5 against 11.5 ms for the same passes
over whole maps; blocking the forward gained nothing measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import Codebook, fwht, fwht_apply
from .errors import ShapeError


@dataclass(frozen=True)
class LayerActivation:
    """The forward state that the backward pass reads."""

    output: np.ndarray  # [..., n], rows are probability vectors


# The narrowest rows whose max is one ``.max`` call rather than halvings.
_MAX_REDUCE_WIDTH = 32
# The backward's blocks: this many bytes of each [..., n] map, so that a
# block's intermediate results fit in a 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 19


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims, equal to ``x.max(axis=-1)``.

    Rows narrower than ``_MAX_REDUCE_WIDTH`` are halved with ``np.maximum``,
    and an odd width folds its last column into the first. A max rounds
    nothing, so the order is free; only a row whose max is a tie of +0.0
    and -0.0 may return either zero, and subtracting either from the row
    gives the same exponentials.
    """
    if x.shape[-1] >= _MAX_REDUCE_WIDTH:
        return x.max(axis=-1, keepdims=True)
    m = x
    while m.shape[-1] > 1:
        half = m.shape[-1] // 2
        folded = np.maximum(m[..., :half], m[..., half : 2 * half])
        if m.shape[-1] % 2:
            np.maximum(folded[..., :1], m[..., -1:], out=folded[..., :1])
        m = folded
    return m


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    """The softmax over the last axis, written over ``logits``."""
    logits -= _row_max(logits)
    np.exp(logits, out=logits)
    logits /= (logits @ np.ones(logits.shape[-1]))[..., None]
    return logits


def _softmax_last_axis(logits: np.ndarray) -> np.ndarray:
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_backward(s: np.ndarray, g: np.ndarray, scratch=None) -> np.ndarray:
    """The softmax Jacobian-vector product over the last axis, s*g - s*(s.g),
    for probabilities s and incoming gradient g, as a fresh array. The term
    s*(s.g) is built in ``scratch`` when given (an array of s's shape),
    else in a fresh one."""
    sg = s * g
    sg -= np.multiply(s, (sg @ np.ones(s.shape[-1]))[..., None], out=scratch)
    return sg


def _image_blocks(a: np.ndarray) -> tuple[np.ndarray, list]:
    """``a`` [..., W, n] as a [P, W, n] view, and the index of each of its
    blocks: consecutive [W, n] images, as many as fit in ``_BLOCK_BYTES``
    and at least one. Below three axes the whole map is one block. A row
    sum ``x @ ones`` runs one matrix-vector product per [W, n] image in a
    block as in the whole map, and the transform's product rounds a
    block's rows as it does the whole map's
    (``test_head_equals_separate_passes``), so the blocks give the whole
    map's bytes."""
    if a.ndim < 3:
        return a, [...]
    images = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])
    step = max(1, _BLOCK_BYTES // max(1, 8 * a.shape[-2] * a.shape[-1]))
    return images, [slice(start, start + step) for start in range(0, len(images), step)]


def hadamard_forward(cb: Codebook, y_c: np.ndarray) -> LayerActivation:
    """Forward pass over the channel (last) axis of y_c.

    y_c may carry any leading axes ([H, W, n] or [B, H, W, n]); every pixel
    is independent. The transform is unnormalized (no 1/n factor), so an
    exact codeword gives logit n at its own class.
    """
    return LayerActivation(output=_softmax_in_place(fwht_apply(cb, y_c)))


def hadamard_backward(act: LayerActivation, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of the forward pass w.r.t. its input.

    Per pixel, with s the output probabilities and g the incoming gradient:
    the softmax Jacobian-vector product is s*g - s*(s.g), and the transform
    contributes another H application (H is symmetric), so

        dL/dy_c = H @ (s * g - s * (s . g)).
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != act.output.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != activation shape {act.output.shape}"
        )
    (s, blocks), (g, _) = _image_blocks(act.output), _image_blocks(grad_out)
    out = np.empty(s.shape)
    for block in blocks:
        fwht(_softmax_backward(s[block], g[block], out[block]), out=out[block])
    return out.reshape(grad_out.shape)
