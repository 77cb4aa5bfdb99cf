"""The Hadamard layer: per-pixel softmax(H^T @ y_c) and its exact gradient.

The layer has no trainable parameters. Its forward pass correlates the
incoming channel vector against every codeword at once (one fast transform
per pixel) and normalizes with a softmax, so codeword-like activations turn
into near-one-hot probability vectors.

The softmax kernels make no reduction over the short channel axis: numpy
runs such a reduction as one short strided loop per pixel. On an
[8, 64, 64, 8] map, ``.max(axis=-1)`` takes 2.5-2.9 ms and
``.sum(axis=-1)`` 0.8 ms, against 0.15 ms for ``@ np.ones(8)`` (one thread,
2-vCPU Xeon VM). Row sums and dot products are therefore matrix-vector
products, and the row max halves the axis with ``np.maximum`` (1.2 ms
there). At n = 64 the halving alone is slower than ``.max`` (4.9 against
3.5 ms on [8, 64, 64, 64]), but the whole forward still drops from 29 to
16 ms, so one formulation serves every width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Codebook, fwht, fwht_apply
from .errors import ShapeError


@dataclass(frozen=True)
class LayerActivation:
    """Cached forward state: raw input, H-transformed logits, probabilities."""

    input: np.ndarray  # [..., n]
    transformed: np.ndarray  # [..., n], scale * (H @ input) per pixel
    output: np.ndarray  # [..., n], rows are probability vectors
    scale: float


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims, equal to ``x.max(axis=-1)``.

    The axis is halved with ``np.maximum``, and an odd width folds its last
    column into the first. A max rounds nothing, so the order is free; only
    a row whose max is a tie of +0.0 and -0.0 may return either zero.
    """
    m = x
    while m.shape[-1] > 1:
        half = m.shape[-1] // 2
        folded = np.maximum(m[..., :half], m[..., half : 2 * half])
        if m.shape[-1] % 2:
            np.maximum(folded[..., :1], m[..., -1:], out=folded[..., :1])
        m = folded
    return m


def _softmax_last_axis(logits: np.ndarray) -> np.ndarray:
    e = logits - _row_max(logits)
    np.exp(e, out=e)
    e /= (e @ np.ones(e.shape[-1]))[..., None]
    return e


def _softmax_backward(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The softmax Jacobian-vector product over the last axis, s*g - s*(s.g),
    for probabilities s and incoming gradient g."""
    sg = s * g
    sg -= s * (sg @ np.ones(s.shape[-1]))[..., None]
    return sg


def hadamard_forward(cb: Codebook, y_c: np.ndarray, scale: float = 1.0) -> LayerActivation:
    """Forward pass over the channel (last) axis of y_c.

    y_c may carry any leading axes ([H, W, n] or [B, H, W, n]); every pixel
    is independent. ``scale`` multiplies the transformed logits before the
    softmax and acts as an inverse temperature; the default 1 applies the
    transform with no normalization.
    """
    y_c = np.asarray(y_c, dtype=np.float64)
    if y_c.shape[-1] != cb.n:
        raise ShapeError(
            f"channel count {y_c.shape[-1]} != codebook order {cb.n}"
        )
    transformed = fwht_apply(cb, y_c)
    if scale != 1.0:
        transformed = transformed * scale
    output = _softmax_last_axis(transformed)
    return LayerActivation(input=y_c, transformed=transformed, output=output, scale=scale)


def hadamard_backward(act: LayerActivation, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of the forward pass w.r.t. its input.

    Per pixel, with s the output probabilities and g the incoming gradient:
    the softmax Jacobian-vector product is s*g - s*(s.g), and the transform
    contributes another H application (H is symmetric), so

        dL/dy_c = scale * H @ (s * g - s * (s . g)).
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != act.output.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != activation shape {act.output.shape}"
        )
    grad_in = fwht(_softmax_backward(act.output, grad_out))
    if act.scale != 1.0:
        grad_in = grad_in * act.scale
    return grad_in
