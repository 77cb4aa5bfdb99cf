"""The Hadamard layer: per-pixel softmax(H^T @ y_c) and its exact gradient.

The layer has no trainable parameters. Its forward pass correlates the
incoming channel vector against every codeword at once (one fast transform
per pixel) and normalizes with a softmax, so codeword-like activations turn
into near-one-hot probability vectors.
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


def _softmax_last_axis(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The softmax Jacobian-vector product over the last axis, s*g - s*(s.g),
    for probabilities s and incoming gradient g."""
    inner = (s * g).sum(axis=-1, keepdims=True)
    return s * g - s * inner


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
