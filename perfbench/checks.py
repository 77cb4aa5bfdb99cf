"""Untimed correctness checks: gradient checks and recorded references."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hadaseg import codes
from hadaseg.netkit import autodiff as ad

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Central differences on smooth float64 functions at these shapes agree
# with the analytic gradient to about 1e-9; 1e-6 leaves room for rounding.
GRADIENT_TOLERANCE = 1e-6
_FD_STEP = 1e-6


def _gradient_error(op, inputs: list[np.ndarray], seed: int) -> float:
    """Max relative error of op's analytic input gradients against central
    differences of the scalar sum(op(inputs) * g) for a random g."""
    rng = np.random.default_rng(seed)
    nodes = [ad.constant(x.copy()) for x in inputs]
    out = op(*nodes)
    g = rng.standard_normal(out.value.shape)
    ad.backward([(out, g)])

    def objective() -> float:
        return float((op(*[ad.constant(x) for x in inputs]).value * g).sum())

    worst = 0.0
    for x, node in zip(inputs, nodes):
        numeric = np.zeros_like(x)
        flat, num_flat = x.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + _FD_STEP
            plus = objective()
            flat[i] = original - _FD_STEP
            minus = objective()
            flat[i] = original
            num_flat[i] = (plus - minus) / (2 * _FD_STEP)
        scale = max(np.abs(numeric).max(), np.abs(node.grad).max(), 1e-8)
        worst = max(worst, float(np.abs(numeric - node.grad).max() / scale))
    return worst


def gradient_checks() -> dict[str, float]:
    """Finite-difference checks of conv2d, hadamard_head and
    per_pixel_softmax at tiny shapes; returns the error of each."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 4, 4, 3))
    w = rng.standard_normal((3, 3, 3, 2))
    b = rng.standard_normal(2)
    cb = codes.sylvester(2)
    codes_in = rng.standard_normal((2, 3, 3, cb.n))
    return {
        "conv2d_s1": _gradient_error(lambda *n: ad.conv2d(*n, stride=1), [x, w, b], 1),
        "conv2d_s2": _gradient_error(lambda *n: ad.conv2d(*n, stride=2), [x, w, b], 2),
        "hadamard_head": _gradient_error(lambda n: ad.hadamard_head(n, cb), [codes_in], 3),
        "per_pixel_softmax": _gradient_error(ad.per_pixel_softmax, [codes_in], 4),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))


def close(measured: dict[str, float], expected: dict[str, float], rtol: float) -> bool:
    """Every expected value is matched within a relative tolerance."""
    return all(
        key in measured and math.isclose(measured[key], value, rel_tol=rtol, abs_tol=0.0)
        for key, value in expected.items()
    )
