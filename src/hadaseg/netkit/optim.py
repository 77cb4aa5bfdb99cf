"""Adam optimizer with bias correction, operating on named arrays in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError

# Added to the root of the second moment so a zero gradient divides safely.
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 2e-4,
    beta1: float = 0.5,
    beta2: float = 0.999,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update; mutates ``params`` and ``state`` and returns them."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != param shape {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state
