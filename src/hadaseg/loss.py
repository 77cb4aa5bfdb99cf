"""cGAN loss suite: cross-entropy, MAE, discriminator and generator losses.

The discriminator loss scores the real pair against an all-ones target map
and the predicted pair against all-zeros. The generator loss combines the
adversarial term with weighted cross-entropy and MAE terms on the
probability map, plus an MAE term on the pre-layer code prediction.

Every loss has a matching analytic gradient helper so the training loop can
seed the network backward pass without the losses living inside the graph.
All means are over total element count, which keeps magnitudes independent
of resolution; see the README note on the weight calibration this implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Probabilities are clamped here before any log; keeps saturated
# discriminator or softmax outputs from producing -inf.
LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Relative weights of the generator's non-adversarial terms."""

    lambda1: float = 1000.0  # cross-entropy on the probability map
    lambda2: float = 100.0  # MAE on the probability map
    lambda3: float = 250.0  # MAE on the pre-layer code prediction

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class DiscriminatorOutput:
    """A patch map of probabilities that each receptive field is real."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha)
        if not (np.all(a > 0.0) and np.all(a < 1.0)):
            raise ValueError("alpha entries must lie strictly in (0, 1)")


@dataclass(frozen=True)
class GeneratorLossTerms:
    """Raw (unweighted) values of the four generator loss terms."""

    adversarial: float
    cross_entropy: float
    mae_probability: float
    mae_code: float


def _alpha_array(a) -> np.ndarray:
    if isinstance(a, DiscriminatorOutput):
        a = a.alpha
    return np.asarray(a, dtype=np.float64)


def _check_same_shape(z_hat: np.ndarray, z: np.ndarray) -> None:
    if z_hat.shape != z.shape:
        raise ShapeError(f"shape mismatch: {z_hat.shape} vs {z.shape}")


def cross_entropy(z_hat: np.ndarray, z: np.ndarray) -> float:
    """-(1/N) sum z * log(max(z_hat, clamp)) over all N elements."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_same_shape(z_hat, z)
    clamped = np.maximum(z_hat, LOG_CLAMP)
    return float(-(z * np.log(clamped)).mean())


def cross_entropy_grad(z_hat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """d cross_entropy / d z_hat; zero wherever the clamp is active."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_same_shape(z_hat, z)
    n = z.size
    grad = -z / (n * np.maximum(z_hat, LOG_CLAMP))
    grad *= z_hat > LOG_CLAMP
    return grad


def mae(z_hat: np.ndarray, z: np.ndarray) -> float:
    """(1/N) sum |z_hat - z| over all N elements."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_same_shape(z_hat, z)
    return float(np.abs(z_hat - z).mean())


def mae_grad(z_hat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """d mae / d z_hat = sign(z_hat - z) / N (zero at exact equality)."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_same_shape(z_hat, z)
    return np.sign(z_hat - z) / z.size


def _mean_log(a: np.ndarray) -> float:
    return float(np.log(np.maximum(a, LOG_CLAMP)).mean())


def _clamped_log_grad(a: np.ndarray, sign: float) -> np.ndarray:
    """d/da of sign * _mean_log(a): sign / (N * a), and 0 where the clamp is active."""
    return np.where(a > LOG_CLAMP, sign / (a.size * np.maximum(a, LOG_CLAMP)), 0.0)


def discriminator_loss(alpha_real, alpha_fake) -> float:
    """S(1 | alpha_real) + S(0 | alpha_fake).

    S(1|a) is the cross-entropy of a against an all-ones target over the
    patch map, i.e. -(1/N) sum log a; S(0|a) is -(1/N) sum log(1 - a).
    """
    a_real = _alpha_array(alpha_real)
    a_fake = _alpha_array(alpha_fake)
    return -_mean_log(a_real) - _mean_log(1.0 - a_fake)


def discriminator_loss_grads(alpha_real, alpha_fake) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of discriminator_loss w.r.t. both patch maps."""
    a_real = _alpha_array(alpha_real)
    a_fake = _alpha_array(alpha_fake)
    # d/da_fake of -_mean_log(1 - a_fake) is +1 / (N * (1 - a_fake)).
    return _clamped_log_grad(a_real, -1.0), _clamped_log_grad(1.0 - a_fake, 1.0)


def generator_loss(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[float, GeneratorLossTerms]:
    """Four-term generator loss and its raw per-term breakdown.

    total = S(1|alpha_fake) + lambda1 * S(y_hat|y)
          + lambda2 * MAE(y_hat, y) + lambda3 * MAE(y_c_hat, y_c)
    """
    a_fake = _alpha_array(alpha_fake)
    adversarial = -_mean_log(a_fake)
    ce = cross_entropy(y_hat, y)
    mae_y = mae(y_hat, y)
    mae_yc = mae(y_c_hat, y_c)
    total = adversarial + w.lambda1 * ce + w.lambda2 * mae_y + w.lambda3 * mae_yc
    return total, GeneratorLossTerms(
        adversarial=adversarial,
        cross_entropy=ce,
        mae_probability=mae_y,
        mae_code=mae_yc,
    )


def generator_loss_grads(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of generator_loss w.r.t. (alpha_fake, y_hat, y_c_hat)."""
    a_fake = _alpha_array(alpha_fake)
    g_alpha = _clamped_log_grad(a_fake, -1.0)
    g_y_hat = w.lambda1 * cross_entropy_grad(y_hat, y) + w.lambda2 * mae_grad(y_hat, y)
    g_y_c_hat = w.lambda3 * mae_grad(y_c_hat, y_c)
    return g_alpha, g_y_hat, g_y_c_hat
