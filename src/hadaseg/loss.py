"""cGAN loss suite: cross-entropy, MAE, discriminator and generator losses.

The discriminator loss scores the real pair against an all-ones target map
and the predicted pair against all-zeros. The generator loss combines the
adversarial term with weighted cross-entropy and MAE terms on the
probability map, plus an MAE term on the pre-layer code prediction.

Every loss has a matching analytic gradient helper so the training loop can
seed the network backward pass without the losses living inside the graph.
All means are over total element count, which keeps magnitudes independent
of resolution; see the README note on the weight calibration this implies.

The discriminator and generator losses are computed per chunk of a batch:
``*_loss_sums`` returns a chunk's raw per-term sums and the gradients of the
whole batch's loss w.r.t. the chunk's maps, given the batch's element
counts, and ``*_loss_from_sums`` combines the chunks' sums. The plain loss
functions are the one-chunk case.
"""

from __future__ import annotations

import operator
from dataclasses import astuple, dataclass
from functools import reduce

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
class GeneratorLossTerms:
    """Raw (unweighted) values of the four generator loss terms: their
    means over a batch, or one chunk's sums (``generator_loss_sums``)."""

    adversarial: float
    cross_entropy: float
    mae_probability: float
    mae_code: float


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


def _log_sum(a: np.ndarray) -> float:
    return float(np.log(np.maximum(a, LOG_CLAMP)).sum())


def _clamped_log_grad(a: np.ndarray, sign: float, count: int) -> np.ndarray:
    """d/da of sign * (1/count) sum log(max(a, clamp)): sign / (count * a),
    and 0 where the clamp is active."""
    return np.where(a > LOG_CLAMP, sign / (count * np.maximum(a, LOG_CLAMP)), 0.0)


def _means(chunk_sums, counts) -> list[float]:
    """Each term's batch mean: its chunk sums, added in chunk order, over
    its count. With one chunk this is sum / count, which is bit for bit
    what ``np.mean`` gives."""
    return [reduce(operator.add, sums) / count for sums, count in zip(zip(*chunk_sums), counts)]


def discriminator_loss_sums(
    alpha_real, alpha_fake, counts: tuple[int, int]
) -> tuple[tuple[float, float], tuple[np.ndarray, np.ndarray]]:
    """One chunk's part of ``discriminator_loss`` over a batch.

    ``counts`` are the element counts of the batch's real and fake patch
    maps. Returns the chunk's sums of -log(a_real) and -log(1 - a_fake)
    (clamped as in the loss), which ``discriminator_loss_from_sums``
    combines, and the gradients of the batch loss w.r.t. the chunk's maps.
    """
    a_real = np.asarray(alpha_real, dtype=np.float64)
    one_minus = 1.0 - np.asarray(alpha_fake, dtype=np.float64)
    sums = (-_log_sum(a_real), -_log_sum(one_minus))
    # d/da_fake of -mean log(1 - a_fake) is +1 / (N * (1 - a_fake)).
    grads = (
        _clamped_log_grad(a_real, -1.0, counts[0]),
        _clamped_log_grad(one_minus, 1.0, counts[1]),
    )
    return sums, grads


def discriminator_loss_from_sums(chunk_sums, counts: tuple[int, int]) -> float:
    """``discriminator_loss`` of a batch from its chunks' sums."""
    real, fake = _means(chunk_sums, counts)
    return real + fake


def discriminator_loss(alpha_real, alpha_fake) -> float:
    """S(1 | alpha_real) + S(0 | alpha_fake).

    S(1|a) is the cross-entropy of a against an all-ones target over the
    patch map, i.e. -(1/N) sum log a; S(0|a) is -(1/N) sum log(1 - a).
    """
    counts = (np.size(alpha_real), np.size(alpha_fake))
    sums, _ = discriminator_loss_sums(alpha_real, alpha_fake, counts)
    return discriminator_loss_from_sums([sums], counts)


def discriminator_loss_grads(alpha_real, alpha_fake) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of discriminator_loss w.r.t. both patch maps."""
    counts = (np.size(alpha_real), np.size(alpha_fake))
    return discriminator_loss_sums(alpha_real, alpha_fake, counts)[1]


def generator_loss_sums(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    counts: tuple[int, int, int],
    w: LossWeights = LossWeights(),
) -> tuple[GeneratorLossTerms, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One chunk's part of the generator loss over a batch, in one pass.

    ``counts`` are the element counts of the batch's patch map, probability
    map and code map. Returns the chunk's sum of each raw term, each the
    term's mean times its count (``generator_loss_from_sums`` combines
    them), and the gradients of the batch's weighted total w.r.t. the
    chunk's (alpha_fake, y_hat, y_c_hat).

    The clamped map, the log and the differences serve both the sums and
    the gradients, and the gradients are built in place in them. Every
    value equals, bit for bit, what ``cross_entropy``, ``mae`` and their
    ``_grad`` helpers give for a one-chunk batch: the operations differ from
    theirs only in the operand order of a product or a sum and in negating
    a quotient rather than its numerator, all of which round the same.
    """
    a_fake = np.asarray(alpha_fake, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    y_c_hat = np.asarray(y_c_hat, dtype=np.float64)
    y_c = np.asarray(y_c, dtype=np.float64)
    _check_same_shape(y_hat, y)
    _check_same_shape(y_c_hat, y_c)
    n_alpha, n_y, n_code = counts

    adversarial = -_log_sum(a_fake)
    g_alpha = _clamped_log_grad(a_fake, -1.0, n_alpha)

    # Cross-entropy: -sum y * log(clamped), and its gradient
    # -y / (N * clamped), zero where the clamp is active.
    clamped = np.maximum(y_hat, LOG_CLAMP)
    log_term = np.log(clamped)
    log_term *= y
    ce = -float(log_term.sum())
    del log_term
    clamped *= n_y
    g_y_hat = np.divide(y, clamped, out=clamped)
    np.negative(g_y_hat, out=g_y_hat)
    g_y_hat *= y_hat > LOG_CLAMP
    g_y_hat *= w.lambda1

    mae_y, mae_grad_y = _mae_sum_and_grad(y_hat, y, n_y)
    mae_grad_y *= w.lambda2
    g_y_hat += mae_grad_y
    del mae_grad_y

    mae_yc, g_y_c_hat = _mae_sum_and_grad(y_c_hat, y_c, n_code)
    g_y_c_hat *= w.lambda3

    return GeneratorLossTerms(adversarial, ce, mae_y, mae_yc), (g_alpha, g_y_hat, g_y_c_hat)


def _mae_sum_and_grad(z_hat: np.ndarray, z: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """sum |z_hat - z| and ``mae_grad`` over ``count`` elements, from one
    difference array."""
    diff = z_hat - z
    grad = np.sign(diff)
    grad /= count
    np.abs(diff, out=diff)
    return float(diff.sum()), grad


def generator_loss_from_sums(
    chunk_sums, counts: tuple[int, int, int], w: LossWeights = LossWeights()
) -> tuple[float, GeneratorLossTerms]:
    """The weighted total and the raw per-term means of a batch's generator
    loss, from its chunks' ``generator_loss_sums``."""
    n_alpha, n_y, n_code = counts
    adversarial, ce, mae_y, mae_yc = _means(map(astuple, chunk_sums), (n_alpha, n_y, n_y, n_code))
    total = adversarial + w.lambda1 * ce + w.lambda2 * mae_y + w.lambda3 * mae_yc
    return total, GeneratorLossTerms(adversarial, ce, mae_y, mae_yc)


def generator_loss(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[float, GeneratorLossTerms]:
    """Four-term generator loss and its raw per-term breakdown: the
    one-chunk case of ``generator_loss_sums``.

    total = S(1|alpha_fake) + lambda1 * S(y_hat|y)
          + lambda2 * MAE(y_hat, y) + lambda3 * MAE(y_c_hat, y_c)
    """
    counts = (np.size(alpha_fake), np.size(y), np.size(y_c))
    sums, _ = generator_loss_sums(alpha_fake, y_hat, y, y_c_hat, y_c, counts, w)
    return generator_loss_from_sums([sums], counts, w)


def generator_loss_grads(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of generator_loss w.r.t. (alpha_fake, y_hat, y_c_hat)."""
    counts = (np.size(alpha_fake), np.size(y), np.size(y_c))
    return generator_loss_sums(alpha_fake, y_hat, y, y_c_hat, y_c, counts, w)[1]
