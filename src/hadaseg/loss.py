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
counts, and ``*_loss_from_sums`` combines the chunks' sums. The plain
discriminator loss is the one-chunk case. The generator's targets, a one-hot
row and a codebook row per pixel, are functions of its class index, so
``generator_loss_sums`` reads the label maps and the codebook rather than
dense targets. ``generator_loss`` and ``generator_loss_grads`` take dense
targets and compose the term functions; they are the reference whose
gradients the label path reproduces bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import astuple, dataclass
from functools import reduce

import numpy as np

from .codes import Codebook
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
    labels: np.ndarray,
    y_c_hat: np.ndarray,
    codebook: Codebook,
    counts: tuple[int, int, int],
    w: LossWeights = LossWeights(),
) -> tuple[GeneratorLossTerms, tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """One chunk's part of the generator loss over a batch, from its class
    indices.

    The targets are those of ``generator_loss``: the one-hot rows and the
    codebook rows of ``labels``, whose entries lie in [0, K) for the
    codebook's K classes, so ``y_hat`` and ``y_c_hat`` are
    ``[*labels.shape, n]``. ``counts`` are the element counts of the batch's
    patch map, probability map and code map. Returns the chunk's sum of each
    raw term, each the term's mean times its count
    (``generator_loss_from_sums`` combines them), and the gradients of the
    batch's weighted total w.r.t. the chunk's (alpha_fake, y_hat, y_c_hat).
    At ``w.lambda3`` 0 the code-map gradient is None: no gradient reaches
    ``y_c_hat``, and the raw code MAE is still summed.

    A one-hot target is 0 off the label, so the cross-entropy reads only
    the label column s of ``y_hat``, and |y_hat - y| is |y_hat| there and
    |s - 1| on it. Each gradient element comes from the scalar operations
    of ``cross_entropy_grad`` and ``mae_grad`` on the dense targets, in
    their order, so it equals bit for bit what ``generator_loss_grads``
    gives for a one-chunk batch. So do the MAE sums, which add the dense
    terms' elements in their order; the cross-entropy sum adds only the
    label column and may differ from the dense term in the last bits.
    """
    a_fake = np.asarray(alpha_fake, dtype=np.float64)
    y_hat = np.ascontiguousarray(y_hat, dtype=np.float64)
    y_c_hat = np.asarray(y_c_hat, dtype=np.float64)
    labels = np.asarray(labels)
    shape = (*labels.shape, codebook.n)
    for name, z_hat in (("y_hat", y_hat), ("y_c_hat", y_c_hat)):
        if z_hat.shape != shape:
            raise ShapeError(f"{name} {z_hat.shape} does not match labels and codebook {shape}")
    n_alpha, n_y, n_code = counts
    # Where each pixel's label column lies in the flattened maps.
    at_label = np.arange(labels.size) * codebook.n + labels.reshape(-1)

    adversarial = -_log_sum(a_fake)
    g_alpha = _clamped_log_grad(a_fake, -1.0, n_alpha)

    # Cross-entropy: -sum log(clamped s), and at the label the gradient
    # -1 / (N * clamped), zero where the clamp is active. Off the label it
    # is a negated 0, which adds nothing to the MAE gradient there.
    s = y_hat.reshape(-1)[at_label]
    clamped = np.maximum(s, LOG_CLAMP)
    ce = -float(np.log(clamped).sum())
    clamped *= n_y
    g_ce = np.divide(-1.0, clamped, out=clamped)
    g_ce *= s > LOG_CLAMP
    g_ce *= w.lambda1

    # Code MAE first. Its difference's buffer then holds |y_hat| and
    # becomes y_hat's gradient, so beyond the code-map gradient the function
    # makes one map.
    diff = np.take(codebook.float_matrix, labels, axis=0)
    np.subtract(y_c_hat, diff, out=diff)
    g_y_c_hat = _sign_scaled(diff, n_code, w.lambda3) if w.lambda3 != 0 else None
    distance = np.abs(diff, out=diff)
    mae_yc = float(distance.sum())
    odd = None if g_y_c_hat is None else _unsigned(distance)
    if odd is not None:
        # copysign(|diff|, copysign(c, diff)) is diff again, bit for bit.
        g_y_c_hat[odd] = _weighted_mae_grad(
            np.copysign(distance[odd], g_y_c_hat[odd]), n_code, w.lambda3
        )

    # MAE: y_hat - y is y_hat off the label and s - 1 on it. The distance
    # holds |s - 1|, not |y_hat|, in the label columns, whose gradient the
    # label term then replaces.
    s_minus_1 = s - 1.0
    distance = np.abs(y_hat, out=distance)
    distance.reshape(-1)[at_label] = np.abs(s_minus_1)
    mae_y = float(distance.sum())
    odd = _unsigned(distance)
    g_y_hat = _sign_scaled(y_hat, n_y, w.lambda2, out=distance)
    if odd is not None:
        g_y_hat[odd] = _weighted_mae_grad(y_hat[odd], n_y, w.lambda2)
    g_y_hat.reshape(-1)[at_label] = g_ce + _weighted_mae_grad(s_minus_1, n_y, w.lambda2)

    return GeneratorLossTerms(adversarial, ce, mae_y, mae_yc), (g_alpha, g_y_hat, g_y_c_hat)


def _weighted_mae_grad(diff: np.ndarray, count: int, weight: float) -> np.ndarray:
    """``weight * mae_grad`` over ``count`` elements, from the difference
    ``diff`` = z_hat - z. sign(diff) is -1, 0 or 1 (or NaN), so one product
    by (1 / count) * weight rounds as dividing by ``count`` and then
    multiplying by ``weight`` does."""
    return np.sign(diff) * (1.0 / count * weight)


def _sign_scaled(diff: np.ndarray, count: int, weight: float, out=None) -> np.ndarray:
    """``_weighted_mae_grad`` of a whole map wherever |diff| > 0, into
    ``out`` or a fresh array: copysign(c, diff), c = (1 / count) * weight.
    ``np.sign`` branches per element, so on the code difference, whose
    signs are random, the sign form took 1.3 against 0.9 ms for copysign
    (fresh outputs, [2, 64, 64, 64], one thread). Where |diff| is not > 0
    (see ``_unsigned``) copysign gives ±c, not sign(diff) * c."""
    return np.copysign(1.0 / count * weight, diff, out=out)


def _unsigned(distance: np.ndarray) -> np.ndarray | None:
    """The mask of the elements whose |diff|, ``distance``, is not > 0 (a
    zero or a NaN), or None when there is none, which one ``min`` finds."""
    if distance.size and not distance.min() > 0:
        return ~(distance > 0)
    return None


def _weighted_total(terms: GeneratorLossTerms, w: LossWeights) -> float:
    return (
        terms.adversarial
        + w.lambda1 * terms.cross_entropy
        + w.lambda2 * terms.mae_probability
        + w.lambda3 * terms.mae_code
    )


def generator_loss_from_sums(
    chunk_sums, counts: tuple[int, int, int], w: LossWeights = LossWeights()
) -> tuple[float, GeneratorLossTerms]:
    """The weighted total and the raw per-term means of a batch's generator
    loss, from its chunks' ``generator_loss_sums``."""
    n_alpha, n_y, n_code = counts
    terms = GeneratorLossTerms(*_means(map(astuple, chunk_sums), (n_alpha, n_y, n_y, n_code)))
    return _weighted_total(terms, w), terms


def generator_loss(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[float, GeneratorLossTerms]:
    """Four-term generator loss and its raw per-term breakdown, on dense
    targets: the reference that ``generator_loss_sums`` computes from class
    indices.

    total = S(1|alpha_fake) + lambda1 * S(y_hat|y)
          + lambda2 * MAE(y_hat, y) + lambda3 * MAE(y_c_hat, y_c)
    """
    a_fake = np.asarray(alpha_fake, dtype=np.float64)
    terms = GeneratorLossTerms(
        -_log_sum(a_fake) / a_fake.size,
        cross_entropy(y_hat, y),
        mae(y_hat, y),
        mae(y_c_hat, y_c),
    )
    return _weighted_total(terms, w), terms


def generator_loss_grads(
    alpha_fake,
    y_hat: np.ndarray,
    y: np.ndarray,
    y_c_hat: np.ndarray,
    y_c: np.ndarray,
    w: LossWeights = LossWeights(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of generator_loss w.r.t. (alpha_fake, y_hat, y_c_hat)."""
    a_fake = np.asarray(alpha_fake, dtype=np.float64)
    return (
        _clamped_log_grad(a_fake, -1.0, a_fake.size),
        w.lambda1 * cross_entropy_grad(y_hat, y) + w.lambda2 * mae_grad(y_hat, y),
        w.lambda3 * mae_grad(y_c_hat, y_c),
    )
