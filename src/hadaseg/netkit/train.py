"""Deterministic cGAN training loop.

Each step takes one batch and performs one discriminator update (real pair
scored against ones, predicted pair against zeros) followed by one generator
update (adversarial term through the refreshed discriminator plus the
weighted cross-entropy / MAE terms). Losses are computed outside the graph;
their analytic gradients seed the tape backward pass. Each update checks
that its loss and gradients are finite before Adam applies them.

Everything is derived from a single seed: weight init, batch order, and the
synthetic data stream if the caller built one the same way. Rerunning with
the same inputs reproduces the history byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..codes import sylvester
from ..data import Sample, common_resolution, encode_targets
from ..errors import ConfigError, TrainingDivergedError
from ..loss import (
    LossWeights,
    discriminator_loss,
    discriminator_loss_grads,
    generator_loss,
    generator_loss_grads,
)
from . import autodiff as ad
from .models import (
    HEAD_ONE_HOT,
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    build_discriminator,
    build_generator,
)
from .optim import adam_init, adam_step

LOSS_CSV_COLUMNS = ("step", "L_D", "S_adv", "S_ce", "MAE_y", "MAE_yc", "L_G_total")
METRICS_CSV_COLUMNS = ("step", "batch_pixel_accuracy")


def thread_count() -> int:
    """Worker threads available to the array kernels (documented in history)."""
    env = os.environ.get("OMP_NUM_THREADS")
    if env and env.isdigit():
        return int(env)
    return os.cpu_count() or 1


@dataclass
class History:
    """Per-step loss terms plus periodic batch metrics."""

    header: dict[str, str] = field(default_factory=dict)
    loss_rows: list[tuple] = field(default_factory=list)
    metric_rows: list[tuple] = field(default_factory=list)

    def _csv(self, columns: tuple[str, ...], rows: list[tuple]) -> str:
        lines = [
            "# " + " ".join(f"{k}={v}" for k, v in self.header.items()),
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"

    def loss_csv(self) -> str:
        return self._csv(LOSS_CSV_COLUMNS, self.loss_rows)

    def metrics_csv(self) -> str:
        return self._csv(METRICS_CSV_COLUMNS, self.metric_rows)


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 4
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    log_every: int = 1
    metrics_every: int = 50

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.log_every < 1 or self.metrics_every < 1:
            raise ConfigError("batch_size, log_every and metrics_every must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr={self.lr} must be positive and finite")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name}={value} outside [0, 1)")


def _check_finite(
    step: int, loss: float, grads: dict[str, np.ndarray], diagnostic: str
) -> None:
    """Raise TrainingDivergedError unless the loss and every gradient are
    finite, so that Adam never applies a non-finite update."""
    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
    if np.isfinite(loss) and not bad:
        return
    what = "loss" if not np.isfinite(loss) else "gradient"
    names = f"; non-finite gradients: {', '.join(bad)}" if bad else ""
    raise TrainingDivergedError(f"non-finite {what} at step {step}: {diagnostic}{names}")


class _BatchSampler:
    """Epoch-shuffled index stream, reproducible from its rng."""

    def __init__(self, count: int, rng: np.random.Generator):
        self._count = count
        self._rng = rng
        self._order = rng.permutation(count)
        self._pos = 0

    def take(self, size: int) -> np.ndarray:
        out = []
        while len(out) < size:
            if self._pos == self._count:
                self._order = self._rng.permutation(self._count)
                self._pos = 0
            out.append(self._order[self._pos])
            self._pos += 1
        return np.array(out)


def train_cgan(
    gen_cfg: GeneratorConfig,
    disc_cfg: DiscriminatorConfig,
    dataset: list[Sample],
    steps: int,
    seed: int,
    weights: LossWeights = LossWeights(),
    settings: TrainSettings = TrainSettings(),
    num_classes: int | None = None,
) -> tuple[Generator, Discriminator, History]:
    """Train generator and discriminator for ``steps`` batches.

    ``num_classes`` defaults to (max dataset label + 1). For the one-hot
    head the code-MAE term carries zero weight; its raw value is still
    logged so the two heads produce comparable histories.
    """
    if not dataset:
        raise ConfigError("dataset must not be empty")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    height, width = common_resolution(dataset)
    if num_classes is None:
        num_classes = int(max(s.labels.labels.max() for s in dataset)) + 1
    gen_cfg.check_num_classes(num_classes)
    gen_cfg.check_input_size(height, width)
    disc_cfg.check_input_size(height, width)

    seeds = np.random.SeedSequence(seed).spawn(3)
    gen = build_generator(gen_cfg, seed=seeds[0])
    disc = build_discriminator(
        disc_cfg,
        input_channels=gen_cfg.input_channels + gen_cfg.output_channels,
        seed=seeds[1],
    )

    codebook = sylvester(gen_cfg.code_bits, num_classes=num_classes)
    effective = weights if gen_cfg.head != HEAD_ONE_HOT else replace(weights, lambda3=0.0)

    history = History(
        header={
            "threads": str(thread_count()),
            "trainable-parameters": str(gen.parameter_count()),
            "head": gen_cfg.head,
            "seed": str(seed),
            "steps": str(steps),
            "batch_size": str(settings.batch_size),
            "k": str(gen_cfg.code_bits),
            "num_classes": str(num_classes),
        }
    )
    if steps == 0:
        return gen, disc, history

    sampler = _BatchSampler(len(dataset), np.random.default_rng(seeds[2]))
    gen_params = {name: p.value for name, p in gen.parameters.items()}
    disc_params = {name: p.value for name, p in disc.parameters.items()}
    gen_state = adam_init(gen_params)
    disc_state = adam_init(disc_params)

    for step in range(1, steps + 1):
        idx = sampler.take(settings.batch_size)
        x = np.stack([dataset[i].image for i in idx])
        encoded = [encode_targets(dataset[i].labels, codebook) for i in idx]
        y_one_hot = np.stack([e.one_hot for e in encoded])
        y_code = np.stack([e.hadamard for e in encoded])
        labels = np.stack([dataset[i].labels.labels for i in idx])

        # Generator forward (tape kept for the generator update).
        y_hat, y_c = gen.forward(x)

        # Discriminator update: the predicted map enters as a raw array so
        # no gradient reaches the generator here.
        alpha_real = disc.forward(np.concatenate((x, y_one_hot), axis=-1))
        alpha_fake = disc.forward(np.concatenate((x, y_hat.value), axis=-1))
        loss_d = discriminator_loss(alpha_real.value, alpha_fake.value)
        g_real, g_fake = discriminator_loss_grads(alpha_real.value, alpha_fake.value)
        ad.backward([(alpha_real, g_real), (alpha_fake, g_fake)])
        disc_grads = {name: p.grad for name, p in disc.parameters.items()}
        _check_finite(step, loss_d, disc_grads, f"L_D={loss_d}")
        adam_step(
            disc_params,
            disc_grads,
            disc_state,
            lr=settings.lr,
            beta1=settings.beta1,
            beta2=settings.beta2,
            eps=settings.eps,
        )
        # Release the discriminator tape (both pairs' im2col buffers) before
        # the generator update builds its own.
        del alpha_real, alpha_fake

        # Generator update through the refreshed discriminator. Its
        # Parameters need no gradient until this update's backward is done,
        # so that backward computes no discriminator weight gradient.
        ad.set_needs_grad(disc.parameters.values(), False)
        alpha_gen = disc.forward(ad.channel_concat(ad.as_node(x), y_hat))
        total, terms = generator_loss(
            alpha_gen.value, y_hat.value, y_one_hot, y_c.value, y_code, effective
        )
        g_alpha, g_y_hat, g_y_c = generator_loss_grads(
            alpha_gen.value, y_hat.value, y_one_hot, y_c.value, y_code, effective
        )
        seeds_g = [(alpha_gen, g_alpha), (y_hat, g_y_hat)]
        if effective.lambda3 != 0.0:
            seeds_g.append((y_c, g_y_c))
        ad.backward(seeds_g)
        ad.set_needs_grad(disc.parameters.values(), True)
        gen_grads = {name: p.grad for name, p in gen.parameters.items()}
        _check_finite(
            step,
            total,
            gen_grads,
            f"L_D={loss_d} L_G={total} "
            f"(adv={terms.adversarial} ce={terms.cross_entropy} "
            f"mae_y={terms.mae_probability} mae_yc={terms.mae_code})",
        )
        adam_step(
            gen_params,
            gen_grads,
            gen_state,
            lr=settings.lr,
            beta1=settings.beta1,
            beta2=settings.beta2,
            eps=settings.eps,
        )

        # Raw code-MAE is logged for both heads; only the weighted total
        # depends on the head.
        raw_mae_yc = terms.mae_code
        if step % settings.log_every == 0 or step == steps:
            history.loss_rows.append(
                (
                    step,
                    loss_d,
                    terms.adversarial,
                    terms.cross_entropy,
                    terms.mae_probability,
                    raw_mae_yc,
                    total,
                )
            )
        if step % settings.metrics_every == 0 or step == steps:
            predicted = np.argmax(y_hat.value[..., :num_classes], axis=-1)
            accuracy = float((predicted == labels).mean())
            history.metric_rows.append((step, accuracy))
        # Release this step's tape before the next step builds its own.
        del y_hat, y_c, alpha_gen, seeds_g

    return gen, disc, history
