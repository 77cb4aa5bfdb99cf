"""Deterministic cGAN training loop.

Each step takes one batch and performs one discriminator update (real pair
scored against ones, predicted pair against zeros) followed by one generator
update (adversarial term through the refreshed discriminator plus the
weighted cross-entropy / MAE terms). Losses are computed outside the graph;
their analytic gradients seed the tape backward pass. Each update checks
that its loss and gradients are finite before Adam applies them.

A step is data-parallel up to Adam. Nothing couples the samples of a batch
before the losses (the networks have no batch statistics), and every loss
term is a mean over the batch, so the batch is split into P chunks with
``np.array_split`` and each chunk does its own part of both updates. The
chunks run concurrently, the first on the calling thread and the others on
a pool that ``train_cgan`` owns and joins before it returns or raises. Each
encodes its own targets, runs its forwards, computes its loss terms' sums
and gradients (``loss.*_loss_sums``) and walks its own backward
(``autodiff.gradients``). Only the loss sums and the Parameters' gradients
cross threads. Both are added in chunk order; the sums are then divided by
the whole batch's element counts. P is the number of usable CPUs that BLAS
leaves idle (see ``thread_count``), so a BLAS that already runs a thread
per CPU gets P = 1, a step of one chunk, and starts no thread.

Everything is derived from a single seed: weight init, batch order, and the
synthetic data stream if the caller built one the same way. Rerunning with
the same inputs reproduces the history byte for byte. At P = 1 every value
is what an unchunked step computes. At other P every per-element loss
gradient is still the same, but the logged loss values are sums of
per-chunk sums and the weight gradients sum over the chunks, so both may
differ in the last bits. A chunk's discriminator gradient sums its real
and fake passes before the chunks are added: at P = 2 it is
(r0 + f0) + (r1 + f1), for the real and fake passes r and f of chunks 0
and 1.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from ..codes import sylvester
from ..data import Sample, common_resolution, encode_targets
from ..errors import ConfigError, TrainingDivergedError
from ..loss import (
    LossWeights,
    discriminator_loss_from_sums,
    discriminator_loss_sums,
    generator_loss_from_sums,
    generator_loss_sums,
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, or None when no
    OpenBLAS is loaded or it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def thread_count(batch_size: int, blas_threads: int | None) -> int:
    """Threads a training step runs on, the P of the module docstring.

    One per usable CPU that BLAS leaves idle when it runs ``blas_threads``
    threads, and at most one per sample of the batch; 1 when the BLAS
    thread count is unknown. More threads contend with BLAS for the CPUs:
    on 2 CPUs with 2 BLAS threads, a step at the C7 smoke shapes took 94 ms
    in two chunks against 69 ms in one.
    """
    if blas_threads is None or blas_threads < 1:
        return 1
    return max(1, min(batch_size, _usable_cpus() // blas_threads))


def _batch_counts(batch_size: int, *maps: np.ndarray) -> tuple[int, ...]:
    """Element counts of the whole batch's maps, from one chunk's maps."""
    return tuple(m.size // len(m) * batch_size for m in maps)


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


def _map_chunks(pool: ThreadPoolExecutor, fn, chunks) -> list:
    """``[fn(chunk) for chunk in chunks]``, the first chunk on the calling
    thread and the others on ``pool``, which a single chunk never touches.
    Every call finishes before this returns or raises; the first chunk's
    exception wins, then the others' in chunk order."""
    futures = [pool.submit(fn, chunk) for chunk in chunks[1:]]
    try:
        results = [fn(chunk) for chunk in chunks[:1]]
    finally:
        wait(futures)
    return results + [future.result() for future in futures]


def _sum_chunk_grads(parameters: dict[str, ad.Parameter], chunk_grads) -> dict[str, np.ndarray]:
    """Each Parameter's gradients from the chunks' ``autodiff.gradients``
    calls, added in chunk order; returns the sums by name. No Parameter's
    ``.grad`` is written."""
    sums = {name: chunk_grads[0][p] for name, p in parameters.items()}
    for leaf_grads in chunk_grads[1:]:
        for name, p in parameters.items():
            sums[name] += leaf_grads[p]
    return sums


@dataclass
class _Chunk:
    """One chunk of a step's batch: its inputs, targets and generator
    outputs, shared by both updates."""

    x: np.ndarray
    y_one_hot: np.ndarray
    y_code: np.ndarray
    y_hat: ad.Node
    y_c: ad.Node


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

    blas_threads = _blas_threads()
    workers = thread_count(settings.batch_size, blas_threads)
    history = History(
        header={
            "threads": str(workers),
            "blas-threads": "unknown" if blas_threads is None else str(blas_threads),
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
    adam_settings = {"lr": settings.lr, "beta1": settings.beta1, "beta2": settings.beta2}

    def discriminator_part(idx):
        """A chunk's targets, its generator forward (tape kept for the
        generator update), its part of the discriminator loss and its
        discriminator gradients. The predicted map enters the discriminator
        as a raw array so no gradient reaches the generator here."""
        x = np.stack([dataset[i].image for i in idx])
        encoded = [encode_targets(dataset[i].labels, codebook) for i in idx]
        y_one_hot = np.stack([e.one_hot for e in encoded])
        y_code = np.stack([e.hadamard for e in encoded])
        y_hat, y_c = gen.forward(x)
        real = disc.forward(np.concatenate((x, y_one_hot), axis=-1))
        fake = disc.forward(np.concatenate((x, y_hat.value), axis=-1))
        counts = _batch_counts(settings.batch_size, real.value, fake.value)
        sums, (g_real, g_fake) = discriminator_loss_sums(real.value, fake.value, counts)
        grads = ad.gradients([(real, g_real), (fake, g_fake)])
        return _Chunk(x, y_one_hot, y_code, y_hat, y_c), counts, sums, grads

    def generator_part(chunk):
        """A chunk's forward through the refreshed discriminator, its part
        of the generator loss and its generator gradients."""
        alpha = disc.forward(ad.channel_concat(ad.as_node(chunk.x), chunk.y_hat))
        y, y_code = chunk.y_one_hot, chunk.y_code
        counts = _batch_counts(settings.batch_size, alpha.value, y, y_code)
        sums, (g_alpha, g_y_hat, g_y_c) = generator_loss_sums(
            alpha.value, chunk.y_hat.value, y, chunk.y_c.value, y_code, counts, effective
        )
        seeds = [(alpha, g_alpha), (chunk.y_hat, g_y_hat)]
        if effective.lambda3 != 0.0:
            seeds.append((chunk.y_c, g_y_c))
        return counts, sums, ad.gradients(seeds)

    with ThreadPoolExecutor(max(1, workers - 1), thread_name_prefix="hadaseg-train") as pool:
        for step in range(1, steps + 1):
            idx = sampler.take(settings.batch_size)

            # Discriminator update.
            chunks, counts, sums, grads = zip(
                *_map_chunks(pool, discriminator_part, np.array_split(idx, workers))
            )
            loss_d = discriminator_loss_from_sums(sums, counts[0])
            disc_grads = _sum_chunk_grads(disc.parameters, grads)
            _check_finite(step, loss_d, disc_grads, f"L_D={loss_d}")
            adam_step(disc_params, disc_grads, disc_state, **adam_settings)

            # Generator update through the refreshed discriminator. Its
            # Parameters need no gradient until the chunks' backwards are
            # done, so those compute no discriminator weight gradient.
            ad.set_needs_grad(disc.parameters.values(), False)
            counts, sums, grads = zip(*_map_chunks(pool, generator_part, chunks))
            ad.set_needs_grad(disc.parameters.values(), True)
            total, terms = generator_loss_from_sums(sums, counts[0], effective)
            gen_grads = _sum_chunk_grads(gen.parameters, grads)
            _check_finite(
                step,
                total,
                gen_grads,
                f"L_D={loss_d} L_G={total} "
                f"(adv={terms.adversarial} ce={terms.cross_entropy} "
                f"mae_y={terms.mae_probability} mae_yc={terms.mae_code})",
            )
            adam_step(gen_params, gen_grads, gen_state, **adam_settings)

            # Raw code-MAE is logged for both heads; only the weighted total
            # depends on the head.
            if step % settings.log_every == 0 or step == steps:
                history.loss_rows.append(
                    (
                        step,
                        loss_d,
                        terms.adversarial,
                        terms.cross_entropy,
                        terms.mae_probability,
                        terms.mae_code,
                        total,
                    )
                )
            if step % settings.metrics_every == 0 or step == steps:
                predicted = np.concatenate(
                    [np.argmax(chunk.y_hat.value[..., :num_classes], axis=-1) for chunk in chunks]
                )
                labels = np.stack([dataset[i].labels.labels for i in idx])
                accuracy = float((predicted == labels).mean())
                history.metric_rows.append((step, accuracy))
            # Release this step's tapes before the next step builds its own.
            del chunks

    return gen, disc, history
