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
calling process fetches every sample of the step first and runs chunk 0
itself. Chunks 1..P-1 run at the same time in P - 1 worker processes that
``train_cgan`` forks once per call and joins before it returns or raises;
processes, unlike threads, do not wait on each other for the interpreter
lock. ``_ChunkWorkers`` calls one function for every chunk, chunk 0
included. For its chunk, that function runs the forwards, computes the
loss terms' sums and gradients (``loss.*_loss_sums``) and walks the
chunk's own backward (``autodiff.gradients``). A chunk's targets stay
class indices: the generator loss reads the label maps and the codebook,
and the real pair's K one-hot channels are the only dense targets a chunk
builds. Between the two parts the process that ran a chunk holds its
state as a tuple: the label maps, the generator tape and the
discriminator's first-layer columns of the chunk's images and predicted
map. The discriminator part builds those
columns and scores both pairs with them; the generator part scores the
predicted pair again from the same columns, with the predicted map's input
gradient going to the generator's output. So a chunk builds three column
matrices per step (images, the real pair's K one-hot channels, predicted
map) and the generator part builds none. Only the loss sums and the
Parameters' gradients cross processes. One shared mapping holds a row of
parameter values, which Adam updates in place, and a gradient row per
chunk, into which that chunk's process copies its gradients; the rest goes
through a pipe. Both are added in chunk order; the sums are then divided
by the whole batch's element counts. P is the number of usable CPUs that
BLAS leaves idle (see ``thread_count``), so a BLAS that already runs a
thread per CPU gets P = 1, a step of one chunk, which forks nothing and
whose shared mapping holds the parameter values and chunk 0's gradients.
Workers are forked, not spawned, so that a call does not re-import numpy
and the package; P > 1 needs ``/proc`` to read the BLAS thread count, so
it arises only where ``fork`` exists.

Everything is derived from a single seed: weight init, batch order, and the
synthetic data stream if the caller built one the same way. Rerunning with
the same inputs reproduces the history byte for byte. Every per-element
loss gradient is what ``loss.generator_loss_grads`` and
``loss.discriminator_loss_grads`` give on the dense targets of the whole
batch, bit for bit, at every P; the logged cross-entropy may differ from
the dense term's in the last bits, since it adds only the label column. At
P = 1 the weight gradients are what an unchunked step computes. At other P
the logged loss values are sums of per-chunk sums and the weight gradients
sum over the chunks, so both may differ in the last bits. A chunk's
discriminator gradient sums its real and fake passes before the chunks are
added: at P = 2 it is (r0 + f0) + (r1 + f1), for the real and fake passes r
and f of chunks 0 and 1.
"""

from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import os
import signal
from dataclasses import dataclass, field, replace
from itertools import chain, count, islice

import numpy as np

from ..data import Sample, common_resolution, one_hot
from ..errors import ClassIndexError, ConfigError, TrainingDivergedError
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
    """Chunks a training step runs as, each in its own process, the P of
    the module docstring.

    One per usable CPU that BLAS leaves idle when it runs ``blas_threads``
    threads, and at most one per sample of the batch; 1 when the BLAS
    thread count is unknown. More chunks contend with BLAS for the CPUs:
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


def _trim_heap() -> None:
    """Return the free pages of glibc's heap to the system; a no-op where
    there is no glibc. A forked worker calls it first: the heap pages it
    gives back are no longer shared, so the parent's next writes to them
    do not copy them. On a 2-vCPU VM with perfbench's allocator settings,
    the first step of a k=6 call at P = 2 took 58-68 ms longer than the
    call's other steps without it and 30-33 ms longer with it."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def _serve(conn, fn, chunk: int, inherited) -> None:
    """Chunk ``chunk``'s worker loop: answer each message on ``conn`` with
    ``(None, fn(chunk, message))``, or ``(exception, None)`` when ``fn``
    raises, until the parent closes its end. ``inherited`` are the parent's
    pipe ends that the fork copied; closing them lets this worker, and
    every other, see EOF when the parent dies."""
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group; the parent handles it and
    # closes the pipes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _trim_heap()
    while True:
        try:
            message = conn.recv()
        except (EOFError, ConnectionError):  # the parent is gone
            return
        try:
            reply = (None, fn(chunk, message))
        except Exception as exc:  # sent back for the parent to raise
            reply = (exc, None)
        try:
            conn.send(reply)
        except ConnectionError:  # the parent is gone
            return


class _ChunkWorkers:
    """The ``chunks`` chunks of each step, each calling ``fn(i, message)``
    for its own chunk i: chunk 0 in the calling process, every other chunk
    in a forked process of its own.

    Worker processes share no state with the parent after the fork except
    what the caller puts in shared memory beforehand, and replies are
    pickled. Closing the workers (the ``with`` block does) stops and joins
    every process, killing one that has not exited after
    ``_STOP_SECONDS``. A worker also exits when the parent dies.
    """

    _STOP_SECONDS = 5.0

    def __init__(self, fn, chunks: int):
        context = multiprocessing.get_context("fork")
        self._fn = fn
        self._conns: list = []
        self._processes: list = []
        try:
            for chunk in range(1, chunks):
                conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_serve,
                    args=(child_conn, fn, chunk, [*self._conns, conn]),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._conns.append(conn)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> _ChunkWorkers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        for process in self._processes:
            process.join(self._STOP_SECONDS)
            if process.is_alive():
                process.kill()
                process.join()
        self._conns, self._processes = [], []

    def map(self, messages: list) -> list:
        """``fn(i, messages[i])`` for every chunk i, in chunk order, given
        one message per chunk; chunk 0 runs in this process.

        Every chunk finishes before this returns or raises. Chunk 0's
        exception wins, then the workers' in chunk order. A worker that
        died raises MemoryError if SIGKILL ended it (the out-of-memory
        killer's signal), otherwise ChildProcessError; either names its
        exit status.
        """
        for conn, message in zip(self._conns, messages[1:]):
            try:
                conn.send(message)
            except ConnectionError:  # a dead worker, reported by _receive
                pass
        try:
            results = [self._fn(0, messages[0])]
        finally:
            replies = [self._receive(i) for i in range(len(self._conns))]
        for error, _ in replies:
            if error is not None:
                raise error
        return results + [result for _, result in replies]

    def _receive(self, i: int) -> tuple:
        try:
            return self._conns[i].recv()
        except (EOFError, ConnectionError):
            process = self._processes[i]
            process.join(self._STOP_SECONDS)
            status = process.exitcode
            what = f"chunk worker {i + 1} died (exit status {status})"
            if status == -signal.SIGKILL:
                return MemoryError(f"{what}: killed by SIGKILL"), None
            return ChildProcessError(what), None


def _share_parameters(parameters: list[ad.Parameter], chunks: int) -> list[dict]:
    """Move every Parameter's value into row 0 of one anonymous shared
    mapping of 1 + ``chunks`` rows, so that forked workers read the values
    that Adam updates in place here. Returns rows 1.., a {Parameter: array}
    gradient row per chunk."""
    size = sum(p.value.size for p in parameters)
    rows = 1 + chunks
    table = np.frombuffer(mmap.mmap(-1, 8 * size * rows), dtype=np.float64).reshape(rows, size)
    ends = np.cumsum([p.value.size for p in parameters])
    views = [
        {p: flat.reshape(p.value.shape) for p, flat in zip(parameters, np.split(row, ends[:-1]))}
        for row in table
    ]
    for p, view in views[0].items():
        view[...] = p.value
        p.value = view
    return views[1:]


def _sum_chunk_grads(parameters: dict[str, ad.Parameter], grad_rows) -> dict[str, np.ndarray]:
    """Each Parameter's gradients from the chunks' rows, added in chunk
    order into chunk 0's row; returns the sums by name. No Parameter's
    ``.grad`` is written."""
    sums = {name: grad_rows[0][p] for name, p in parameters.items()}
    for row in grad_rows[1:]:
        for name, p in parameters.items():
            sums[name] += row[p]
    return sums


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
    top_label = int(max(s.labels.labels.max() for s in dataset))
    if num_classes is None:
        num_classes = top_label + 1
    gen_cfg.check_num_classes(num_classes)
    if top_label >= num_classes:  # before any worker starts
        raise ClassIndexError(f"label {top_label} >= num_classes {num_classes}")
    gen_cfg.check_input_size(height, width)
    disc_cfg.check_input_size(height, width)
    if settings.batch_size > len(dataset):
        raise ConfigError(f"batch_size {settings.batch_size} exceeds the {len(dataset)} samples")

    seeds = np.random.SeedSequence(seed).spawn(3)
    gen = build_generator(gen_cfg, seed=seeds[0])
    disc = build_discriminator(
        disc_cfg,
        input_channels=gen_cfg.input_channels + gen_cfg.output_channels,
        seed=seeds[1],
    )

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

    rng = np.random.default_rng(seeds[2])
    indices = chain.from_iterable(rng.permutation(len(dataset)) for _ in count())
    parameters = [*gen.parameters.values(), *disc.parameters.values()]
    grad_rows = _share_parameters(parameters, workers)
    gen_params = {name: p.value for name, p in gen.parameters.items()}
    disc_params = {name: p.value for name, p in disc.parameters.items()}
    gen_state = adam_init(gen_params)
    disc_state = adam_init(disc_params)
    adam_settings = {"lr": settings.lr, "beta1": settings.beta1, "beta2": settings.beta2}
    held: list = []  # this process's chunk, between its two parts

    def discriminator_part(x, labels):
        """A chunk's generator forward, its part of the discriminator loss
        and its discriminator gradients; returns its (counts, sums) and the
        gradients, and keeps the chunk in ``held`` for the generator part.
        The discriminator's first-layer columns are built once each for
        the images, the real class map and the predicted map. The predicted
        map enters as a raw array so no gradient reaches the generator
        here. Every label is below K (``train_cgan`` checks), so the real
        pair's one-hot channels from K on are zero and it passes only the
        first K."""
        y_hat, y_c = gen.forward(x)
        image, predicted = disc.columns(x), disc.columns(y_hat.value)
        real = disc.forward(image, one_hot(labels, num_classes))
        fake = disc.forward(image, predicted)
        counts = _batch_counts(settings.batch_size, real.value, fake.value)
        sums, (g_real, g_fake) = discriminator_loss_sums(real.value, fake.value, counts)
        held.append((labels, y_hat, y_c, image, predicted))
        return (counts, sums), ad.gradients([(real, g_real), (fake, g_fake)])

    def generator_part(with_argmax):
        """The held chunk's forward through the refreshed discriminator,
        its part of the generator loss and its generator gradients; returns
        its (counts, sums, argmax map or None) and the gradients, and drops
        the chunk. The forward reads the columns the discriminator part
        built, the predicted map's pointed at ``y_hat`` so that its
        gradient reaches the generator. The discriminator's Parameters
        need no gradient until the backward is done, so it computes no
        discriminator gradient."""
        labels, y_hat, y_c, image, predicted = held.pop()
        ad.set_needs_grad(disc.parameters.values(), False)
        alpha = disc.forward(image, replace(predicted, source=y_hat))
        counts = _batch_counts(settings.batch_size, alpha.value, y_hat.value, y_c.value)
        sums, (g_alpha, g_y_hat, g_y_c) = generator_loss_sums(
            alpha.value, y_hat.value, labels, y_c.value, gen.codebook, counts, effective
        )
        grads = ad.gradients([(alpha, g_alpha), (y_hat, g_y_hat), (y_c, g_y_c)])
        ad.set_needs_grad(disc.parameters.values(), True)
        argmax = np.argmax(y_hat.value[..., :num_classes], axis=-1) if with_argmax else None
        return (counts, sums, argmax), grads

    parts = {"discriminator": discriminator_part, "generator": generator_part}

    def run_part(i, message):
        """Chunk i's part that ``message`` names. Its gradients go into
        chunk i's shared row; the rest is the reply."""
        name, *args = message
        reply, grads = parts[name](*args)
        for p, g in grads.items():
            grad_rows[i][p][...] = g
        return reply

    with _ChunkWorkers(run_part, workers) as chunk_workers:
        for step in range(1, steps + 1):
            # Every fetch of the step comes first, here; each chunk gets its
            # images and label maps.
            batch = [dataset[i] for i in islice(indices, settings.batch_size)]
            chunks = [
                (
                    np.stack([batch[i].image for i in part]),
                    np.stack([batch[i].labels.labels for i in part]),
                )
                for part in np.array_split(np.arange(len(batch)), workers)
            ]
            with_argmax = step % settings.metrics_every == 0 or step == steps

            # Discriminator update.
            replies = chunk_workers.map([("discriminator", *chunk) for chunk in chunks])
            counts, sums = zip(*replies)
            loss_d = discriminator_loss_from_sums(sums, counts[0])
            disc_grads = _sum_chunk_grads(disc.parameters, grad_rows)
            _check_finite(step, loss_d, disc_grads, f"L_D={loss_d}")
            adam_step(disc_params, disc_grads, disc_state, **adam_settings)

            # Generator update through the refreshed discriminator.
            replies = chunk_workers.map([("generator", with_argmax)] * workers)
            counts, sums, predicted = zip(*replies)
            total, terms = generator_loss_from_sums(sums, counts[0], effective)
            gen_grads = _sum_chunk_grads(gen.parameters, grad_rows)
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
            if with_argmax:
                labels = np.stack([sample.labels.labels for sample in batch])
                accuracy = float((np.concatenate(predicted) == labels).mean())
                history.metric_rows.append((step, accuracy))

    for p in parameters:  # the returned networks hold private arrays
        p.value = np.array(p.value)
    return gen, disc, history
