"""The benchmark workloads: cGAN training steps and checkpoint evaluation.

Both run the C7 smoke configuration of the acceptance suite: K=8 classes,
64x64 synthetic images, batch 4, a depth-3 base-16 generator with the
Hadamard head and a 3-layer base-16 discriminator. Inputs come from the
run's seed through ``gen_synthetic``; the package only sees the samples.

Every call into hadaseg goes through a module attribute so that an
installed tracer sees it (see tracing.py).
"""

from __future__ import annotations

import bisect
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hadaseg import codes, data, errors, metrics
from hadaseg.netkit import checkpoint, models, train

from hostspeed import HostSpeed
from tracing import Tracer, call_metrics, window_metrics

CLASSES = 8
SIZE = 64
BATCH = 4
TRAIN_COUNT = 200
TEST_COUNT = 50
EVAL_BATCH = 8
SETTINGS = train.TrainSettings(batch_size=BATCH, log_every=1, metrics_every=100)
DISCRIMINATOR = models.DiscriminatorConfig(layers=3, base_channels=16)

# Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPS = 9
# Timed work runs in windows of about this many seconds, with the host-speed
# kernel timed between them (see hostspeed.py); a training window is one
# train_cgan call of at least MIN_STEPS steps.
WINDOW_SECONDS = 1.5
MIN_STEPS = 3
# Eval passes before timing: the first pass over fresh arrays is slower.
EVAL_WARMUP_PASSES = 2
# Fixed inputs of the reference checks, independent of the run's seed.
REFERENCE_SEED = 20230220
REFERENCE_TRAIN_COUNT = 8
REFERENCE_TEST_COUNT = 16

_DATA_CALLS = (
    "data.write_dataset",
    "data.ingest_index_maps",
    "checkpoint.save_models",
    "checkpoint.load_models",
)


def generator_config(code_bits: int) -> models.GeneratorConfig:
    return models.GeneratorConfig(
        input_channels=3,
        depth=3,
        base_channels=16,
        code_bits=code_bits,
        head=models.HEAD_HADAMARD,
    )


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Each timing is kept twice: as wall time, and ``*_scaled`` to the
    nominal host speed of hostspeed.py.
    """

    op_seconds: list[float] = field(default_factory=list)  # per step or batch
    op_scaled: list[float] = field(default_factory=list)
    images: int = 0
    timed_seconds: float = 0.0
    timed_scaled: float = 0.0
    attempted: int = 0
    failed: int = 0
    setup_seconds: list[float] = field(default_factory=list)
    setup_scaled: list[float] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    reference: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, name: str, passed) -> None:
        """Record a check; a name that failed once stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)


class FetchClock(list):
    """A dataset list that timestamps every item fetch.

    train_cgan fetches each step's batch from the dataset before any other
    work of the step, so the fetch times mark step boundaries from outside
    the package.
    """

    def __init__(self, samples):
        super().__init__(samples)
        self.times: list[float] = []

    def __getitem__(self, index):
        self.times.append(perf_counter())
        return super().__getitem__(index)


@dataclass(frozen=True)
class FetchPattern:
    """Dataset fetches before the first step, and in each step."""

    before: int
    per_step: int


def _train(code_bits: int, samples, steps: int, seed: int):
    return train.train_cgan(
        generator_config(code_bits),
        DISCRIMINATOR,
        samples,
        steps=steps,
        seed=seed,
        settings=SETTINGS,
        num_classes=CLASSES,
    )


def _last_losses(history) -> dict[str, float]:
    row = history.loss_rows[-1]
    return dict(zip(train.LOSS_CSV_COLUMNS[1:], (float(v) for v in row[1:])))


def reference_train(code_bits: int) -> tuple[dict[str, float], FetchPattern, float, bool]:
    """Train 1 and then 2 steps on the fixed reference data.

    Returns the second run's last-step losses, the fetch pattern (from the
    difference of the two fetch counts), the second step's duration as an
    estimate of step time, and whether the two runs agree on step 1. These
    steps also warm the process up before timing.
    """
    samples = data.gen_synthetic(REFERENCE_SEED, REFERENCE_TRAIN_COUNT, SIZE, CLASSES)
    one, two = FetchClock(samples), FetchClock(samples)
    _, _, first = _train(code_bits, one, 1, REFERENCE_SEED)
    _, _, second = _train(code_bits, two, 2, REFERENCE_SEED)
    end = perf_counter()
    per_step = len(two.times) - len(one.times)
    pattern = FetchPattern(before=len(one.times) - per_step, per_step=per_step)
    step_two = end - two.times[pattern.before + per_step]
    repeatable = first.loss_rows[0] == second.loss_rows[0]
    return _last_losses(second), pattern, step_two, repeatable


def _seconds(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def _setup_train(seed: int, directory: Path) -> tuple[list, float]:
    """Generate, write and ingest the training set; returns the samples
    and the seconds spent writing files."""
    samples = data.gen_synthetic(seed, TRAIN_COUNT, SIZE, CLASSES)
    writing = _seconds(data.write_dataset, directory, samples)
    return data.ingest_index_maps(directory, num_classes=CLASSES), writing


def _timed_train(code_bits, samples, seed, steps, pattern, outcome) -> tuple[list, float, tuple]:
    """One train_cgan call; returns step start times, end time and the result."""
    clock = FetchClock(samples)
    result = None
    try:
        result = _train(code_bits, clock, steps, seed)
    except errors.TrainingDivergedError:
        outcome.failed += 1
    end = perf_counter()
    starts = clock.times[pattern.before :: pattern.per_step]
    outcome.check(
        "step_boundaries",
        result is None or len(clock.times) == pattern.before + steps * pattern.per_step,
    )
    outcome.attempted += len(starts)
    if result is not None:
        rows = result[2].loss_rows
        outcome.check(
            "losses_finite",
            len(rows) == steps and all(np.isfinite(row[1:]).all() for row in rows),
        )
    return starts, end, result


def _durations(starts: list[float], end: float) -> list[float]:
    marks = starts + [end]
    return [b - a for a, b in zip(marks, marks[1:])]


def _timed_setups(outcome: Outcome, host: HostSpeed, tracer, set_up):
    """Run ``set_up(rep)`` SETUP_REPS times, or once under the tracer, and
    time each; return the last result.

    ``set_up`` returns its result and the seconds it spent writing files,
    which setup_s leaves out: the writes stand in for ``hadaseg gen-data``
    and ``hadaseg train``, and the kernel time of writing 20 MB varied from
    0.03 s to 0.4 s with what earlier runs left in the file system. The
    traced run still reports them (data.write_dataset, checkpoint.save_models).
    """
    with tracer or nullcontext():
        for rep in range(1 if tracer else SETUP_REPS):
            start = perf_counter()
            result, writing = set_up(rep)
            seconds = perf_counter() - start - writing
            outcome.setup_seconds.append(seconds)
            outcome.setup_scaled.append(seconds * host.window_factor())
    return result


def _phases(seconds: float, tracer) -> list:
    """(budget, context) pairs: the whole run untraced, or an untraced half
    followed by a traced half."""
    if tracer is None:
        return [(seconds, nullcontext())]
    return [(seconds / 2, nullcontext()), (seconds / 2, tracer)]


def _finish_trace(outcome: Outcome, tracer, medians: list[float]) -> None:
    """Add the figures that span the whole traced run."""
    outcome.layers["trace.overhead_ms"] = 1000.0 * (medians[1] - medians[0])
    outcome.layers.update(call_metrics(tracer.spans, _DATA_CALLS))
    outcome.tracer = tracer


def run_train(code_bits: int, seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    host = HostSpeed()
    tracer = Tracer() if traced else None
    samples = _timed_setups(
        outcome, host, tracer, lambda rep: _setup_train(seed, workdir / f"train-{rep}")
    )
    losses, pattern, step_estimate, repeatable = reference_train(code_bits)
    outcome.reference = losses
    outcome.check("reference_repeatable", repeatable)

    medians = []
    result = None
    for budget, context in _phases(seconds, tracer):
        durations, starts, windows = [], [], []
        first_op = len(outcome.op_scaled)
        with context:
            begin = perf_counter()
            # Calls of train_cgan until the budget is spent; each call's
            # step count comes from the median step so far.
            while not durations or perf_counter() - begin < budget - step_estimate / 2:
                remaining = budget - (perf_counter() - begin)
                steps = max(MIN_STEPS, round(min(remaining, WINDOW_SECONDS) / step_estimate))
                # Holding the previous call's networks while the next call
                # builds its own makes that call's first steps fault in
                # fresh heap pages and run ~50% slower.
                result = None
                call_starts, end, result = _timed_train(
                    code_bits, samples, seed, steps, pattern, outcome
                )
                call_durations = _durations(call_starts, end)
                factor = host.window_factor()
                outcome.op_scaled += [factor * d for d in call_durations]
                outcome.timed_scaled += factor * sum(call_durations)
                durations += call_durations
                starts += call_starts
                windows.append((call_starts[0], end))
                step_estimate = statistics.median(durations)
                if result is None:
                    break
        medians.append(statistics.median(outcome.op_scaled[first_op:]))
        outcome.op_seconds += durations
        outcome.images += BATCH * len(durations)
        outcome.timed_seconds += sum(durations)
        if context is tracer:
            window = window_metrics(tracer.spans, windows, len(durations))
            window["train.loop_self_ms"] = window.pop("uncovered_ms")
            window["trace.uncovered_share"] = window.pop("uncovered_share")
            window["train.batch_ms"] = _batch_ms(tracer.spans, starts)
            outcome.layers.update(window)

    if result is not None:
        with tracer or nullcontext():
            gen, disc, _ = result
            outcome.check("checkpoint_roundtrip", _roundtrip(gen, disc, workdir / "checkpoint"))
    if tracer:
        _finish_trace(outcome, tracer, medians)
    return outcome


def _batch_ms(spans, starts: list[float]) -> float:
    """Mean ms from each step's first fetch to its generator forward: batch
    assembly and target encoding."""
    forwards = sorted(s[1] for s in spans if s[0] == "models.Generator.forward")
    gaps = []
    for step_start in starts:
        i = bisect.bisect_left(forwards, step_start)
        if i < len(forwards):
            gaps.append(forwards[i] - step_start)
    return 1000.0 * statistics.fmean(gaps) if gaps else 0.0


def _roundtrip(gen, disc, directory: Path) -> bool:
    """Save both networks, load them back and compare every tensor."""
    checkpoint.save_models(directory, gen, disc, num_classes=CLASSES)
    loaded_gen, loaded_disc, _ = checkpoint.load_models(directory)
    return all(
        np.array_equal(model.parameters[name].value, loaded.parameters[name].value)
        for model, loaded in ((gen, loaded_gen), (disc, loaded_disc))
        for name in model.parameters
    )


# -- eval ---------------------------------------------------------------------


def _setup_eval(seed: int, count: int, directory: Path) -> tuple[tuple[Path, Path], float]:
    """Write a test set and a freshly initialised k=3 Hadamard checkpoint;
    returns their paths and the seconds spent writing files."""
    samples = data.gen_synthetic(seed, count, SIZE, CLASSES)
    writing = _seconds(data.write_dataset, directory / "test", samples)
    gen_seed, disc_seed = np.random.SeedSequence(seed).spawn(2)
    gen_cfg = generator_config(3)
    gen = models.build_generator(gen_cfg, seed=gen_seed)
    disc = models.build_discriminator(
        DISCRIMINATOR,
        input_channels=gen_cfg.input_channels + gen_cfg.output_channels,
        seed=disc_seed,
        input_size=SIZE,
    )
    writing += _seconds(checkpoint.save_models, directory / "checkpoint", gen, disc, CLASSES)
    return (directory / "checkpoint", directory / "test"), writing


def eval_pass(model_dir: Path, test_dir: Path, batch_seconds: list[float]):
    """The calls ``hadaseg eval`` makes; appends each batch's seconds."""
    gen, _, meta = checkpoint.load_models(model_dir)
    num_classes = int(meta["num_classes"])
    dataset = data.ingest_index_maps(test_dir, num_classes=num_classes)
    total = metrics.ConfusionMatrix(np.zeros((num_classes, num_classes), dtype=np.int64))
    for first in range(0, len(dataset), EVAL_BATCH):
        start = perf_counter()
        chunk = dataset[first : first + EVAL_BATCH]
        images = np.stack([sample.image for sample in chunk])
        y_hat, _ = gen.forward(images)
        for i, sample in enumerate(chunk):
            predicted = metrics.argmax_map(y_hat.value[i], num_classes)
            total = total + metrics.confusion(predicted, sample.labels, num_classes)
        batch_seconds.append(perf_counter() - start)
    return total, metrics.metrics_report(total)


def reference_eval(workdir: Path) -> float:
    (model_dir, test_dir), _ = _setup_eval(
        REFERENCE_SEED, REFERENCE_TEST_COUNT, workdir / "reference"
    )
    _, report = eval_pass(model_dir, test_dir, [])
    return report["pixel_accuracy"]


def run_eval(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    host = HostSpeed()
    tracer = Tracer() if traced else None
    model_dir, test_dir = _timed_setups(
        outcome,
        host,
        tracer,
        lambda rep: _setup_eval(seed, TEST_COUNT, workdir / f"eval-{rep}"),
    )
    outcome.reference = {"pixel_accuracy": reference_eval(workdir)}
    pixels = TEST_COUNT * SIZE * SIZE
    batches = -(-TEST_COUNT // EVAL_BATCH)
    expected, _ = eval_pass(model_dir, test_dir, [])
    for _ in range(EVAL_WARMUP_PASSES - 1):
        eval_pass(model_dir, test_dir, [])
    outcome.check("confusion_sums_to_pixels", int(expected.counts.sum()) == pixels)

    medians = []
    for budget, context in _phases(seconds, tracer):
        batch_seconds: list[float] = []
        windows = []
        first_op = len(outcome.op_scaled)
        with context:
            begin = perf_counter()
            while perf_counter() - begin < budget:
                # Eval passes for one window, then the host-speed kernel.
                window_begin, first = perf_counter(), len(batch_seconds)
                while perf_counter() - window_begin < WINDOW_SECONDS:
                    outcome.attempted += batches
                    try:
                        total, report = eval_pass(model_dir, test_dir, batch_seconds)
                    except errors.HadasegError:
                        outcome.failed += batches
                        continue
                    outcome.images += TEST_COUNT
                    outcome.check(
                        "confusion_repeatable",
                        np.array_equal(total.counts, expected.counts)
                        and report["total_pixels"] == pixels,
                    )
                window_end = perf_counter()
                factor = host.window_factor()
                windows.append((window_begin, window_end))
                outcome.op_scaled += [factor * s for s in batch_seconds[first:]]
                outcome.timed_seconds += window_end - window_begin
                outcome.timed_scaled += factor * (window_end - window_begin)
        medians.append(statistics.median(outcome.op_scaled[first_op:]))
        outcome.op_seconds += batch_seconds
        if context is tracer:
            window = window_metrics(tracer.spans, windows, len(batch_seconds))
            window.pop("uncovered_ms")
            window["trace.uncovered_share"] = window.pop("uncovered_share")
            outcome.layers.update(window)
    if tracer:
        _finish_trace(outcome, tracer, medians)
    return outcome


# -- the fast transform against the dense product --------------------------------


def fwht_dense_ratio(code_bits: int, reps: int = 7) -> tuple[float, bool]:
    """fwht_apply time over the dense product time, both over one training
    batch's pixels (BATCH * SIZE * SIZE vectors), and whether they agree."""
    cb = codes.sylvester(code_bits)
    dense_matrix = cb.matrix.astype(np.float64)
    vectors = np.random.default_rng(code_bits).standard_normal((BATCH * SIZE * SIZE, cb.n))

    def median_seconds(fn) -> tuple[float, np.ndarray]:
        result = fn()
        times = []
        for _ in range(reps):
            start = perf_counter()
            result = fn()
            times.append(perf_counter() - start)
        return statistics.median(times), result

    fast_seconds, fast = median_seconds(lambda: codes.fwht_apply(cb, vectors))
    dense_seconds, dense = median_seconds(lambda: vectors @ dense_matrix)
    return fast_seconds / dense_seconds, bool(np.allclose(fast, dense, rtol=1e-12, atol=1e-9))
