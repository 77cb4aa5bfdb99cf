"""Command-line front end.

Subcommands: codebook, gen-data, train, eval, predict, render, fwht-bench.
Exit codes: 0 ok, 2 configuration/usage error (out of memory included),
3 data or format error, 4 numeric failure. Every failure prints a single
``error:<class>: <detail>`` line to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .codes import codebook_csv, fwht, sylvester, verify, write_codebook_csv
from .config import load_config
from .data import (
    class_histogram,
    common_resolution,
    gen_synthetic,
    ingest_index_maps,
    read_image,
    read_label_map,
    write_dataset,
    write_label_map,
)
from .errors import (
    CapacityError,
    ClassIndexError,
    ConfigError,
    FormatError,
    GenerationError,
    IngestionError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .metrics import ConfusionMatrix, argmax_map, confusion, metrics_report
from .netkit import load_models, save_models, train_cgan
from .netkit.autodiff import set_needs_grad
from .netkit.models import HEAD_HADAMARD, HEAD_ONE_HOT

_CONFIG_ERRORS = (ConfigError, CapacityError, ClassIndexError, ShapeError)
_DATA_ERRORS = (FormatError, IngestionError, GenerationError)
_NUMERIC_ERRORS = (NumericError, TrainingDivergedError, UndefinedMetricError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def benchmark_fwht(k: int) -> dict:
    """Time the dense Hadamard product against the fast transform.

    Both paths transform the same 8 seeded vectors; the best of 5 timings
    is reported for each. The Sylvester matrix is symmetric, so the batched
    dense product is V @ H.
    """
    cb = sylvester(k)
    batch = np.random.default_rng(0).standard_normal((8, cb.n))
    dense_matrix = cb.matrix.astype(np.float64)

    def best(fn) -> tuple[float, np.ndarray]:
        fn()  # warm-up
        times = []
        result = None
        for _ in range(5):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return min(times), result

    dense_seconds, dense_out = best(lambda: batch @ dense_matrix)
    fwht_seconds, fast_out = best(lambda: fwht(batch))
    return {
        "k": k,
        "n": cb.n,
        "dense_seconds": dense_seconds,
        "fwht_seconds": fwht_seconds,
        "ratio": fwht_seconds / dense_seconds if dense_seconds > 0 else float("nan"),
        "max_abs_diff": float(np.abs(dense_out - fast_out).max()),
    }


def _cmd_codebook(args) -> int:
    cb = sylvester(args.k)
    verify(cb)
    if args.out:
        write_codebook_csv(cb, args.out)
        print(f"wrote {args.out}")
    else:
        print(codebook_csv(cb), end="")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    _check_out_dir(out)
    samples = gen_synthetic(args.seed, args.count, args.size, args.classes)
    with _staged(out) as partial:
        ids = write_dataset(partial, samples)
    histogram = class_histogram(samples, args.classes)
    print(f"wrote {len(ids)} samples to {args.out}")
    print("class_histogram: " + " ".join(f"{c}:{int(n)}" for c, n in enumerate(histogram)))
    return EXIT_OK


def _check_out_dir(out: Path) -> None:
    """Raise the OSError that ``out.mkdir(parents=True, exist_ok=True)``
    would when ``out``, or the nearest ancestor of it that exists, is not
    a directory. Creates nothing."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))


def _move_into_place(partial: Path, out: Path) -> None:
    """Put the finished output directory ``partial`` in place as ``out``:
    one rename when ``out`` does not exist; otherwise each file moves to
    the same place under ``out``, replacing a file of that name, and
    ``out``'s other files stay."""
    if not out.exists():
        partial.rename(out)
        return
    for directory, _, files in os.walk(partial):
        target = out / Path(directory).relative_to(partial)
        target.mkdir(exist_ok=True)
        for name in files:
            os.replace(Path(directory) / name, target / name)


@contextmanager
def _staged(out: Path):
    """A sibling directory, ``.<name>.partial-<pid>``, for a command to
    write its output into; when the block ends without an error, its files
    move into place as ``out`` (``_move_into_place``). The sibling is
    removed either way, so a failed write leaves ``out`` as it was."""
    out.parent.mkdir(parents=True, exist_ok=True)
    partial = out.parent / f".{out.name}.partial-{os.getpid()}"
    partial.mkdir()
    try:
        yield partial
        _move_into_place(partial, out)
    finally:
        shutil.rmtree(partial, ignore_errors=True)


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if not cfg.data_dir:
        raise ConfigError(f"{args.config}: data.dir must be set for training")
    out = Path(args.out)
    _check_out_dir(out)  # before training, not after it
    dataset = ingest_index_maps(cfg.data_dir, num_classes=cfg.classes)
    if not dataset:
        raise IngestionError(f"{cfg.data_dir}: no samples found")
    gen, disc, history = train_cgan(
        replace(cfg.generator, head=args.head),
        cfg.discriminator,
        dataset,
        steps=cfg.steps,
        seed=cfg.seed,
        weights=cfg.loss,
        settings=cfg.train,
        num_classes=cfg.classes,
    )
    with _staged(out) as partial:
        (partial / "history.csv").write_text(history.loss_csv(), encoding="ascii")
        (partial / "metrics.csv").write_text(history.metrics_csv(), encoding="ascii")
        save_models(partial / "checkpoint", gen, disc, num_classes=cfg.classes)
        shutil.copyfile(args.config, partial / "config.txt")
    print(f"trainable-parameters: {gen.parameter_count()}")
    print(f"history: {out / 'history.csv'}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return EXIT_OK


def _predict_label_maps(gen, images: np.ndarray, num_classes: int):
    """Forward a batch and reduce to label maps."""
    y_hat, _ = gen.forward(images)
    return [argmax_map(y_hat.value[i], num_classes) for i in range(images.shape[0])]


def _check_image_size(gen, path, height: int, width: int) -> None:
    """Raise ShapeError naming ``path`` unless the generator takes its size."""
    try:
        gen.cfg.check_input_size(height, width)
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None


def _load_generator(model_dir):
    """The generator of a checkpoint and the class count it was trained on.

    The generator is for inference: its Parameters need no gradient, so a
    forward pass builds no tape and keeps no im2col buffer.
    """
    gen, _, meta = load_models(model_dir)
    set_needs_grad(gen.parameters.values(), False)
    return gen, int(meta["num_classes"])


def _cmd_eval(args) -> int:
    gen, num_classes = _load_generator(args.model)
    dataset = ingest_index_maps(args.data, num_classes=num_classes)
    if not dataset:
        raise IngestionError(f"{args.data}: no samples found")
    height, width = common_resolution(dataset)
    _check_image_size(gen, dataset[0].path, height, width)
    total = ConfusionMatrix(np.zeros((num_classes, num_classes), dtype=np.int64))
    batch = 8
    for start in range(0, len(dataset), batch):
        chunk = dataset[start : start + batch]
        images = np.stack([s.image for s in chunk])
        for sample, predicted in zip(chunk, _predict_label_maps(gen, images, num_classes)):
            total = total + confusion(predicted, sample.labels, num_classes)
    report = metrics_report(total)
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    print(f"pixel_accuracy: {report['pixel_accuracy']!r}")
    print(f"mean_iou: {report['mean_iou']!r}")
    print(f"report: {args.report}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    gen, num_classes = _load_generator(args.model)
    image = read_image(args.image)
    _check_image_size(gen, args.image, *image.shape[:2])
    (label_map,) = _predict_label_maps(gen, image[None], num_classes)
    write_label_map(args.out, label_map)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    lm = read_label_map(args.segl)
    num_classes = args.classes if args.classes else int(lm.labels.max()) + 1
    if lm.labels.max() >= num_classes:
        raise ClassIndexError(
            f"{args.segl}: label {int(lm.labels.max())} >= K={num_classes}"
        )
    gray = np.round(lm.labels * (255.0 / max(num_classes - 1, 1))).astype(np.uint8)
    header = f"P5\n{lm.width} {lm.height}\n255\n".encode("ascii")
    Path(args.out).write_bytes(header + gray.tobytes(order="C"))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fwht_bench(args) -> int:
    result = benchmark_fwht(args.k)
    if result["max_abs_diff"] >= 1e-9:
        raise NumericError(
            f"fast and dense transforms disagree: {result['max_abs_diff']}"
        )
    for key in ("k", "n", "dense_seconds", "fwht_seconds", "ratio", "max_abs_diff"):
        print(f"{key}: {result[key]!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hadaseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="print or export a Hadamard codebook")
    p.add_argument("--k", type=int, required=True, help="order exponent (n = 2^k)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one head on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--head", choices=(HEAD_ONE_HOT, HEAD_HADAMARD), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="segment one image file")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("render", help="render a label map as a PGM image")
    p.add_argument("--segl", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=0, help="gray scale over K classes")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fwht-bench", help="time dense vs fast transform")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_fwht_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERIC_ERRORS as exc:
        print(f"error:numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error:config: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
