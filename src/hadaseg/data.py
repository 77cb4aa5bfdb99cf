"""Synthetic segmentation data, target encodings, and on-disk formats.

Samples are (image, label map) pairs. The generator rasterizes colored
geometric primitives on a noisy background, with the label map derived from
exactly the same masks as the colors, so ground truth is pixel-exact.

On disk, label maps use the ``.segl`` format (magic "SEGL", version byte,
u32 height and width little-endian, then one class byte per pixel
row-major) and images use ``.img``/"SEGI" (same header, then H*W*3
little-endian float64 values).
"""

from __future__ import annotations

import colorsys
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ClassIndexError,
    ConfigError,
    FormatError,
    GenerationError,
    IngestionError,
    ShapeError,
)
from .metrics import LabelMap

_SEGL_MAGIC = b"SEGL"
_SEGI_MAGIC = b"SEGI"
_VERSION = 1
# Tries to place each primitive of a synthetic sample clear of the others.
MAX_PLACE_RETRIES = 100


@dataclass(frozen=True)
class Sample:
    """One training/evaluation example."""

    image: np.ndarray  # (H, W, 3) float64 in [0, 1]
    labels: LabelMap
    path: Path | None = None  # the image file, for samples read from disk

    def __post_init__(self) -> None:
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise ShapeError(f"image must be [H, W, 3], got {self.image.shape}")
        if self.image.shape[:2] != self.labels.labels.shape:
            raise ShapeError(
                f"image {self.image.shape[:2]} and labels "
                f"{self.labels.labels.shape} disagree"
            )


def one_hot(labels: np.ndarray, channels: int) -> np.ndarray:
    """The [..., channels] float64 one-hot rows of integer ``labels``."""
    return (labels[..., None] == np.arange(channels)).astype(np.float64)


def _class_palette(num_classes: int) -> np.ndarray:
    """Distinct, class-correlated fill colors; class 0 is the dark background."""
    palette = np.zeros((num_classes, 3))
    palette[0] = (0.10, 0.12, 0.14)
    for c in range(1, num_classes):
        hue = (c - 1) / max(num_classes - 1, 1)
        palette[c] = colorsys.hsv_to_rgb(hue, 0.75, 0.90)
    return palette


def _shape_mask(
    rng: np.random.Generator, kind: str, box: tuple[int, int, int, int], size: int
) -> np.ndarray:
    """Boolean mask of the primitive inside its bounding box, full-canvas size."""
    x0, y0, w, h = box
    ys, xs = np.mgrid[0:size, 0:size]
    if kind == "rectangle":
        return (xs >= x0) & (xs < x0 + w) & (ys >= y0) & (ys < y0 + h)
    if kind == "circle":
        r = min(w, h) / 2.0
        cx, cy = x0 + w / 2.0, y0 + h / 2.0
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    # Triangle: apex on the top edge, base along the bottom edge of the box.
    apex = (x0 + rng.uniform(0.25, 0.75) * w, float(y0))
    left = (float(x0), float(y0 + h - 1))
    right = (float(x0 + w - 1), float(y0 + h - 1))
    mask = np.ones((size, size), dtype=bool)
    pts = (apex, left, right)
    for i in range(3):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % 3]
        # Vertices are counter-clockwise in (x, y-down) image coordinates.
        mask &= (bx - ax) * (ys - ay) - (by - ay) * (xs - ax) >= 0
    return mask


def _boxes_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return not (ax + aw <= bx or bx + bw <= ax or ay + ah <= by or by + bh <= ay)


def gen_synthetic(
    seed: int,
    count: int,
    size: int,
    num_classes: int,
) -> list[Sample]:
    """Deterministic synthetic dataset: noisy background plus 1..4
    non-overlapping primitives, each with a class-correlated fill color.

    Per-sample randomness comes from independently spawned seed streams, so
    the dataset is fully determined by ``seed`` and samples could be drawn
    in parallel without changing the result.
    """
    if count < 1:
        raise GenerationError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    if size < 16:
        raise GenerationError(f"canvas size must be >= 16, got {size}")
    if num_classes < 2:
        raise GenerationError(f"need at least 2 classes, got {num_classes}")
    if num_classes > 256:
        raise GenerationError(
            f"at most 256 classes fit the byte labels of .segl files, got {num_classes}"
        )
    palette = _class_palette(num_classes)
    streams = np.random.SeedSequence(seed).spawn(count)
    samples = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        labels = np.zeros((size, size), dtype=np.int64)
        base = np.tile(palette[0], (size, size, 1))
        n_shapes = int(rng.integers(1, 5))
        placed: list[tuple[int, int, int, int]] = []
        for _ in range(n_shapes):
            box = None
            for _ in range(MAX_PLACE_RETRIES):
                # Sides scale with the canvas so up to four boxes always fit.
                side_min = max(4, size // 8)
                side_max = max(side_min, size // 4)
                w = int(rng.integers(side_min, side_max + 1))
                h = int(rng.integers(side_min, side_max + 1))
                x0 = int(rng.integers(0, size - w + 1))
                y0 = int(rng.integers(0, size - h + 1))
                candidate = (x0, y0, w, h)
                if not any(_boxes_overlap(candidate, other) for other in placed):
                    box = candidate
                    break
            if box is None:
                raise GenerationError(
                    f"could not place shape after {MAX_PLACE_RETRIES} retries "
                    f"(size={size}, shapes placed={len(placed)})"
                )
            placed.append(box)
            kind = ("rectangle", "circle", "triangle")[int(rng.integers(0, 3))]
            cls = int(rng.integers(1, num_classes))
            mask = _shape_mask(rng, kind, box, size)
            labels[mask] = cls
            base[mask] = palette[cls]
        noise = rng.normal(0.0, 0.03, size=(size, size, 3))
        image = np.clip(base + noise, 0.0, 1.0)
        samples.append(Sample(image=image, labels=LabelMap(labels)))
    return samples


def _read_header(data: bytes, magic: bytes, path) -> tuple[int, int]:
    if len(data) < 13:
        raise FormatError(f"{path}: truncated header")
    if data[:4] != magic:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    version = data[4]
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    height, width = struct.unpack_from("<II", data, 5)
    if height == 0 or width == 0:
        raise FormatError(f"{path}: zero-sized map")
    return height, width


def write_label_map(path, lm: LabelMap) -> None:
    """Serialize a label map to the binary .segl format."""
    labels = lm.labels
    if labels.max() > 255:
        raise FormatError("label values above 255 cannot be stored as bytes")
    header = _SEGL_MAGIC + bytes([_VERSION]) + struct.pack("<II", *labels.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(labels.astype(np.uint8).tobytes(order="C"))


def read_label_map(path) -> LabelMap:
    """Exact inverse of write_label_map."""
    data = Path(path).read_bytes()
    height, width = _read_header(data, _SEGL_MAGIC, path)
    body = data[13:]
    if len(body) != height * width:
        raise FormatError(
            f"{path}: expected {height * width} label bytes, found {len(body)}"
        )
    labels = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    return LabelMap(labels.astype(np.int64))


def _check_unit_range(image: np.ndarray, path) -> None:
    """Raise FormatError unless every pixel of ``image`` lies in [0, 1]."""
    low, high = image.min(), image.max()
    if not (low >= 0.0 and high <= 1.0):  # a NaN makes both nan, failing both tests
        raise FormatError(f"{path}: pixel values must lie in [0, 1], found {low} to {high}")


def write_image(path, image: np.ndarray) -> None:
    """Serialize an [H, W, 3] real image to the binary SEGI format."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3 or image.size == 0:
        raise ShapeError(f"image must be a non-empty [H, W, 3] array, got {image.shape}")
    _check_unit_range(image, path)
    header = _SEGI_MAGIC + bytes([_VERSION]) + struct.pack("<II", *image.shape[:2])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.astype("<f8").tobytes(order="C"))


def read_image(path) -> np.ndarray:
    data = Path(path).read_bytes()
    height, width = _read_header(data, _SEGI_MAGIC, path)
    body = data[13:]
    expected = height * width * 3 * 8
    if len(body) != expected:
        raise FormatError(f"{path}: expected {expected} image bytes, found {len(body)}")
    image = np.frombuffer(body, dtype="<f8").reshape(height, width, 3).copy()
    _check_unit_range(image, path)
    return image


def write_dataset(directory, samples: list[Sample]) -> list[str]:
    """Write samples as paired <id>.img / <id>.segl files; returns the ids."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = []
    for index, sample in enumerate(samples):
        sample_id = f"{index:06d}"
        write_image(directory / f"{sample_id}.img", sample.image)
        write_label_map(directory / f"{sample_id}.segl", sample.labels)
        ids.append(sample_id)
    return ids


def ingest_index_maps(directory, num_classes: int | None = None) -> list[Sample]:
    """Load every paired <id>.img / <id>.segl from a directory, sorted by id.

    Unpaired files are an ingestion error (all offenders listed). When
    ``num_classes`` is given, any label outside [0, K) is a class-index
    error naming the file.
    """
    directory = Path(directory)
    images = {p.stem: p for p in directory.glob("*.img")}
    labels = {p.stem: p for p in directory.glob("*.segl")}
    unpaired = sorted(set(images) ^ set(labels))
    if unpaired:
        raise IngestionError(f"unpaired dataset files for ids: {', '.join(unpaired)}")
    samples = []
    for stem in sorted(images):
        image = read_image(images[stem])
        lm = read_label_map(labels[stem])
        if image.shape[:2] != lm.labels.shape:
            raise IngestionError(
                f"{stem}: image {image.shape[:2]} and labels {lm.labels.shape} disagree"
            )
        if num_classes is not None and lm.labels.max() >= num_classes:
            raise ClassIndexError(
                f"{labels[stem]}: label {int(lm.labels.max())} >= K={num_classes}"
            )
        samples.append(Sample(image=image, labels=lm, path=images[stem]))
    return samples


def common_resolution(samples: list[Sample]) -> tuple[int, int]:
    """The (height, width) all samples share, or a ConfigError naming the
    first sample that differs: its image file, or its index in ``samples``
    when it was not read from disk."""

    def name(index: int, sample: Sample) -> str:
        return str(sample.path) if sample.path is not None else f"sample {index}"

    first = samples[0]
    height, width = first.image.shape[:2]
    for index, sample in enumerate(samples):
        size = sample.image.shape[:2]
        if size != (height, width):
            raise ConfigError(
                f"{name(index, sample)}: image {size[0]}x{size[1]} differs from "
                f"{name(0, first)} ({height}x{width}); all samples must share one resolution"
            )
    return height, width


def class_histogram(samples: list[Sample], num_classes: int) -> np.ndarray:
    """Pixel counts per class over a sample list."""
    counts = np.zeros(num_classes, dtype=np.int64)
    for sample in samples:
        counts += np.bincount(sample.labels.labels.reshape(-1), minlength=num_classes)
    return counts
