"""Segmentation maps and evaluation metrics.

Predictions reduce to a label map by per-pixel argmax over the active class
channels. Metrics accumulate over a whole test set as one global confusion
matrix; pixel accuracy and per-class IoU derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ClassIndexError, ShapeError, UndefinedMetricError


@dataclass(frozen=True)
class LabelMap:
    """An H x W grid of integer class indices."""

    labels: np.ndarray  # (H, W) integer array, entries >= 0

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.size == 0:
            raise ShapeError(f"labels must be a non-empty 2-D array, got {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.min() < 0:
            raise ClassIndexError("labels must be non-negative")
        object.__setattr__(self, "labels", labels)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t][p] = number of pixels with truth t predicted as p."""

    counts: np.ndarray  # (K, K) int64

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ShapeError(f"counts must be square, got {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.counts.shape != other.counts.shape:
            raise ShapeError("cannot add confusion matrices of different sizes")
        return ConfusionMatrix(self.counts + other.counts)


def argmax_map(y_hat: np.ndarray, num_classes: int) -> LabelMap:
    """Per-pixel argmax over the first ``num_classes`` channels.

    Ties resolve to the lowest class index.
    """
    y_hat = np.asarray(y_hat)
    if y_hat.ndim != 3:
        raise ShapeError(f"expected [H, W, n] tensor, got shape {y_hat.shape}")
    if num_classes > y_hat.shape[-1]:
        raise CapacityError(
            f"num_classes={num_classes} exceeds channel count {y_hat.shape[-1]}"
        )
    if num_classes < 1:
        raise ClassIndexError(f"num_classes must be >= 1, got {num_classes}")
    labels = np.argmax(y_hat[..., :num_classes], axis=-1).astype(np.int64)
    return LabelMap(labels=labels)


def confusion(pred: LabelMap, truth: LabelMap, num_classes: int) -> ConfusionMatrix:
    """Exact (truth, prediction) pixel counts; additive across images."""
    if pred.labels.shape != truth.labels.shape:
        raise ShapeError(
            f"prediction {pred.labels.shape} and truth {truth.labels.shape} differ"
        )
    for name, lm in (("pred", pred), ("truth", truth)):
        if lm.labels.max() >= num_classes:
            raise ClassIndexError(
                f"{name} contains label {int(lm.labels.max())} >= K={num_classes}"
            )
    joint = num_classes * truth.labels.reshape(-1) + pred.labels.reshape(-1)
    counts = np.bincount(joint, minlength=num_classes * num_classes)
    return ConfusionMatrix(counts.reshape(num_classes, num_classes).astype(np.int64))


def pixel_accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of pixels whose prediction equals the ground truth."""
    total = int(cm.counts.sum())
    if total == 0:
        raise UndefinedMetricError("pixel accuracy of an empty confusion matrix")
    return float(np.trace(cm.counts) / total)


def class_iou(cm: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class IoU and the mean over evaluated classes.

    IoU_c = counts[c][c] / (row_c + col_c - counts[c][c]). Classes absent
    from both truth and prediction (zero union) are reported as NaN and
    excluded from the mean; classes present in truth but never predicted
    get IoU 0 and do count toward the mean.
    """
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    union = counts.sum(axis=1) + counts.sum(axis=0) - diag
    iou = np.full(cm.num_classes, np.nan)
    evaluated = union > 0
    iou[evaluated] = diag[evaluated] / union[evaluated]
    if not evaluated.any():
        raise UndefinedMetricError("IoU of an empty confusion matrix")
    return iou, float(iou[evaluated].mean())


def metrics_report(cm: ConfusionMatrix) -> dict:
    """Key-value report: accuracy, both mean-IoU views, per-class detail.

    ``mean_iou`` excludes absent (zero-union) classes; for comparison with
    conventions that count them as zeros, ``mean_iou_absent_as_zero``
    averages over all K classes with absent ones contributing 0.
    """
    iou, mean_iou = class_iou(cm)
    truth_present = cm.counts.sum(axis=1) > 0
    pred_present = cm.counts.sum(axis=0) > 0
    per_class = []
    for c in range(cm.num_classes):
        absent = not (truth_present[c] or pred_present[c])
        per_class.append(
            {
                "class": c,
                "iou": None if absent else float(iou[c]),
                "present_in_truth": bool(truth_present[c]),
                "present_in_prediction": bool(pred_present[c]),
                "evaluated": not absent,
            }
        )
    return {
        "pixel_accuracy": pixel_accuracy(cm),
        "mean_iou": mean_iou,
        "mean_iou_absent_as_zero": float(np.nansum(iou) / cm.num_classes),
        "num_classes": cm.num_classes,
        "total_pixels": int(cm.counts.sum()),
        # Background (class 0) is included in both means.
        "mean_includes_background": True,
        "per_class": per_class,
    }
