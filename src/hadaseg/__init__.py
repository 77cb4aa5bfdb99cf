"""Hadamard error-correcting class codes for semantic segmentation."""

from .codes import (
    Codebook,
    fwht,
    fwht_apply,
    min_pairwise_distance,
    sylvester,
    write_codebook_csv,
)
from .layer import LayerActivation, hadamard_backward, hadamard_forward
from .loss import (
    GeneratorLossTerms,
    LossWeights,
    cross_entropy,
    discriminator_loss,
    generator_loss,
    mae,
)
from .metrics import (
    ConfusionMatrix,
    LabelMap,
    argmax_map,
    class_iou,
    confusion,
    metrics_report,
    pixel_accuracy,
)
from .data import EncodedTargets, Sample, encode_targets, gen_synthetic

__version__ = "0.1.0"

__all__ = [
    "argmax_map",
    "class_iou",
    "Codebook",
    "confusion",
    "ConfusionMatrix",
    "cross_entropy",
    "discriminator_loss",
    "encode_targets",
    "EncodedTargets",
    "fwht",
    "fwht_apply",
    "gen_synthetic",
    "generator_loss",
    "GeneratorLossTerms",
    "hadamard_backward",
    "hadamard_forward",
    "LabelMap",
    "LayerActivation",
    "LossWeights",
    "mae",
    "metrics_report",
    "min_pairwise_distance",
    "pixel_accuracy",
    "Sample",
    "sylvester",
    "write_codebook_csv",
]
