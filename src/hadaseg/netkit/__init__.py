"""Minimal autodiff, toy Pix2Pix-style networks, Adam, and the training loop."""

from . import autodiff
from .checkpoint import load_models, save_models
from .models import (
    HEAD_HADAMARD,
    HEAD_ONE_HOT,
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    ReceptiveField,
    build_discriminator,
    build_generator,
    receptive_field,
)
from .optim import AdamState, adam_init, adam_step
from .train import History, TrainSettings, thread_count, train_cgan

__all__ = [
    "autodiff",
    "AdamState",
    "adam_init",
    "adam_step",
    "build_discriminator",
    "build_generator",
    "Discriminator",
    "DiscriminatorConfig",
    "Generator",
    "GeneratorConfig",
    "HEAD_HADAMARD",
    "HEAD_ONE_HOT",
    "History",
    "load_models",
    "receptive_field",
    "ReceptiveField",
    "save_models",
    "thread_count",
    "TrainSettings",
    "train_cgan",
]
