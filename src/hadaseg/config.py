"""Experiment configuration: one declarative text file per run.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys are dotted lowercase names (see KEYS). Unknown or
duplicate keys are configuration errors, as are out-of-range values and
cross-field inconsistencies such as more classes than the codebook can hold.

Each section's keys set fields of one dataclass (GeneratorConfig,
DiscriminatorConfig, LossWeights, TrainSettings), and that dataclass alone
holds their defaults and ranges. ExperimentConfig holds the four sections
plus the run-wide seed, classes, data.dir and train.steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .loss import LossWeights
from .netkit.models import DiscriminatorConfig, GeneratorConfig
from .netkit.train import TrainSettings

# section attribute -> the dataclass it holds, in error-message order
_SECTIONS = {
    "generator": GeneratorConfig,
    "discriminator": DiscriminatorConfig,
    "loss": LossWeights,
    "train": TrainSettings,
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    classes: int = 8
    data_dir: str = ""
    steps: int = 800
    generator: GeneratorConfig = GeneratorConfig()
    discriminator: DiscriminatorConfig = DiscriminatorConfig()
    loss: LossWeights = LossWeights()
    train: TrainSettings = TrainSettings()


# key -> (section, field name, parser); section None is ExperimentConfig itself
KEYS = {
    "seed": (None, "seed", int),
    "classes": (None, "classes", int),
    "codebook.k": ("generator", "code_bits", int),
    "data.dir": (None, "data_dir", str),
    "generator.depth": ("generator", "depth", int),
    "generator.base_channels": ("generator", "base_channels", int),
    "discriminator.layers": ("discriminator", "layers", int),
    "discriminator.base_channels": ("discriminator", "base_channels", int),
    "loss.lambda1": ("loss", "lambda1", float),
    "loss.lambda2": ("loss", "lambda2", float),
    "loss.lambda3": ("loss", "lambda3", float),
    "train.steps": (None, "steps", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.lr": ("train", "lr", float),
    "train.beta1": ("train", "beta1", float),
    "train.beta2": ("train", "beta2", float),
    "train.log_every": ("train", "log_every", int),
    "train.metrics_every": ("train", "metrics_every", int),
}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a config document and reject one that cannot run.

    Each section is built from its keys, so its dataclass checks its own
    ranges. The parse adds only what no section checks: ``classes`` against
    the code capacity (once the generator builds), and ``train.steps`` and
    ``seed`` >= 0. All problems go into one ConfigError, each prefixed with
    its section; a section reports only its first.
    """
    values: dict[str | None, dict] = {section: {} for section in (None, *_SECTIONS)}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        section, field_name, parser = KEYS[key]
        try:
            values[section][field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc

    problems = []
    sections = {}
    for name, build in _SECTIONS.items():
        try:
            sections[name] = build(**values[name])
        except (ConfigError, ValueError) as exc:  # LossWeights raises ValueError
            problems.append(f"{name}: {exc}")
    cfg = ExperimentConfig(**values[None], **sections)
    if "generator" in sections:
        try:
            cfg.generator.check_num_classes(cfg.classes)
        except ConfigError as exc:
            problems.append(f"classes: {exc}")
    if cfg.steps < 0:
        problems.append(f"train: steps={cfg.steps} must be >= 0")
    if cfg.seed < 0:
        problems.append(f"seed: {cfg.seed} must be >= 0")
    if problems:
        raise ConfigError(f"{source}: " + "; ".join(problems))
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))
