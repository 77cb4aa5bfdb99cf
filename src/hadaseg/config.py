"""Experiment configuration: one declarative text file per run.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys are dotted lowercase names (see KEYS). Unknown or
duplicate keys are configuration errors, as are out-of-range values and
cross-field inconsistencies such as more classes than the codebook can hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .loss import LossWeights
from .netkit.models import HEAD_HADAMARD, DiscriminatorConfig, GeneratorConfig
from .netkit.train import TrainSettings


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    classes: int = 8
    codebook_k: int = 3
    data_dir: str = ""
    gen_depth: int = 3
    gen_base_channels: int = 16
    disc_layers: int = 3
    disc_base_channels: int = 16
    lambda1: float = 1000.0
    lambda2: float = 100.0
    lambda3: float = 250.0
    steps: int = 800
    batch_size: int = 4
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    log_every: int = 1
    metrics_every: int = 50

    def generator_config(self, head: str) -> GeneratorConfig:
        return GeneratorConfig(
            input_channels=3,
            depth=self.gen_depth,
            base_channels=self.gen_base_channels,
            code_bits=self.codebook_k,
            head=head,
        )

    def discriminator_config(self) -> DiscriminatorConfig:
        return DiscriminatorConfig(
            layers=self.disc_layers, base_channels=self.disc_base_channels
        )

    def weights(self) -> LossWeights:
        return LossWeights(self.lambda1, self.lambda2, self.lambda3)

    def settings(self) -> TrainSettings:
        return TrainSettings(
            batch_size=self.batch_size,
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            log_every=self.log_every,
            metrics_every=self.metrics_every,
        )


# key -> (field name, parser)
KEYS = {
    "seed": ("seed", int),
    "classes": ("classes", int),
    "codebook.k": ("codebook_k", int),
    "data.dir": ("data_dir", str),
    "generator.depth": ("gen_depth", int),
    "generator.base_channels": ("gen_base_channels", int),
    "discriminator.layers": ("disc_layers", int),
    "discriminator.base_channels": ("disc_base_channels", int),
    "loss.lambda1": ("lambda1", float),
    "loss.lambda2": ("lambda2", float),
    "loss.lambda3": ("lambda3", float),
    "train.steps": ("steps", int),
    "train.batch_size": ("batch_size", int),
    "train.lr": ("lr", float),
    "train.beta1": ("beta1", float),
    "train.beta2": ("beta2", float),
    "train.log_every": ("log_every", int),
    "train.metrics_every": ("metrics_every", int),
}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
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
        field_name, parser = KEYS[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    validate_config(cfg, source=source)
    return cfg


def validate_config(cfg: ExperimentConfig, source: str = "<config>") -> None:
    """Reject a config that cannot run, before any run starts.

    Each section's ranges are checked by the dataclass it builds
    (GeneratorConfig, DiscriminatorConfig, LossWeights, TrainSettings).
    This adds only what no section checks: ``classes`` against the code
    capacity (once the generator builds), and ``train.steps`` and ``seed``
    >= 0. All problems go into one ConfigError, each prefixed with its
    section; a section reports only its first.
    """
    problems = []

    def check(section: str, build):
        try:
            return build()
        except (ConfigError, ValueError) as exc:  # LossWeights raises ValueError
            problems.append(f"{section}: {exc}")
            return None

    gen_cfg = check("generator", lambda: cfg.generator_config(HEAD_HADAMARD))
    check("discriminator", cfg.discriminator_config)
    check("loss", cfg.weights)
    check("train", cfg.settings)
    if gen_cfg is not None:
        check("classes", lambda: gen_cfg.check_num_classes(cfg.classes))
    if cfg.steps < 0:
        problems.append(f"train: steps={cfg.steps} must be >= 0")
    if cfg.seed < 0:
        problems.append(f"seed: {cfg.seed} must be >= 0")
    if problems:
        raise ConfigError(f"{source}: " + "; ".join(problems))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))
