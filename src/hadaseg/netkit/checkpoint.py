"""Named-tensor checkpoints: raw little-endian float64 plus a text manifest.

A checkpoint is a directory holding ``tensors.bin`` (the concatenated raw
values) and ``manifest.txt``. The manifest starts with an identifying line,
then ``meta <key> <value>`` lines, then one ``tensor <name> <offset>
<count> <ndim> <dims...>`` line per tensor, offsets in elements. A key or
tensor name appears at most once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError
from .models import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    build_discriminator,
    build_generator,
)

_MANIFEST = "manifest.txt"
_TENSORS = "tensors.bin"
_HEADER = "hadaseg-checkpoint 1"


def _check_token(token: str, what: str) -> str:
    token = str(token)
    if not token or any(ch.isspace() for ch in token):
        raise FormatError(f"{what} {token!r} must be a non-empty whitespace-free token")
    return token


def save_checkpoint(directory, tensors: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [_HEADER]
    for key in sorted(meta):
        lines.append(f"meta {_check_token(key, 'meta key')} {_check_token(meta[key], 'meta value')}")
    offset = 0
    blobs = []
    for name in sorted(tensors):
        array = np.ascontiguousarray(tensors[name], dtype="<f8")
        dims = " ".join(str(d) for d in array.shape)
        lines.append(
            f"tensor {_check_token(name, 'tensor name')} {offset} {array.size} "
            f"{array.ndim} {dims}".rstrip()
        )
        blobs.append(array.tobytes(order="C"))
        offset += array.size
    (directory / _TENSORS).write_bytes(b"".join(blobs))
    (directory / _MANIFEST).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_checkpoint(directory) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    directory = Path(directory)
    manifest = directory / _MANIFEST
    if not manifest.exists():
        raise FormatError(f"{directory}: no {_MANIFEST} found")
    try:
        lines = manifest.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{manifest}: not ASCII text: {exc}") from None
    if not lines or lines[0] != _HEADER:
        raise FormatError(f"{manifest}: bad header line")
    blob = (directory / _TENSORS).read_bytes()
    if len(blob) % 8:
        raise FormatError(
            f"{directory / _TENSORS}: {len(blob)} bytes is not a whole number of float64 values"
        )
    raw = np.frombuffer(blob, dtype="<f8")
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "meta" and len(parts) == 3:
            if parts[1] in meta:
                raise FormatError(f"{manifest}: duplicate meta key {parts[1]!r}")
            meta[parts[1]] = parts[2]
        elif parts[0] == "tensor" and len(parts) >= 4:
            try:
                name = parts[1]
                offset, count, ndim = int(parts[2]), int(parts[3]), int(parts[4])
                dims = tuple(int(d) for d in parts[5 : 5 + ndim])
            except (ValueError, IndexError) as exc:
                raise FormatError(f"{manifest}: bad tensor line {line!r}") from exc
            if len(dims) != ndim or int(np.prod(dims, dtype=np.int64)) != count:
                raise FormatError(f"{manifest}: inconsistent dims in {line!r}")
            if offset < 0 or any(d < 0 for d in dims):
                raise FormatError(f"{manifest}: negative offset or dimension in {line!r}")
            if offset + count > raw.size:
                raise FormatError(f"{manifest}: {name} overruns the tensor blob")
            if name in tensors:
                raise FormatError(f"{manifest}: duplicate tensor {name!r}")
            tensors[name] = raw[offset : offset + count].reshape(dims).copy()
        else:
            raise FormatError(f"{manifest}: unrecognized line {line!r}")
    return tensors, meta


def save_models(directory, gen: Generator, disc: Discriminator, num_classes: int) -> None:
    """Checkpoint both networks with enough metadata to rebuild them."""
    tensors = {f"gen.{n}": p.value for n, p in gen.parameters.items()}
    tensors.update({f"disc.{n}": p.value for n, p in disc.parameters.items()})
    meta = {
        "head": gen.cfg.head,
        "code_bits": str(gen.cfg.code_bits),
        "num_classes": str(num_classes),
        "gen.input_channels": str(gen.cfg.input_channels),
        "gen.depth": str(gen.cfg.depth),
        "gen.base_channels": str(gen.cfg.base_channels),
        "disc.layers": str(disc.cfg.layers),
        "disc.base_channels": str(disc.cfg.base_channels),
        "disc.input_channels": str(disc.input_channels),
    }
    save_checkpoint(directory, tensors, meta)


def _require(meta: dict[str, str], key: str) -> str:
    if key not in meta:
        raise FormatError(f"checkpoint metadata missing {key!r}")
    return meta[key]


def _require_int(meta: dict[str, str], key: str) -> int:
    """The integer value of checkpoint metadata ``key``, or a FormatError."""
    value = _require(meta, key)
    try:
        return int(value)
    except ValueError:
        raise FormatError(f"checkpoint metadata {key!r} is not an integer: {value!r}") from None


def load_models(directory) -> tuple[Generator, Discriminator, dict[str, str]]:
    """Rebuild both networks from a checkpoint written by save_models.

    The returned metadata holds an integer ``num_classes`` in
    [2, 2^code_bits], the class count the generator's head can decode.
    Metadata that builds no network is the file's fault: FormatError.
    """
    tensors, meta = load_checkpoint(directory)
    try:
        gen_cfg = GeneratorConfig(
            input_channels=_require_int(meta, "gen.input_channels"),
            depth=_require_int(meta, "gen.depth"),
            base_channels=_require_int(meta, "gen.base_channels"),
            code_bits=_require_int(meta, "code_bits"),
            head=_require(meta, "head"),
        )
        gen_cfg.check_num_classes(_require_int(meta, "num_classes"))
        disc_cfg = DiscriminatorConfig(
            layers=_require_int(meta, "disc.layers"),
            base_channels=_require_int(meta, "disc.base_channels"),
        )
        gen = build_generator(gen_cfg, seed=0)
        disc = build_discriminator(
            disc_cfg, input_channels=_require_int(meta, "disc.input_channels"), seed=0
        )
    except ConfigError as exc:
        raise FormatError(f"{directory}: bad checkpoint metadata: {exc}") from exc
    for prefix, model in (("gen", gen), ("disc", disc)):
        for name, param in model.parameters.items():
            key = f"{prefix}.{name}"
            if key not in tensors:
                raise FormatError(f"checkpoint missing tensor {key!r}")
            stored = tensors[key]
            if stored.shape != param.value.shape:
                raise FormatError(
                    f"{key}: stored shape {stored.shape} != model shape {param.value.shape}"
                )
            param.value[...] = stored
    return gen, disc, meta
