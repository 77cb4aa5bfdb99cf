"""UNet-lite generator and PatchGAN-lite discriminator.

The generator is an hourglass: ``depth`` stride-2 conv stages down, the
mirror image up via nearest-neighbor upsampling with skip concatenation,
then a 1x1 projection to the 2^k code channels and a classification head.
Both heads (plain per-pixel softmax, or the code-correlation head) are
parameter-free, so swapping them never changes the trainable parameter
count.

Each decoder stage (upsample, concat, 3x3 conv) is computed as one
``upsample_concat_conv2d`` op at the low resolution, without the upsampled
map: the upsampled branch is four 2x2 sub-pixel convs, one per output
phase. The architecture and its parameters are those of the three-op chain.

The discriminator is a stack of stride-2 convolutions ending in a 1-channel
sigmoid map; each output cell scores one receptive-field patch of its input.
Its input is a pair, an image and a class map, and its first layer is one
``conv2d`` over the two parts, so the concatenated map is never built. A
class map may be narrower than the channels the first layer has left for
it; the missing channels read as zero, so a one-hot target of K classes
passes only its K nonzero channels. A caller that scores several pairs with
a part in common builds that part's columns once (``Discriminator.columns``)
and passes them to each ``forward``: a training step builds its image's and
its predicted map's columns in the discriminator update and keeps them for
the generator update (train.py).

A config with a kernel numpy cannot address (8-byte elements over
``sys.maxsize``, ``gen_synthetic``'s rule for images) raises ConfigError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..codes import Codebook, sylvester
from ..errors import ConfigError, ShapeError
from . import autodiff as ad

HEAD_ONE_HOT = "one_hot"
HEAD_HADAMARD = "hadamard"

_KERNEL = 3

# Each stage doubles the widest kernel's channels, so no network this deep
# is addressable; checking only this many stages never builds 2**depth.
_MAX_ADDRESSABLE_DEPTH = 64


def _check_addressable(network: str, kernels) -> None:
    """Raise ConfigError unless numpy can address every float64 kernel
    [k, k, Cin, Cout] of ``kernels``, given as (name, Cin, Cout, k)."""
    for name, cin, cout, k in kernels:
        if k * k * cin * cout * 8 > sys.maxsize:
            raise ConfigError(f"{network} layer {name} is too large for numpy to address")


@dataclass(frozen=True)
class GeneratorConfig:
    input_channels: int = 3
    depth: int = 3
    base_channels: int = 16
    code_bits: int = 3
    head: str = HEAD_HADAMARD

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"generator depth must be >= 1, got {self.depth}")
        if self.base_channels < 1 or self.input_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if not 0 <= self.code_bits <= 16:
            raise ConfigError(f"code_bits must be in [0, 16], got {self.code_bits}")
        if self.head not in (HEAD_ONE_HOT, HEAD_HADAMARD):
            raise ConfigError(f"unknown head {self.head!r}")
        _check_addressable("generator", self._kernels(min(self.depth, _MAX_ADDRESSABLE_DEPTH)))

    def _kernels(self, depth: int):
        """(name, Cin, Cout, k) of each conv, at ``depth`` stages."""
        base = self.base_channels
        for d in range(depth):
            cin = self.input_channels if d == 0 else base * 2 ** (d - 1)
            yield f"enc{d}", cin, base * 2**d, _KERNEL
        for d in range(depth):
            up_ch = base * 2 ** (depth - 1) if d == depth - 1 else base * 2**d
            skip_ch = self.input_channels if d == 0 else base * 2 ** (d - 1)
            out_ch = base if d == 0 else base * 2 ** (d - 1)
            yield f"dec{d}", up_ch + skip_ch, out_ch, _KERNEL
        yield "out", base, self.output_channels, 1

    @property
    def output_channels(self) -> int:
        return 2**self.code_bits

    def check_num_classes(self, num_classes: int) -> None:
        """Raise ConfigError unless the head can decode ``num_classes``
        classes: 2 <= num_classes <= 2^code_bits."""
        if not 2 <= num_classes <= self.output_channels:
            raise ConfigError(
                f"'num_classes' is {num_classes}, outside [2, {self.output_channels}], "
                f"the class capacity of code_bits={self.code_bits}"
            )

    def check_input_size(self, height: int, width: int) -> None:
        """Raise ShapeError unless 2^depth divides both sides, so that every
        skip connection meets an upsampled map of its own size."""
        factor = 2**self.depth
        if height % factor or width % factor:
            raise ShapeError(f"input {height}x{width} not divisible by 2^depth = {factor}")


@dataclass(frozen=True)
class DiscriminatorConfig:
    layers: int = 3
    base_channels: int = 16

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ConfigError(f"discriminator needs >= 1 layers, got {self.layers}")
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        layers = min(self.layers, _MAX_ADDRESSABLE_DEPTH)
        _check_addressable("discriminator", self._kernels(1, layers))

    def _kernels(self, input_channels: int, layers: int):
        """(name, Cin, Cout, k) of each conv, at ``layers`` stride-2 layers."""
        base = self.base_channels
        for layer in range(layers):
            cin = input_channels if layer == 0 else base * 2 ** (layer - 1)
            yield f"d{layer}", cin, base * 2**layer, _KERNEL
        yield "out", base * 2 ** (layers - 1), 1, _KERNEL

    def check_input_size(self, height: int, width: int) -> None:
        """Raise ConfigError unless the shorter side holds the receptive
        field of one output cell and 2^layers divides it."""
        size = min(height, width)
        rf = receptive_field(self).size
        if rf > size:
            raise ConfigError(f"receptive field {rf} exceeds input size {size}")
        if size % 2**self.layers:
            raise ConfigError(
                f"input size {size} not divisible by 2^layers = {2 ** self.layers}"
            )


@dataclass(frozen=True)
class ReceptiveField:
    """Analytic receptive field of one discriminator output cell.

    Output cell i (per axis) sees input pixels [i*stride - offset,
    i*stride - offset + size - 1], clipped to the image.
    """

    size: int
    stride: int
    offset: int

    def window(self, i: int) -> tuple[int, int]:
        start = i * self.stride - self.offset
        return start, start + self.size - 1


def receptive_field(cfg: DiscriminatorConfig) -> ReceptiveField:
    """Standard recurrence r <- r + (k-1)*jump over the conv stack."""
    size, jump, offset = 1, 1, 0
    pad = _KERNEL // 2
    for stride in [2] * cfg.layers + [1]:  # stride-2 stack plus the 1-channel head
        offset += pad * jump
        size += (_KERNEL - 1) * jump
        jump *= stride
    return ReceptiveField(size=size, stride=jump, offset=offset)


def _init_convs(kernels, seed) -> dict[str, ad.Parameter]:
    """The weight and bias Parameters of each conv (name, Cin, Cout, k), in
    order: a fan-in-scaled uniform kernel drawn from ``seed``, a zero bias."""
    rng = np.random.default_rng(seed)
    parameters = {}
    for name, cin, cout, k in kernels:
        bound = 1.0 / np.sqrt(k * k * cin)
        w = rng.uniform(-bound, bound, size=(k, k, cin, cout))
        parameters[f"{name}.w"] = ad.Parameter(f"{name}.w", w)
        parameters[f"{name}.b"] = ad.Parameter(f"{name}.b", np.zeros(cout))
    return parameters


class Generator:
    """Weights plus a forward pass producing (probability map, code map)."""

    def __init__(self, cfg: GeneratorConfig, seed: int | np.random.SeedSequence = 0):
        self.cfg = cfg
        self.codebook: Codebook = sylvester(cfg.code_bits)
        self.parameters = _init_convs(cfg._kernels(cfg.depth), seed)

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters.values())

    def _p(self, name: str) -> ad.Parameter:
        return self.parameters[name]

    def forward(self, x) -> tuple[ad.Node, ad.Node]:
        """Returns (y_hat, y_c): per-pixel probabilities and pre-head codes."""
        x = ad.as_node(x)
        if x.value.ndim != 4 or x.value.shape[3] != self.cfg.input_channels:
            raise ShapeError(
                f"expected [B, H, W, {self.cfg.input_channels}] input, "
                f"got {x.value.shape}"
            )
        self.cfg.check_input_size(x.value.shape[1], x.value.shape[2])

        skips = [x]  # skips[d] lives at resolution H / 2^d
        h = x
        for d in range(self.cfg.depth):
            h = ad.leaky_relu(ad.conv2d(h, self._p(f"enc{d}.w"), self._p(f"enc{d}.b"), stride=2))
            if d < self.cfg.depth - 1:
                skips.append(h)
        for d in reversed(range(self.cfg.depth)):
            h = ad.relu(
                ad.upsample_concat_conv2d(h, skips[d], self._p(f"dec{d}.w"), self._p(f"dec{d}.b"))
            )
        y_c = ad.conv2d(h, self._p("out.w"), self._p("out.b"), stride=1)
        if self.cfg.head == HEAD_HADAMARD:
            y_hat = ad.hadamard_head(y_c, self.codebook)
        else:
            y_hat = ad.per_pixel_softmax(y_c)
        return y_hat, y_c


class Discriminator:
    """Conditional patch discriminator over (image, class map) pairs."""

    def __init__(
        self,
        cfg: DiscriminatorConfig,
        input_channels: int,
        seed: int | np.random.SeedSequence = 0,
    ):
        if input_channels < 1:
            raise ConfigError("discriminator input_channels must be >= 1")
        kernels = list(cfg._kernels(input_channels, cfg.layers))
        _check_addressable("discriminator", kernels)
        self.cfg = cfg
        self.input_channels = input_channels
        self.parameters = _init_convs(kernels, seed)

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters.values())

    def columns(self, part) -> ad.Columns:
        """The first layer's columns of ``part``, an image or class map
        [B, H, W, C] (a Node, or a raw array that gets no gradient): what
        ``forward``'s first layer builds from a map part, for a caller that
        passes one part to several forwards."""
        return ad.conv_columns(part, _KERNEL, 2)

    def forward(self, image, classes) -> ad.Node:
        """Patch probability map alpha, shape [B, h, w, 1], entries in (0, 1),
        of the pair (``image``, ``classes``): the conv stack over their
        channel concatenation, zero-extended to ``input_channels``.

        Each part is a map [B, H, W, C] (a Node, or a raw array that gets no
        gradient) or its first-layer columns from ``columns``; the first
        layer is one ``conv2d`` over the two parts, which checks them.
        """
        source = image.source if isinstance(image, ad.Columns) else ad.as_node(image)
        self.cfg.check_input_size(*source.value.shape[1:3])
        h = ad.leaky_relu(
            ad.conv2d([image, classes], self.parameters["d0.w"], self.parameters["d0.b"], stride=2)
        )
        for layer in range(1, self.cfg.layers):
            h = ad.leaky_relu(
                ad.conv2d(h, self.parameters[f"d{layer}.w"], self.parameters[f"d{layer}.b"], stride=2)
            )
        logits = ad.conv2d(h, self.parameters["out.w"], self.parameters["out.b"], stride=1)
        return ad.sigmoid(logits)


def build_generator(cfg: GeneratorConfig, seed: int | np.random.SeedSequence = 0) -> Generator:
    return Generator(cfg, seed=seed)


def build_discriminator(
    cfg: DiscriminatorConfig,
    input_channels: int,
    seed: int | np.random.SeedSequence = 0,
    input_size: int | None = None,
) -> Discriminator:
    """Build the patch discriminator; when the caller knows the square
    ``input_size`` up front, reject a config that cannot take it."""
    if input_size is not None:
        cfg.check_input_size(input_size, input_size)
    return Discriminator(cfg, input_channels=input_channels, seed=seed)
