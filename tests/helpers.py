"""Shared test utilities: gradient checking against central finite differences,
walking an autodiff tape, reference upsampling, concatenation, column
scatter and sub-pixel phase placement ops, corrupting an image file, and
killing training's chunk workers."""

import multiprocessing
import os
import signal
import struct
from pathlib import Path

import numpy as np

from hadaseg.errors import ShapeError
from hadaseg.netkit import autodiff as ad
from hadaseg.netkit import train


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max-norm relative discrepancy between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def finite_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x.

    Perturbs x in place coordinate by coordinate; f must recompute from x
    on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = f(x)
        flat[i] = original - step
        f_minus = f(x)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def reachable_nodes(roots) -> list:
    """Every autodiff node reachable from ``roots`` through parents, each once."""
    seen, stack, nodes = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def nearest_upsample_2x(x):
    """Double both spatial axes of the autodiff node ``x`` [B, H, W, C] by
    pixel repetition: the reference that a ``conv2d`` over an
    ``autodiff.Upsampled`` part is composed against."""
    xv = x.value
    out = xv.repeat(2, axis=1).repeat(2, axis=2)

    def backprop(g):
        batch, height, width, channels = xv.shape
        return (g.reshape(batch, height, 2, width, 2, channels).sum(axis=(2, 4)),)

    return ad.Node(out, parents=(x,), backprop=backprop)


def channel_concat(a, b):
    """Concatenate the autodiff nodes ``a`` and ``b`` along the channel
    (last) axis: the reference that a ``conv2d`` over a list of parts is
    composed against."""
    av, bv = a.value, b.value
    if av.shape[:-1] != bv.shape[:-1]:
        raise ShapeError(
            f"concat inputs differ outside the channel axis: {av.shape} vs {bv.shape}"
        )
    out = np.concatenate((av, bv), axis=-1)
    split = av.shape[-1]

    def backprop(g):
        return (
            g[..., :split].copy() if a.needs_grad else None,
            g[..., split:].copy() if b.needs_grad else None,
        )

    return ad.Node(out, parents=(a, b), backprop=backprop)


def col2im(dcols, shape, k, stride, out_hw):
    """The adjoint of the im2col of a map of ``shape`` [B, H, W, C] padded
    by k // 2: the map's gradient, given the gradient ``dcols``
    [B * Ho * Wo, k * k * C] of its k x k windows taken at ``stride``. Each
    tap's window gradients are added back where that tap read, one strided
    slice per tap in (kh, kw) order: the scatter that a stride-2 conv's
    input gradient and an ``autodiff.Upsampled`` part's adjoint (k = 2,
    stride 1) are compared against."""
    batch, height, width, channels = shape
    out_h, out_w = out_hw
    pad = k // 2
    dcols = dcols.reshape(batch, out_h, out_w, k, k, channels)
    dxp = np.zeros((batch, height + 2 * pad, width + 2 * pad, channels))
    for i in range(k):
        for j in range(k):
            dxp[
                :,
                i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
                :,
            ] += dcols[:, :, :, i, j, :]
    return dxp[:, pad : pad + height, pad : pad + width, :]


def add_subpixel_phases_by_slices(out, phases, low_shape):
    """Add the sub-pixel ``phases`` [B (h+1) (w+1), 4 Cout] to ``out``
    [B, 2h, 2w, Cout] one phase at a time: phase (a, c), read at window
    offset (a, c), lands on the output pixels of row parity a and column
    parity c. The four strided slice adds that
    ``autodiff._add_subpixel_phases`` is compared against."""
    batch, height, width, _ = low_shape
    phases = phases.reshape(batch, height + 1, width + 1, 2, 2, -1)
    blocks = out.reshape(batch, height, 2, width, 2, -1)
    for a in range(2):
        for c in range(2):
            blocks[:, :, a, :, c] += phases[:, a : a + height, c : c + width, a, c]


def subpixel_phase_gradient_by_slices(g):
    """The adjoint of ``add_subpixel_phases_by_slices``: the output gradient
    ``g`` [B, 2h, 2w, Cout] copied phase by phase into a zeroed
    [B (h+1) (w+1), 4 Cout] phase gradient. The reference that
    ``autodiff._subpixel_phase_gradient`` is compared against."""
    batch, height, width, cout = g.shape[0], g.shape[1] // 2, g.shape[2] // 2, g.shape[3]
    g_blocks = g.reshape(batch, height, 2, width, 2, cout)
    g_phases = np.zeros((batch, height + 1, width + 1, 2, 2, cout))
    for a in range(2):
        for c in range(2):
            g_phases[:, a : a + height, c : c + width, a, c] = g_blocks[:, :, a, :, c]
    return g_phases.reshape(-1, 4 * cout)


def write_bad_pixel(path, index, value: float) -> None:
    """Set pixel ``index`` (row, column, channel) of a valid `.img` file to
    ``value`` by editing its bytes, since write_image refuses values outside
    [0, 1]."""
    data = bytearray(Path(path).read_bytes())
    height, width = struct.unpack_from("<II", data, 5)
    offset = 13 + 8 * int(np.ravel_multi_index(index, (height, width, 3)))
    struct.pack_into("<d", data, offset, value)
    Path(path).write_bytes(data)


def kill_workers_at_step(monkeypatch, step: int) -> None:
    """Make training's parent process SIGKILL its chunk workers during
    step ``step``, from a hook in the parent's own discriminator part."""
    parent = os.getpid()
    calls = []
    loss_sums = train.discriminator_loss_sums

    def killing_loss_sums(*args):
        if os.getpid() == parent:
            calls.append(None)
            if len(calls) == step:
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGKILL)
        return loss_sums(*args)

    monkeypatch.setattr(train, "discriminator_loss_sums", killing_loss_sums)
