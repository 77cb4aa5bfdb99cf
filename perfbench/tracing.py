"""Span tracing around the public functions of every hadaseg layer.

The tracer is installed from outside the package: it replaces each public
function (and each public method of a public class) of the layer modules
with a wrapper that records one span per call, and ``uninstall`` restores
the originals. A span is ``[name, start, end, parent, attrs]``: the layer
and function name, ``perf_counter`` timestamps, the index of the enclosing
span (-1 at top level) and a dict of counts and labels, or None.

Modules bind some functions by name (``from ..layer import
hadamard_forward``), so every hadaseg namespace that holds the original
function object gets the wrapper, not only the defining module. The
benchmark's own code calls the package through module attributes for the
same reason.

Autodiff ops return a ``Node`` whose ``_backprop`` closure runs later,
inside ``backward``; the tracer wraps that closure too, so every op gets a
forward span and a ``.bwd`` span, and ``backward``'s self time is what the
engine spends outside the ops (toposort, gradient zeroing).
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import hadaseg.codes
import hadaseg.data
import hadaseg.layer
import hadaseg.loss
import hadaseg.metrics
import hadaseg.netkit.autodiff
import hadaseg.netkit.checkpoint
import hadaseg.netkit.models
import hadaseg.netkit.optim
import hadaseg.netkit.train

# The layers, named as the benchmark reports them. cli and config only
# parse arguments and files, so they are not layers of a timed run.
LAYERS = {
    "codes": hadaseg.codes,
    "layer": hadaseg.layer,
    "loss": hadaseg.loss,
    "metrics": hadaseg.metrics,
    "data": hadaseg.data,
    "autodiff": hadaseg.netkit.autodiff,
    "models": hadaseg.netkit.models,
    "optim": hadaseg.netkit.optim,
    "train": hadaseg.netkit.train,
    "checkpoint": hadaseg.netkit.checkpoint,
}

ELEMENTWISE_OPS = {
    "autodiff.leaky_relu",
    "autodiff.relu",
    "autodiff.sigmoid",
    "autodiff.nearest_upsample_2x",
    "autodiff.channel_concat",
    "autodiff.per_pixel_softmax",
}

_MODEL_TAGS = {"models.Generator.forward": "gen", "models.Discriminator.forward": "disc"}
_FLOAT_BYTES = 8


def _public_callables(module):
    """(owner, attribute, function) for the module's own public functions
    and the public methods of its own public classes."""
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attr, value
        elif inspect.isclass(value):
            for method, fn in sorted(vars(value).items()):
                if not method.startswith("_") and inspect.isfunction(fn):
                    yield value, method, fn


def _tree_bytes(path) -> int:
    """Size of a file, or of the files directly inside a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _conv_work(w, stride: int, out_shape) -> dict:
    """The matmul work of one conv2d forward.

    Forward is one [M, K] x [K, N] product, with M output pixels, K = k*k*Cin
    and N = Cout; backward is two products of the same size (weight and
    column gradients). Bytes are the float64 operands each product reads and
    writes: 8 * (M*K + K*N + M*N). The col2im scatter is not counted.
    """
    k, _, cin, cout = w.value.shape
    m = int(np.prod(out_shape[:3]))
    kk = k * k * cin
    return {
        "stride": int(stride),
        "flops": 2 * m * kk * cout,
        "bytes": _FLOAT_BYTES * (m * kk + kk * cout + m * cout),
    }


def _graph_size(seeds) -> int:
    """Nodes reachable from the seed nodes: what backward's toposort visits.
    Seeds given as a one-shot iterator are already consumed and count 0."""
    seen: set[int] = set()
    stack = [node for node, _ in seeds]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _directory_bytes(args, kwargs, result) -> dict:
    return {"bytes": _tree_bytes(_first_arg(args, kwargs, "directory"))}


# What a span records besides its time, keyed by span name.
_COUNTERS = {
    "autodiff.backward": lambda args, kwargs, result: {
        "nodes": _graph_size(_first_arg(args, kwargs, "seeds"))
    },
    "codes.fwht": lambda args, kwargs, result: {
        "vectors": int(np.prod(np.shape(result)[:-1]))
    },
    "optim.adam_step": lambda args, kwargs, result: {
        "elements": int(sum(p.size for p in _first_arg(args, kwargs, "params").values()))
    },
    "metrics.confusion": lambda args, kwargs, result: {"pixels": int(result.counts.sum())},
    "data.write_dataset": _directory_bytes,
    "data.ingest_index_maps": _directory_bytes,
    "checkpoint.save_models": _directory_bytes,
    "checkpoint.load_models": _directory_bytes,
}


class Tracer:
    """Keeps spans in memory while installed (``with tracer:`` installs it);
    ``dump`` writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, after=None, attrs=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(record, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _enclosing_model(self) -> str:
        for index in reversed(self._stack):
            tag = _MODEL_TAGS.get(self.spans[index][0])
            if tag:
                return tag
        return "?"

    def _after_op(self, record, args, kwargs, result) -> None:
        if not isinstance(result, hadaseg.netkit.autodiff.Node) or result._backprop is None:
            return
        bwd_attrs = None
        if record[0] == "autodiff.conv2d":
            w = args[1] if len(args) > 1 else kwargs["w"]
            stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
            work = _conv_work(w, stride, result.value.shape)
            layer = getattr(w, "name", "?").rsplit(".", 1)[0]
            work["layer"] = f"{self._enclosing_model()}.{layer}"
            record[4] = work
            bwd_attrs = dict(work, flops=2 * work["flops"], bytes=2 * work["bytes"])
        result._backprop = self._wrap(record[0] + ".bwd", result._backprop, attrs=bwd_attrs)

    def _after_hook(self, name: str):
        if name in _COUNTERS:
            counter = _COUNTERS[name]

            def after(record, args, kwargs, result):
                record[4] = counter(args, kwargs, result)

            return after
        if name.startswith("autodiff."):
            return self._after_op
        return None

    def install(self) -> None:
        namespaces = [
            m for key, m in sys.modules.items() if key == "hadaseg" or key.startswith("hadaseg.")
        ]
        for layer, module in LAYERS.items():
            for owner, attr, fn in list(_public_callables(module)):
                qual = attr if owner is module else f"{owner.__name__}.{attr}"
                name = f"{layer}.{qual}"
                wrapper = self._wrap(name, fn, self._after_hook(name))
                if owner is not module:
                    self._patch(owner, attr, wrapper)
                    continue
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def window_metrics(spans, windows, units: int) -> dict[str, float]:
    """Per-layer metrics of the spans inside the (start, end) windows.

    ``units`` is the number of training steps or eval batches the windows
    hold; times are ms per unit and counts are per unit. A span's self time
    is its duration minus its children's. Whatever no span inside a window
    covers is returned as ``uncovered_ms`` (per unit) and ``uncovered_share``.
    """
    inside = [
        i for i, s in enumerate(spans) if any(a <= s[1] and s[2] <= b for a, b in windows)
    ]
    inside_set = set(inside)
    child_time: dict[int, float] = defaultdict(float)
    top_level = 0.0
    for i in inside:
        duration = spans[i][2] - spans[i][1]
        if spans[i][3] in inside_set:
            child_time[spans[i][3]] += duration
        else:
            top_level += duration

    totals: dict[str, float] = defaultdict(float)
    for i in inside:
        name, s0, s1, parent, attrs = spans[i]
        duration = s1 - s0
        layer = name.split(".", 1)[0]
        if layer != "train":
            totals[f"{layer}.self_ms"] += _ms(duration - child_time[i])
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name in ("autodiff.conv2d", "autodiff.conv2d.bwd"):
            phase = "bwd" if name.endswith(".bwd") else "fwd"
            totals[f"autodiff.conv2d_s{attrs['stride']}.{phase}_ms"] += _ms(duration)
            totals[f"autodiff.{attrs['layer']}.{phase}_ms"] += _ms(duration)
            totals["autodiff.conv2d.flops"] += attrs["flops"]
            totals["autodiff.conv2d.bytes"] += attrs["bytes"]
        elif name.removesuffix(".bwd") in ELEMENTWISE_OPS:
            phase = "bwd" if name.endswith(".bwd") else "fwd"
            totals[f"autodiff.elementwise.{phase}_ms"] += _ms(duration)
        elif name == "autodiff.backward":
            totals["autodiff.backward.self_ms"] += _ms(duration - child_time[i])
            totals["autodiff.backward.nodes"] += (attrs or {}).get("nodes", 0)
        elif name == "models.Generator.forward":
            totals["models.gen.forward_ms"] += _ms(duration)
        elif name == "models.Discriminator.forward":
            totals["models.disc.forward_ms"] += _ms(duration)
            totals["models.disc.forward_calls"] += 1
        elif name in ("layer.hadamard_forward", "layer.hadamard_backward"):
            totals[f"{name}_ms"] += _ms(duration)
        elif name == "codes.fwht":
            totals["codes.fwht.calls"] += 1
            totals["codes.fwht.vectors"] += attrs["vectors"]
            totals["codes.fwht.ms"] += _ms(duration)
        elif name.startswith(("loss.generator", "loss.discriminator")) and not (
            parent_name.startswith("loss.")
        ):
            totals[f"{name.split('_')[0]}.ms"] += _ms(duration)
        elif name == "optim.adam_step":
            totals["optim.adam.ms"] += _ms(duration)
            totals["optim.adam.elements"] += attrs["elements"]
        elif name in ("metrics.argmax_map", "metrics.confusion"):
            totals["metrics.argmax_confusion.ms"] += _ms(duration)
            if attrs:
                totals["metrics.pixels"] += attrs["pixels"]

    units = max(units, 1)
    out = {key: value / units for key, value in totals.items()}
    wall = sum(b - a for a, b in windows)
    out["uncovered_ms"] = _ms(wall - top_level) / units
    out["uncovered_share"] = (wall - top_level) / wall if wall > 0 else 0.0
    return out


def call_metrics(spans, names) -> dict[str, float]:
    """Mean ms and bytes per call of the named spans, over the whole run."""
    out = {}
    for name in names:
        calls = [s for s in spans if s[0] == name]
        count = max(len(calls), 1)
        out[f"{name}.ms"] = sum(_ms(s[2] - s[1]) for s in calls) / count
        out[f"{name}.bytes"] = sum((s[4] or {}).get("bytes", 0) for s in calls) / count
    return out
