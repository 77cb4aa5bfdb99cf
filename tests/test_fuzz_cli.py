"""Corrupted input bytes never escape the CLI as a traceback.

Each example copies a tiny valid workspace (a config, a two-sample dataset
and a checkpoint), overwrites bytes of one of its files with arbitrary
values (non-ASCII ones included) and may truncate it, then runs every
command that reads that file through ``cli.main`` in-process. Each run must
return 0, or 2, 3 or 4 with exactly one ``error:`` line on stderr.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaseg.cli import main
from hadaseg.data import gen_synthetic, write_dataset
from hadaseg.netkit import (
    DiscriminatorConfig,
    GeneratorConfig,
    build_discriminator,
    build_generator,
    save_models,
)

# One base channel keeps every network tiny even when a corrupted digit
# raises a depth or a layer count to 9.
_CONFIG = (
    "seed = 1\n"
    "classes = 2\n"
    "codebook.k = 1\n"
    "data.dir = {data}\n"
    "generator.depth = 1\n"
    "generator.base_channels = 1\n"
    "discriminator.layers = 1\n"
    "discriminator.base_channels = 1\n"
    "train.steps = 1\n"
    "train.batch_size = 2\n"
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The uncorrupted dataset in data/ and checkpoint in ckpt/."""
    root = tmp_path_factory.mktemp("pristine")
    write_dataset(root / "data", gen_synthetic(seed=3, count=2, size=16, num_classes=2))
    gen = build_generator(GeneratorConfig(depth=1, base_channels=1, code_bits=1), seed=0)
    disc = build_discriminator(
        DiscriminatorConfig(layers=1, base_channels=1), input_channels=5, seed=0
    )
    save_models(root / "ckpt", gen, disc, num_classes=2)
    return root


def _commands(root: Path, target: str) -> list[list]:
    """Every command that reads ``target`` within the workspace ``root``."""
    data, ckpt = root / "data", root / "ckpt"
    train = ["train", "--config", root / "exp.cfg", "--head", "hadamard", "--out", root / "run"]
    evaluate = ["eval", "--model", ckpt, "--data", data, "--report", root / "r.json"]
    predict = ["predict", "--model", ckpt, "--image", data / "000000.img", "--out", root / "p.segl"]
    render = ["render", "--segl", data / "000000.segl", "--out", root / "p.pgm"]
    return {
        "exp.cfg": [train],
        "ckpt/manifest.txt": [evaluate, predict],
        "ckpt/tensors.bin": [evaluate, predict],
        "data/000000.segl": [train, evaluate, render],
        "data/000000.img": [train, evaluate, predict],
    }[target]


def _run(argv: list) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    return code, stderr.getvalue()


_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4)


@pytest.mark.parametrize(
    "target",
    ["exp.cfg", "ckpt/manifest.txt", "ckpt/tensors.bin", "data/000000.segl", "data/000000.img"],
)
@settings(max_examples=25, deadline=None)
@given(edits=_EDITS, keep=st.one_of(st.none(), st.integers(0, 1 << 16)))
def test_corrupted_bytes_exit_cleanly(pristine, target, edits, keep):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine / "data", root / "data")
        shutil.copytree(pristine / "ckpt", root / "ckpt")
        (root / "exp.cfg").write_text(_CONFIG.format(data=root / "data"))
        path = root / target
        data = bytearray(path.read_bytes())
        for position, value in edits:
            data[position % len(data)] = value
        if keep is not None:
            data = data[: keep % (len(data) + 1)]
        path.write_bytes(bytes(data))
        for argv in _commands(root, target):
            code, err = _run(argv)
            assert code in (0, 2, 3, 4), (argv, code, err)
            if code:
                assert err.startswith("error:"), (argv, err)
                assert err.count("error:") == 1 and err.count("\n") == 1, (argv, err)
