import errno
import json
import time

import numpy as np
import pytest

from hadaseg import cli
from hadaseg import data as data_module
from hadaseg.cli import _load_generator, main
from hadaseg.data import ingest_index_maps, read_image, read_label_map
from hadaseg.metrics import ConfusionMatrix, argmax_map, confusion, metrics_report
from hadaseg.data import gen_synthetic, write_dataset
from hadaseg.netkit import train as train_module
from hadaseg.netkit import (
    DiscriminatorConfig,
    GeneratorConfig,
    build_discriminator,
    build_generator,
    load_models,
    save_models,
)

from helpers import kill_workers_at_step, reachable_nodes, write_bad_pixel

H8_CSV = (
    "1,1,1,1,1,1,1,1\n"
    "1,-1,1,-1,1,-1,1,-1\n"
    "1,1,-1,-1,1,1,-1,-1\n"
    "1,-1,-1,1,1,-1,-1,1\n"
    "1,1,1,1,-1,-1,-1,-1\n"
    "1,-1,1,-1,-1,1,-1,1\n"
    "1,1,-1,-1,-1,-1,1,1\n"
    "1,-1,-1,1,-1,1,1,-1\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodebookCommand:
    def test_k3_prints_reference_matrix(self, capsys):
        code, out, _ = run(capsys, "codebook", "--k", "3")
        assert code == 0
        assert out == H8_CSV

    def test_k0(self, capsys):
        code, out, _ = run(capsys, "codebook", "--k", "0")
        assert code == 0
        assert out == "1\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "h4.csv"
        code, _, _ = run(capsys, "codebook", "--k", "2", "--out", str(path))
        assert code == 0
        assert path.read_text().count("\n") == 4

    def test_capacity_error_exit_code(self, capsys):
        code, _, err = run(capsys, "codebook", "--k", "20")
        assert code == 2
        assert err.startswith("error:config:")
        assert err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "codebook", "--q", "3")
        assert code == 2
        assert err.startswith("error:config:")


class TestGenDataCommand:
    def test_deterministic_and_manifest(self, capsys, tmp_path):
        args = ("gen-data", "--seed", "12", "--count", "6", "--size", "16", "--classes", "4")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        code_a, out_a, _ = run(capsys, *args, "--out", str(dir_a))
        code_b, out_b, _ = run(capsys, *args, "--out", str(dir_b))
        assert code_a == code_b == 0
        assert len(list(dir_a.iterdir())) == 12
        for name in sorted(p.name for p in dir_a.iterdir()):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_histogram_matches_independent_recount(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "gen-data", "--seed", "3", "--count", "5", "--size", "16",
            "--classes", "4", "--out", str(tmp_path / "d"),
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("class_histogram:"))
        printed = {
            int(tok.split(":")[0]): int(tok.split(":")[1]) for tok in line.split()[1:]
        }
        recount = {c: 0 for c in range(4)}
        for path in (tmp_path / "d").glob("*.segl"):
            labels = read_label_map(path).labels
            for value, count in zip(*np.unique(labels, return_counts=True)):
                recount[int(value)] += int(count)
        assert printed == recount

    def test_generation_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "0", "--count", "1", "--size", "8",
            "--classes", "4", "--out", str(tmp_path / "d"),
        )
        assert code == 3
        assert err.startswith("error:data:")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_failed_write_leaves_no_partial_output(
        self, capsys, monkeypatch, tmp_path, existing
    ):
        # The disk fills on the third sample's label map: nothing of the run
        # reaches --out, an earlier --out keeps its contents, and no
        # sibling directory is left behind.
        write_label_map = data_module.write_label_map
        written = []

        def filling_write_label_map(path, lm):
            written.append(path)
            if len(written) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            write_label_map(path, lm)

        monkeypatch.setattr(data_module, "write_label_map", filling_write_label_map)
        out = tmp_path / "d"
        earlier = {"000000.img": b"earlier\n", "notes.txt": b"keep\n"}
        if existing:
            out.mkdir()
            for name, data in earlier.items():
                (out / name).write_bytes(data)
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "3", "--count", "5", "--size", "16",
            "--classes", "4", "--out", str(out),
        )
        assert code == 3
        assert err == "error:data: [Errno 28] No space left on device\n"
        assert len(written) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == (["d"] if existing else [])
        if existing:
            assert sorted(p.name for p in out.iterdir()) == sorted(earlier)
            for name, data in earlier.items():
                assert (out / name).read_bytes() == data

    def test_existing_out_gets_new_files_and_keeps_others(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "000000.img").write_bytes(b"earlier\n")
        (out / "notes.txt").write_bytes(b"keep\n")
        code, _, _ = run(
            capsys,
            "gen-data", "--seed", "3", "--count", "2", "--size", "16",
            "--classes", "4", "--out", str(out),
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert (out / "notes.txt").read_bytes() == b"keep\n"
        assert len(ingest_index_maps(out)) == 2

    def test_out_that_is_a_file_fails_before_writing(self, capsys, tmp_path):
        out = tmp_path / "d"
        out.write_bytes(b"keep\n")
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "3", "--count", "2", "--size", "16",
            "--classes", "4", "--out", str(out),
        )
        assert code == 3
        assert err.startswith("error:data: [Errno 17] File exists")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert out.read_bytes() == b"keep\n"


class TestFwhtBenchCommand:
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_reports_and_agrees(self, capsys, k):
        code, out, _ = run(capsys, "fwht-bench", "--k", str(k))
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert float(values["max_abs_diff"]) < 1e-9
        assert float(values["dense_seconds"]) > 0
        assert float(values["fwht_seconds"]) > 0
        assert int(values["n"]) == 2**k

    def test_out_of_memory_is_one_config_error(self, capsys, monkeypatch):
        # k=15 asks for an 8 GiB dense matrix; the stub fails as that
        # allocation would, without making it.
        def no_memory(k):
            raise MemoryError(f"Unable to allocate the 2^{k} dense matrix")

        monkeypatch.setattr(cli, "benchmark_fwht", no_memory)
        code, out, err = run(capsys, "fwht-bench", "--k", "15")
        assert code == 2 and out == ""
        assert err == "error:config: out of memory: Unable to allocate the 2^15 dense matrix\n"


class TestRenderCommand:
    def test_all_zeros_is_uniform_pgm(self, capsys, tmp_path):
        from hadaseg.data import write_label_map
        from hadaseg.metrics import LabelMap

        segl = tmp_path / "zeros.segl"
        write_label_map(segl, LabelMap(np.zeros((3, 4), dtype=np.int64)))
        out_pgm = tmp_path / "zeros.pgm"
        code, _, _ = run(capsys, "render", "--segl", str(segl), "--out", str(out_pgm))
        assert code == 0
        data = out_pgm.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[len(b"P5\n4 3\n255\n") :] == bytes(12)

    def test_classes_flag_scales_gray(self, capsys, tmp_path):
        from hadaseg.data import write_label_map
        from hadaseg.metrics import LabelMap

        segl = tmp_path / "m.segl"
        write_label_map(segl, LabelMap(np.array([[0, 1, 2, 3]])))
        out_pgm = tmp_path / "m.pgm"
        code, _, _ = run(
            capsys, "render", "--segl", str(segl), "--out", str(out_pgm), "--classes", "4"
        )
        assert code == 0
        body = out_pgm.read_bytes().split(b"255\n", 1)[1]
        assert list(body) == [0, 85, 170, 255]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Generated data plus one trained run per head, shared by the tests."""
    root = tmp_path_factory.mktemp("tiny")
    data_dir = root / "data"
    assert main([
        "gen-data", "--seed", "21", "--count", "8", "--size", "16",
        "--classes", "4", "--out", str(data_dir),
    ]) == 0
    config = root / "exp.cfg"
    config.write_text(
        "seed = 5\n"
        "classes = 4\n"
        "codebook.k = 2\n"
        f"data.dir = {data_dir}\n"
        "generator.depth = 2\n"
        "generator.base_channels = 4\n"
        "discriminator.layers = 2\n"
        "discriminator.base_channels = 4\n"
        "train.steps = 4\n"
        "train.batch_size = 2\n"
        "train.metrics_every = 2\n"
    )
    return root, config, data_dir


class TestTrainCommand:
    def test_param_count_line_identical_across_heads(self, capsys, tiny_run):
        root, config, _ = tiny_run
        lines = {}
        for head in ("one_hot", "hadamard"):
            code, out, _ = run(
                capsys, "train", "--config", str(config), "--head", head,
                "--out", str(root / head),
            )
            assert code == 0
            lines[head] = next(
                l for l in out.splitlines() if l.startswith("trainable-parameters:")
            )
        assert lines["one_hot"] == lines["hadamard"]

    def test_rerun_history_byte_identical(self, capsys, tiny_run):
        root, config, _ = tiny_run
        code, _, _ = run(
            capsys, "train", "--config", str(config), "--head", "hadamard",
            "--out", str(root / "rerun"),
        )
        assert code == 0
        assert (root / "rerun" / "history.csv").read_bytes() == (
            root / "hadamard" / "history.csv"
        ).read_bytes()
        assert (root / "rerun" / "metrics.csv").read_bytes() == (
            root / "hadamard" / "metrics.csv"
        ).read_bytes()

    def test_history_csv_schema(self, tiny_run):
        root, _, _ = tiny_run
        lines = (root / "hadamard" / "history.csv").read_text().splitlines()
        assert lines[0].startswith("# threads=")
        assert lines[1] == "step,L_D,S_adv,S_ce,MAE_y,MAE_yc,L_G_total"
        assert len(lines) == 2 + 4

    def test_missing_config_is_config_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "--config", str(tmp_path / "no.cfg"), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert err.startswith("error:config:")

    def test_negative_seed_rejected(self, capsys, tiny_run, tmp_path):
        _, config, _ = tiny_run
        bad = tmp_path / "c.cfg"
        bad.write_text(config.read_text().replace("seed = 5", "seed = -1"))
        code, _, err = run(
            capsys, "train", "--config", str(bad), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert err.startswith("error:config:") and err.count("\n") == 1
        assert "seed" in err
        assert not (tmp_path / "o").exists()

    def test_batch_larger_than_dataset_rejected(self, capsys, tiny_run, tmp_path):
        # A 20-digit batch once escaped as a traceback from islice.
        _, config, _ = tiny_run
        bad = tmp_path / "c.cfg"
        bad.write_text(
            config.read_text().replace("train.batch_size = 2", "train.batch_size = " + "9" * 20)
        )
        code, _, err = run(
            capsys, "train", "--config", str(bad), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert_one_config_error(code, err)
        assert "batch_size" in err
        assert not (tmp_path / "o").exists()

    # Each builds a network with a kernel numpy cannot address. The config
    # refuses it as it is parsed: no 2^depth is computed or printed and no
    # layer is allocated.
    @pytest.mark.parametrize(
        "edits",
        [
            {"generator.depth": "20000"},
            {"discriminator.layers": "20000"},
            {"generator.depth": "9" * 20},
            {"discriminator.layers": "9" * 20},
            {"generator.depth": "1", "discriminator.layers": "1",
             "generator.base_channels": "9" * 20},
            {"generator.depth": "1", "discriminator.layers": "1",
             "discriminator.base_channels": "9" * 20},
        ],
        ids=[
            "generator-depth", "discriminator-layers", "20-digit-generator-depth",
            "20-digit-discriminator-layers", "generator-base-channels",
            "discriminator-base-channels",
        ],
    )
    def test_network_numpy_cannot_address(self, capsys, tiny_run, tmp_path, edits):
        _, config, _ = tiny_run
        bad = tmp_path / "c.cfg"
        values = dict(line.split(" = ", 1) for line in config.read_text().splitlines())
        bad.write_text("".join(f"{key} = {value}\n" for key, value in {**values, **edits}.items()))
        start = time.monotonic()
        code, _, err = run(
            capsys, "train", "--config", str(bad), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert time.monotonic() - start < 20
        assert_one_config_error(code, err)
        assert "too large for numpy to address" in err
        assert not (tmp_path / "o").exists()

    def test_killed_chunk_worker_is_one_error_line(self, capsys, monkeypatch, tiny_run, tmp_path):
        # Two chunks per step, and the second chunk's worker gets SIGKILL,
        # the out-of-memory killer's signal, during step 2.
        _, config, _ = tiny_run
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 1)
        kill_workers_at_step(monkeypatch, 2)
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert err.startswith("error:config: out of memory: chunk worker 1 died (exit status -9)")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_failed_write_leaves_no_partial_output(
        self, capsys, monkeypatch, tiny_run, tmp_path, existing
    ):
        # The run fails after history.csv and metrics.csv are written:
        # nothing of it reaches --out, an earlier --out keeps its contents,
        # and no sibling directory is left behind.
        def failing_save_models(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        _, config, _ = tiny_run
        monkeypatch.setattr(cli, "save_models", failing_save_models)
        out = tmp_path / "o"
        earlier = {}
        if existing:
            (out / "checkpoint").mkdir(parents=True)
            earlier = {"history.csv": b"earlier\n", "checkpoint/tensors.bin": b"\x00\x01"}
            for name, data in earlier.items():
                (out / name).write_bytes(data)
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard", "--out", str(out)
        )
        assert code == 3
        assert err == "error:data: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["o"] if existing else [])
        if existing:
            files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
            assert files == set(earlier)
            for name, data in earlier.items():
                assert (out / name).read_bytes() == data

    def test_existing_out_gets_new_files_and_keeps_others(self, capsys, tiny_run, tmp_path):
        _, config, _ = tiny_run
        out = tmp_path / "o"
        (out / "checkpoint").mkdir(parents=True)
        (out / "history.csv").write_bytes(b"earlier\n")
        (out / "notes.txt").write_bytes(b"keep\n")
        (out / "checkpoint" / "extra.bin").write_bytes(b"keep\n")
        code, _, _ = run(
            capsys, "train", "--config", str(config), "--head", "hadamard", "--out", str(out)
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
        assert (out / "history.csv").read_text().splitlines()[1].startswith("step,L_D,")
        assert (out / "notes.txt").read_bytes() == b"keep\n"
        assert (out / "checkpoint" / "extra.bin").read_bytes() == b"keep\n"
        assert (out / "config.txt").read_bytes() == config.read_bytes()
        load_models(out / "checkpoint")

    @pytest.mark.parametrize(
        ("out_name", "message"),
        [("taken", "[Errno 17] File exists"), ("taken/sub/o", "[Errno 20] Not a directory")],
        ids=["out-is-a-file", "ancestor-is-a-file"],
    )
    def test_out_that_cannot_be_a_directory_fails_before_training(
        self, capsys, monkeypatch, tiny_run, tmp_path, out_name, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("train_cgan was called")

        _, config, _ = tiny_run
        monkeypatch.setattr(cli, "train_cgan", no_training)
        taken = tmp_path / "taken"
        taken.write_bytes(b"keep me\n")
        out = tmp_path / out_name
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard", "--out", str(out)
        )
        assert code == 3
        assert err == f"error:data: {message}: '{out}'\n"
        assert taken.read_bytes() == b"keep me\n"

    def test_config_with_non_text_bytes(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed = 1\xff\n")
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert_one_config_error(code, err)
        assert str(config) in err
        assert not (tmp_path / "o").exists()

    def test_config_without_data_dir_rejected(self, capsys, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("seed = 1\n")
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "data.dir" in err


class TestEvalPredictRender:
    def test_eval_report_matches_library_recomputation(self, capsys, tiny_run, tmp_path):
        root, _, data_dir = tiny_run
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "eval", "--model", str(root / "hadamard" / "checkpoint"),
            "--data", str(data_dir), "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())

        gen, _, meta = load_models(root / "hadamard" / "checkpoint")
        num_classes = int(meta["num_classes"])
        total = ConfusionMatrix(np.zeros((num_classes, num_classes), dtype=np.int64))
        for sample in ingest_index_maps(data_dir, num_classes=num_classes):
            y_hat, _ = gen.forward(sample.image[None])
            predicted = argmax_map(y_hat.value[0], num_classes)
            total = total + confusion(predicted, sample.labels, num_classes)
        expected = metrics_report(total)
        assert report["pixel_accuracy"] == expected["pixel_accuracy"]
        assert report["mean_iou"] == expected["mean_iou"]
        assert report["per_class"] == expected["per_class"]
        assert f"pixel_accuracy: {expected['pixel_accuracy']!r}" in out

    def test_eval_ground_truth_against_itself(self, capsys, tiny_run, tmp_path):
        # Feeding the checkpointed generator is not needed to check the
        # metric path: evaluating truth against truth must be perfect.
        _, _, data_dir = tiny_run
        samples = ingest_index_maps(data_dir, num_classes=4)
        total = ConfusionMatrix(np.zeros((4, 4), dtype=np.int64))
        for sample in samples:
            total = total + confusion(sample.labels, sample.labels, 4)
        report = metrics_report(total)
        assert report["pixel_accuracy"] == 1.0
        assert report["mean_iou"] == 1.0

    def test_predict_then_render_pipeline(self, capsys, tiny_run, tmp_path):
        root, _, data_dir = tiny_run
        segl_out = tmp_path / "pred.segl"
        code, _, _ = run(
            capsys, "predict", "--model", str(root / "hadamard" / "checkpoint"),
            "--image", str(data_dir / "000000.img"), "--out", str(segl_out),
        )
        assert code == 0
        predicted = read_label_map(segl_out)
        assert predicted.labels.shape == (16, 16)
        assert predicted.labels.max() < 4

        pgm_out = tmp_path / "pred.pgm"
        code, _, _ = run(
            capsys, "render", "--segl", str(segl_out), "--out", str(pgm_out),
            "--classes", "4",
        )
        assert code == 0
        assert pgm_out.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_eval_missing_model_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--model", str(tmp_path / "nope"), "--data", str(tmp_path),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert err.startswith("error:data:")


def assert_one_data_error(code, err):
    assert code == 3
    assert err.startswith("error:data:")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Traceback" not in err


class TestBadInputsExitCleanly:
    """Malformed inputs exit 3 with one ``error:`` line, never a traceback."""

    @pytest.fixture
    def workdir(self, tmp_path):
        """A saved tiny checkpoint in ckpt/ and a one-image dataset in data/."""
        gen = build_generator(GeneratorConfig(depth=2, base_channels=4, code_bits=2), seed=0)
        disc = build_discriminator(
            DiscriminatorConfig(layers=2, base_channels=4), input_channels=7, seed=0
        )
        save_models(tmp_path / "ckpt", gen, disc, num_classes=4)
        write_dataset(tmp_path / "data", gen_synthetic(seed=1, count=1, size=16, num_classes=4))
        return tmp_path

    @staticmethod
    def _run_model_command(capsys, root, command):
        if command == "eval":
            args = ("--data", str(root / "data"), "--report", str(root / "r.json"))
        else:
            args = ("--image", str(root / "data" / "000000.img"), "--out", str(root / "p.segl"))
        return run(capsys, command, "--model", str(root / "ckpt"), *args)

    @staticmethod
    def _edit_manifest(root, edit):
        manifest = root / "ckpt" / "manifest.txt"
        manifest.write_text(edit(manifest.read_text()))

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_intact_checkpoint_runs(self, capsys, workdir, command):
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert code == 0, err

    def test_eval_and_predict_generator_builds_no_tape(self, workdir):
        # eval and predict load the generator with every Parameter's flag
        # cleared, so a forward keeps no backprop closure (no im2col buffer).
        gen, num_classes = _load_generator(workdir / "ckpt")
        assert num_classes == 4
        assert not any(p.needs_grad for p in gen.parameters.values())
        image = read_image(workdir / "data" / "000000.img")
        nodes = reachable_nodes(gen.forward(image[None]))
        assert len(nodes) > 20
        assert all(node._backprop is None for node in nodes)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_truncated_tensor_blob(self, capsys, workdir, command):
        blob = workdir / "ckpt" / "tensors.bin"
        blob.write_bytes(blob.read_bytes()[:-3])
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert "tensors.bin" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_non_ascii_manifest(self, capsys, workdir, command):
        manifest = workdir / "ckpt" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes().replace(b"gen.depth", b"gen.d\xe9pth"))
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert str(manifest) in err

    @pytest.mark.parametrize("fields", [("-4", "4", "1", "4"), ("0", "4", "2", "-2", "-2")])
    def test_negative_tensor_extent(self, capsys, workdir, fields):
        self._edit_manifest(
            workdir,
            lambda text: "\n".join(
                " ".join(("tensor", "gen.dec0.b") + fields)
                if line.startswith("tensor gen.dec0.b ") else line
                for line in text.splitlines()
            ),
        )
        code, _, err = self._run_model_command(capsys, workdir, "eval")
        assert_one_data_error(code, err)
        assert "negative" in err

    @pytest.mark.parametrize(
        "name, named",
        [("meta num_classes", "meta key 'num_classes'"), ("tensor gen.out.b", "tensor 'gen.out.b'")],
    )
    def test_duplicate_manifest_line(self, capsys, workdir, name, named):
        # A second line for a key or a tensor, here with another value or
        # offset, is a bad file: neither line is taken over the other.
        def repeat(text):
            (line,) = [line for line in text.splitlines() if line.startswith(name + " ")]
            fields = line.split()
            fields[2] = "3" if fields[0] == "meta" else "0"  # the value or the offset
            return text + " ".join(fields) + "\n"

        self._edit_manifest(workdir, repeat)
        code, _, err = self._run_model_command(capsys, workdir, "eval")
        assert_one_data_error(code, err)
        assert f"duplicate {named}" in err

    @pytest.mark.parametrize("key", ["gen.depth", "num_classes"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_non_integer_meta_value(self, capsys, workdir, command, key):
        self._edit_manifest(
            workdir,
            lambda text: "\n".join(
                f"meta {key} two" if line.startswith(f"meta {key} ") else line
                for line in text.splitlines()
            ),
        )
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert repr(key) in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_missing_num_classes(self, capsys, workdir, command):
        self._edit_manifest(
            workdir,
            lambda text: "\n".join(
                line for line in text.splitlines() if not line.startswith("meta num_classes ")
            ),
        )
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert "'num_classes'" in err

    # The fixture's generator has code_bits=2, so it decodes 2..4 classes.
    @pytest.mark.parametrize("value", ["-1", "1", "5"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_num_classes_outside_code_capacity(self, capsys, workdir, command, value):
        self._edit_manifest(
            workdir,
            lambda text: "\n".join(
                f"meta num_classes {value}" if line.startswith("meta num_classes ") else line
                for line in text.splitlines()
            ),
        )
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert "'num_classes'" in err

    # Each value builds no network, so the checkpoint, not the config, is at
    # fault. The last four build one whose largest kernel numpy cannot
    # address, refused before any layer is allocated.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("gen.depth", "0"),
            ("head", "foo"),
            ("code_bits", "17"),
            ("disc.layers", "0"),
            ("disc.input_channels", "0"),
            ("gen.base_channels", "9" * 20),
            ("disc.base_channels", "9" * 20),
            ("disc.input_channels", "9" * 20),
            ("gen.depth", "40"),
        ],
    )
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_meta_value_that_builds_no_network(self, capsys, workdir, command, key, value):
        self._edit_manifest(
            workdir,
            lambda text: "\n".join(
                f"meta {key} {value}" if line.startswith(f"meta {key} ") else line
                for line in text.splitlines()
            ),
        )
        code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert str(workdir / "ckpt") in err

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_pixel_outside_unit_range(self, capsys, workdir, command):
        # One huge pixel once overflowed Adam's second moment while train
        # still exited 0; every command now rejects the file as it reads it.
        image_path = workdir / "data" / "000000.img"
        write_bad_pixel(image_path, (3, 4, 1), 1e200)
        if command == "train":
            config = workdir / "exp.cfg"
            config.write_text(
                f"classes = 4\ncodebook.k = 2\ndata.dir = {workdir / 'data'}\n"
                "generator.depth = 2\ngenerator.base_channels = 4\n"
                "discriminator.layers = 2\ndiscriminator.base_channels = 4\ntrain.steps = 1\n"
                "train.batch_size = 1\n"
            )
            code, _, err = run(
                capsys, "train", "--config", str(config), "--head", "hadamard",
                "--out", str(workdir / "run"),
            )
        else:
            code, _, err = self._run_model_command(capsys, workdir, command)
        assert_one_data_error(code, err)
        assert str(image_path) in err

    def test_gen_data_negative_seed(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "-1", "--count", "2", "--size", "16",
            "--classes", "4", "--out", str(out),
        )
        assert_one_data_error(code, err)
        assert "seed" in err
        assert not out.exists()

    # A count above sys.maxsize and a size whose float64 image numpy cannot
    # address once escaped as tracebacks from SeedSequence and np.zeros.
    @pytest.mark.parametrize(
        "count, size",
        [("-1", "16"), ("9" * 20, "16"), ("1", "4294967295"), ("1", "9" * 20)],
        ids=["negative-count", "20-digit-count", "unaddressable-size", "20-digit-size"],
    )
    def test_gen_data_negative_count(self, capsys, tmp_path, count, size):
        out = tmp_path / "d"
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "0", "--count", count, "--size", size,
            "--classes", "4", "--out", str(out),
        )
        assert_one_data_error(code, err)
        assert not out.exists()

    def test_gen_data_more_classes_than_label_bytes_hold(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, err = run(
            capsys,
            "gen-data", "--seed", "0", "--count", "3", "--size", "16",
            "--classes", "300", "--out", str(out),
        )
        assert_one_data_error(code, err)
        assert not out.exists()


def assert_one_config_error(code, err):
    assert code == 2
    assert err.startswith("error:config:")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Traceback" not in err


class TestImageSizeErrors:
    """Images the checkpoint cannot take exit 2 with one ``error:`` line that
    names the offending file."""

    @pytest.fixture
    def workdir(self, tmp_path):
        """A depth-2 checkpoint in ckpt/ and one-image datasets of 16x16,
        32x32 and 18x18 in d16/, d32/ and d18/."""
        gen = build_generator(GeneratorConfig(depth=2, base_channels=4, code_bits=2), seed=0)
        disc = build_discriminator(
            DiscriminatorConfig(layers=2, base_channels=4), input_channels=7, seed=0
        )
        save_models(tmp_path / "ckpt", gen, disc, num_classes=4)
        for size in (16, 32, 18):
            samples = gen_synthetic(seed=size, count=2, size=size, num_classes=4)
            write_dataset(tmp_path / f"d{size}", samples)
        return tmp_path

    @staticmethod
    def _mixed(workdir):
        """A dataset of one 16x16 and one 32x32 sample."""
        mixed = workdir / "mixed"
        mixed.mkdir()
        for source, name in (("d16", "000000"), ("d32", "000001")):
            for suffix in (".img", ".segl"):
                path = workdir / source / f"{name}{suffix}"
                (mixed / path.name).write_bytes(path.read_bytes())
        return mixed

    def test_eval_mixed_sizes(self, capsys, workdir):
        mixed = self._mixed(workdir)
        code, _, err = run(
            capsys, "eval", "--model", str(workdir / "ckpt"), "--data", str(mixed),
            "--report", str(workdir / "r.json"),
        )
        assert_one_config_error(code, err)
        assert str(mixed / "000001.img") in err
        assert not (workdir / "r.json").exists()

    def test_train_mixed_sizes(self, capsys, workdir):
        mixed = self._mixed(workdir)
        config = workdir / "exp.cfg"
        config.write_text(
            f"classes = 4\ncodebook.k = 2\ndata.dir = {mixed}\n"
            "generator.depth = 2\ngenerator.base_channels = 4\n"
            "discriminator.layers = 2\ndiscriminator.base_channels = 4\ntrain.steps = 1\n"
        )
        code, _, err = run(
            capsys, "train", "--config", str(config), "--head", "hadamard",
            "--out", str(workdir / "run"),
        )
        assert_one_config_error(code, err)
        assert str(mixed / "000001.img") in err
        assert not (workdir / "run").exists()

    def test_eval_size_checkpoint_cannot_take(self, capsys, workdir):
        code, _, err = run(
            capsys, "eval", "--model", str(workdir / "ckpt"), "--data", str(workdir / "d18"),
            "--report", str(workdir / "r.json"),
        )
        assert_one_config_error(code, err)
        assert str(workdir / "d18" / "000000.img") in err and "18x18" in err

    def test_predict_size_checkpoint_cannot_take(self, capsys, workdir):
        image = workdir / "d18" / "000001.img"
        code, _, err = run(
            capsys, "predict", "--model", str(workdir / "ckpt"), "--image", str(image),
            "--out", str(workdir / "p.segl"),
        )
        assert_one_config_error(code, err)
        assert str(image) in err and "18x18" in err
        assert not (workdir / "p.segl").exists()
