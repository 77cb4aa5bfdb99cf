import mmap
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hadaseg.data import gen_synthetic
from hadaseg.errors import ClassIndexError, ConfigError, ShapeError, TrainingDivergedError
from hadaseg.loss import generator_loss_from_sums
from hadaseg.netkit import (
    DiscriminatorConfig,
    GeneratorConfig,
    TrainSettings,
    load_models,
    save_models,
    train_cgan,
)
from hadaseg.netkit import autodiff as ad
from hadaseg.netkit.models import build_generator
from hadaseg.netkit import train as train_module
from hadaseg.netkit.optim import adam_step
from hadaseg.netkit.train import LOSS_CSV_COLUMNS

from helpers import kill_workers_at_step


def _tiny_dataset():
    return gen_synthetic(seed=5, count=6, size=16, num_classes=4)


def _tiny_configs(head="hadamard"):
    gen_cfg = GeneratorConfig(depth=2, base_channels=4, code_bits=2, head=head)
    disc_cfg = DiscriminatorConfig(layers=2, base_channels=4)
    return gen_cfg, disc_cfg


class TestTrainLoop:
    def test_zero_steps_returns_initialized_models(self):
        gen_cfg, disc_cfg = _tiny_configs()
        gen, disc, history = train_cgan(gen_cfg, disc_cfg, _tiny_dataset(), 0, seed=1)
        assert history.loss_rows == [] and history.metric_rows == []
        assert gen.parameter_count() > 0 and disc.parameter_count() > 0
        assert history.header["steps"] == "0"

    def test_history_rows_and_finiteness(self):
        gen_cfg, disc_cfg = _tiny_configs()
        _, _, history = train_cgan(
            gen_cfg,
            disc_cfg,
            _tiny_dataset(),
            6,
            seed=2,
            settings=TrainSettings(batch_size=2, metrics_every=3),
        )
        assert len(history.loss_rows) == 6
        assert [row[0] for row in history.metric_rows] == [3, 6]
        for row in history.loss_rows:
            assert len(row) == len(LOSS_CSV_COLUMNS)
            assert all(np.isfinite(v) for v in row[1:])
        for _, accuracy in history.metric_rows:
            assert 0.0 <= accuracy <= 1.0

    @pytest.mark.parametrize("head", ["hadamard", "one_hot"])
    def test_determinism_bit_identical(self, head):
        gen_cfg, disc_cfg = _tiny_configs(head)
        runs = []
        for _ in range(2):
            gen, _, history = train_cgan(
                gen_cfg,
                disc_cfg,
                _tiny_dataset(),
                4,
                seed=9,
                settings=TrainSettings(batch_size=2),
            )
            runs.append((history.loss_csv(), gen))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1].parameters:
            assert np.array_equal(
                runs[0][1].parameters[name].value, runs[1][1].parameters[name].value
            )

    def test_log_every_thins_rows_but_keeps_last(self):
        gen_cfg, disc_cfg = _tiny_configs()
        _, _, history = train_cgan(
            gen_cfg,
            disc_cfg,
            _tiny_dataset(),
            5,
            seed=3,
            settings=TrainSettings(batch_size=2, log_every=2),
        )
        assert [row[0] for row in history.loss_rows] == [2, 4, 5]

    def test_one_hot_head_trains_and_logs_raw_code_mae(self):
        gen_cfg, disc_cfg = _tiny_configs("one_hot")
        _, _, history = train_cgan(
            gen_cfg, disc_cfg, _tiny_dataset(), 3, seed=4, settings=TrainSettings(batch_size=2)
        )
        # MAE_yc is reported raw even though its weight is zero for this head.
        assert all(row[5] > 0 for row in history.loss_rows)

    def test_divergence_aborts_with_diagnostic(self):
        # An absurd learning rate overflows the forward pass within a step
        # or two; the loop must abort rather than log non-finite rows.
        gen_cfg, disc_cfg = _tiny_configs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError) as excinfo:
                train_cgan(
                    gen_cfg,
                    disc_cfg,
                    _tiny_dataset(),
                    10,
                    seed=5,
                    settings=TrainSettings(batch_size=2, lr=1e150),
                )
        assert "step" in str(excinfo.value)

    def test_non_finite_update_never_reaches_adam(self, monkeypatch):
        # A NaN pixel poisons the losses and gradients of the first step;
        # the loop must abort before Adam applies them.
        calls = []

        def recording_adam_step(params, grads, state, **kwargs):
            calls.append(all(np.isfinite(g).all() for g in grads.values()))
            return adam_step(params, grads, state, **kwargs)

        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        dataset = _tiny_dataset()
        for sample in dataset:
            sample.image[3, 5, 1] = np.nan
        gen_cfg, disc_cfg = _tiny_configs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError) as excinfo:
                train_cgan(
                    gen_cfg, disc_cfg, dataset, 3, seed=5, settings=TrainSettings(batch_size=2)
                )
        assert "non-finite loss at step 1: L_D=nan" in str(excinfo.value)
        assert all(calls)

    def test_generator_update_computes_no_discriminator_gradient(self, monkeypatch):
        # The generator backward runs with the discriminator's flags cleared:
        # the gradients of the generator phase hold no discriminator
        # Parameter, the flags are set again for the next D update, and
        # training writes no Parameter's .grad. One chunk, so that every
        # gradients call runs in this process.
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 2)
        returned = []
        gradients = ad.gradients

        def recording_gradients(seeds):
            returned.append(gradients(seeds))
            return returned[-1]

        monkeypatch.setattr(ad, "gradients", recording_gradients)
        gen_cfg, disc_cfg = _tiny_configs()
        gen, disc, history = train_cgan(
            gen_cfg, disc_cfg, _tiny_dataset(), 2, seed=5, settings=TrainSettings(batch_size=2)
        )
        gen_params = set(gen.parameters.values())
        disc_params = set(disc.parameters.values())
        generator_phase = [grads for grads in returned if gen_params & set(grads)]
        assert len(generator_phase) == 2 * int(history.header["threads"])
        assert len(returned) == 2 * len(generator_phase)
        for grads in generator_phase:
            assert not disc_params & set(grads)
        for param in disc_params:
            assert param.needs_grad, param.name
        for param in gen_params | disc_params:
            assert param.grad is None, param.name

    def test_non_finite_generator_loss_stops_before_generator_update(self, monkeypatch):
        # Each network's Parameters stay views of the shared table when the
        # call raises, so their values show which network Adam updated.
        calls, built = [], {}

        def recording_adam_step(params, grads, state, **kwargs):
            calls.append(sorted(params))
            return adam_step(params, grads, state, **kwargs)

        def nan_generator_loss(*args):
            _, terms = generator_loss_from_sums(*args)
            return float("nan"), terms

        def recording(build, key):
            def wrapped(*args, **kwargs):
                network = build(*args, **kwargs)
                built[key] = (network, {n: p.value.copy() for n, p in network.parameters.items()})
                return network

            return wrapped

        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        monkeypatch.setattr(train_module, "generator_loss_from_sums", nan_generator_loss)
        for key in ("generator", "discriminator"):
            build = getattr(train_module, f"build_{key}")
            monkeypatch.setattr(train_module, f"build_{key}", recording(build, key))
        gen_cfg, disc_cfg = _tiny_configs()
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_cgan(
                gen_cfg, disc_cfg, _tiny_dataset(), 3, seed=5, settings=TrainSettings(batch_size=2)
            )
        assert "non-finite loss at step 1: L_D=" in str(excinfo.value)
        assert "L_G=nan" in str(excinfo.value)
        # Only the discriminator was updated: every generator Parameter
        # keeps its initial bytes, and every discriminator weight moved.
        assert calls == [["discriminator"]]
        gen, gen_initial = built["generator"]
        for name, p in gen.parameters.items():
            assert p.value.tobytes() == gen_initial[name].tobytes(), name
        disc, disc_initial = built["discriminator"]
        for name, p in disc.parameters.items():
            assert not np.array_equal(p.value, disc_initial[name]), name

    def test_empty_dataset_rejected(self):
        gen_cfg, disc_cfg = _tiny_configs()
        with pytest.raises(ConfigError):
            train_cgan(gen_cfg, disc_cfg, [], 1, seed=0)

    def test_mixed_resolutions_rejected(self):
        gen_cfg, disc_cfg = _tiny_configs()
        dataset = _tiny_dataset() + gen_synthetic(seed=6, count=1, size=32, num_classes=4)
        with pytest.raises(ConfigError):
            train_cgan(gen_cfg, disc_cfg, dataset, 1, seed=0)

    def test_indivisible_resolution_rejected(self):
        gen_cfg, disc_cfg = _tiny_configs()
        dataset = gen_synthetic(seed=6, count=2, size=18, num_classes=4)
        with pytest.raises(ShapeError):
            train_cgan(gen_cfg, disc_cfg, dataset, 0, seed=0)

    def test_num_classes_capacity_check(self):
        gen_cfg, disc_cfg = _tiny_configs()
        for num_classes in (1, 5):
            with pytest.raises(ConfigError, match="capacity"):
                train_cgan(gen_cfg, disc_cfg, _tiny_dataset(), 1, seed=0, num_classes=num_classes)

    def test_label_outside_num_classes_rejected_before_any_step(self, monkeypatch):
        # Checked once, before any worker is forked: no step runs.
        def no_workers(*args):
            raise AssertionError("a step started")

        monkeypatch.setattr(train_module, "_ChunkWorkers", no_workers)
        gen_cfg, disc_cfg = _tiny_configs()
        with pytest.raises(ClassIndexError, match="label 3 >= num_classes 2"):
            train_cgan(gen_cfg, disc_cfg, _tiny_dataset(), 1, seed=0, num_classes=2)

    def test_batch_larger_than_dataset_rejected_before_any_step(self, monkeypatch):
        def no_workers(*args):
            raise AssertionError("a step started")

        monkeypatch.setattr(train_module, "_ChunkWorkers", no_workers)
        gen_cfg, disc_cfg = _tiny_configs()
        with pytest.raises(ConfigError, match="batch_size 7 exceeds the 6 samples"):
            train_cgan(
                gen_cfg, disc_cfg, _tiny_dataset(), 1, seed=0, settings=TrainSettings(batch_size=7)
            )

    def test_header_documents_threads_and_parameters(self, monkeypatch):
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 2)
        gen_cfg, disc_cfg = _tiny_configs()
        gen, _, history = train_cgan(gen_cfg, disc_cfg, _tiny_dataset(), 0, seed=1)
        assert history.header["threads"] == "2"
        assert history.header["blas-threads"] == "2"
        assert history.header["trainable-parameters"] == str(gen.parameter_count())
        first_line = history.loss_csv().splitlines()[0]
        assert first_line.startswith("# threads=")


def _train_with_threads(monkeypatch, usable_cpus, blas_threads, head="hadamard"):
    monkeypatch.setattr(train_module, "_usable_cpus", lambda: usable_cpus)
    monkeypatch.setattr(train_module, "_blas_threads", lambda: blas_threads)
    gen_cfg, disc_cfg = _tiny_configs(head)
    gen, _, history = train_cgan(
        gen_cfg,
        disc_cfg,
        _tiny_dataset(),
        4,
        seed=9,
        settings=TrainSettings(batch_size=3, metrics_every=2),
    )
    return gen, history


class TestDataParallelSteps:
    @pytest.mark.parametrize(
        ("usable_cpus", "blas_threads", "batch_size", "expected"),
        [
            (2, 1, 4, 2),
            (8, 2, 4, 4),
            (8, 1, 3, 3),
            (2, 2, 4, 1),
            (2, 4, 4, 1),
            (1, 1, 4, 1),
            (4, None, 4, 1),
            (4, 0, 4, 1),
        ],
    )
    def test_thread_count(self, monkeypatch, usable_cpus, blas_threads, batch_size, expected):
        # One chunk per CPU that BLAS leaves idle, at most one per sample;
        # one chunk when BLAS fills the CPUs or its thread count is unknown.
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: usable_cpus)
        assert train_module.thread_count(batch_size, blas_threads) == expected

    @pytest.mark.parametrize(
        ("head", "chunks"),
        [("hadamard", 2), ("one_hot", 2), ("hadamard", 3)],
        ids=["hadamard", "one_hot", "hadamard-3-chunks"],
    )
    def test_chunked_steps_repeat_and_match_one_chunk(self, monkeypatch, head, chunks):
        # Batch 3 in 2 chunks (2 + 1 samples) or 3 (one sample each): the
        # run repeats byte for byte, and its losses equal the one-chunk
        # run's up to the order in which the chunks' weight gradients are
        # summed.
        runs = [_train_with_threads(monkeypatch, chunks, 1, head) for _ in range(2)]
        assert all(history.header["threads"] == str(chunks) for _, history in runs)
        assert runs[0][1].loss_csv() == runs[1][1].loss_csv()
        assert runs[0][1].metrics_csv() == runs[1][1].metrics_csv()
        for name, p in runs[0][0].parameters.items():
            assert np.array_equal(p.value, runs[1][0].parameters[name].value), name
        _, serial = _train_with_threads(monkeypatch, 2, 2, head)
        assert serial.header["threads"] == "1"
        assert serial.metric_rows == runs[0][1].metric_rows
        np.testing.assert_allclose(
            np.array(runs[0][1].loss_rows), np.array(serial.loss_rows), rtol=1e-12, atol=0
        )


class TestFirstLayerClassPart:
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_class_part_widths(self, monkeypatch, tmp_path, chunks):
        # disc.d0's class part in each chunk's step, at k = 3 and K = 4:
        # the real pair's K one-hot channels, then the predicted map's 2^k
        # channels in the discriminator update and again in the generator
        # update, whose backward alone gives the predicted map (y_hat) a
        # gradient. Every process appends its d0 calls to one file.
        log = tmp_path / "d0"
        conv2d = ad.conv2d

        def write(line):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {line}\n")

        def recording_conv2d(x, w, b, stride=1):
            out = conv2d(x, w, b, stride)
            if getattr(w, "name", None) != "d0.w":
                return out
            write(f"forward {ad.as_node(x[1]).value.shape[3]}")
            backprop = out._backprop

            def recording_backprop(g):
                grads = backprop(g)
                if grads[1] is not None and np.any(grads[1]):
                    write(f"gradient {grads[1].shape[3]}")
                return grads

            out._backprop = recording_backprop
            return out

        monkeypatch.setattr(ad, "conv2d", recording_conv2d)
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: chunks)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 1)
        gen_cfg = GeneratorConfig(depth=2, base_channels=4, code_bits=3)
        _, disc_cfg = _tiny_configs()
        _, _, history = train_cgan(
            gen_cfg, disc_cfg, _tiny_dataset(), 2, seed=5, settings=TrainSettings(batch_size=2)
        )
        assert history.header["threads"] == str(chunks)
        assert history.header["num_classes"] == "4"
        calls: dict[str, list[str]] = {}
        for line in log.read_text(encoding="ascii").splitlines():
            pid, call = line.split(" ", 1)
            calls.setdefault(pid, []).append(call)
        assert len(calls) == chunks
        step = ["forward 4", "forward 8", "forward 8", "gradient 8"]
        for per_process in calls.values():
            assert per_process == step * 2


class _RecordingDataset(list):
    """A dataset that records the index of every sample fetched."""

    def __init__(self, samples):
        super().__init__(samples)
        self.fetched = []

    def __getitem__(self, index):
        self.fetched.append(int(index))
        return super().__getitem__(index)


class TestBatchOrder:
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_epoch_shuffled_index_stream(self, monkeypatch, chunks):
        # 6 samples in batches of 4 for 5 steps, so batches cross epochs.
        # The first fetch is common_resolution's; each full block of 6
        # after it is one epoch, a permutation of the samples. The order
        # is pinned to the one this seed has always drawn.
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: chunks)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 1)
        dataset = _RecordingDataset(_tiny_dataset())
        gen_cfg, disc_cfg = _tiny_configs()
        _, _, history = train_cgan(
            gen_cfg, disc_cfg, dataset, 5, seed=3, settings=TrainSettings(batch_size=4)
        )
        assert history.header["threads"] == str(chunks)
        epochs = dataset.fetched[1:]
        for start in range(0, len(epochs) - 5, 6):
            assert sorted(epochs[start : start + 6]) == list(range(6))
        assert dataset.fetched == [
            0,
            5, 2, 1, 4, 0, 3,
            2, 0, 4, 3, 1, 5,
            2, 0, 5, 4, 1, 3,
            4, 5,
        ]


class TestUpdateChecks:
    def test_non_finite_gradients_named_from_the_network_slice(self):
        # One generator's gradients laid out in a shared table's chunk row,
        # as training sums them: NaN in two Parameters that are not
        # neighbours is reported by exactly their names, in network order.
        gen_cfg, _ = _tiny_configs()
        gen = build_generator(replace(gen_cfg, depth=3), seed=0)
        table, grad_rows = train_module._share_parameters(list(gen.parameters.values()), 1)
        parts = {name: grad_rows[0][p] for name, p in gen.parameters.items()}
        grad = train_module._sum_chunk_grads(table, slice(0, table.shape[1]))
        grad[...] = 1.0
        parts["dec2.w"][0, 1, 0, 0] = np.nan
        parts["enc0.b"][-1] = np.inf
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_module._check_finite(3, 0.5, grad, parts, "L_G=0.5")
        assert str(excinfo.value) == (
            "non-finite gradient at step 3: L_G=0.5; non-finite gradients: enc0.b, dec2.w"
        )
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_module._check_finite(4, float("nan"), grad, parts, "L_G=nan")
        assert str(excinfo.value) == (
            "non-finite loss at step 4: L_G=nan; non-finite gradients: enc0.b, dec2.w"
        )
        grad[...] = 1.0
        train_module._check_finite(5, 0.5, grad, parts, "L_G=0.5")
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_module._check_finite(6, float("inf"), grad, parts, "L_G=inf")
        assert str(excinfo.value) == "non-finite loss at step 6: L_G=inf"


class TestChunkWorkers:
    def test_results_in_chunk_order_and_first_chunk_on_caller(self):
        def work(i, message):
            return i * message, os.getpid()

        with train_module._ChunkWorkers(work, 4) as workers:
            results = workers.map([5, 1, 2, 3])
        assert [value for value, _ in results] == [0, 1, 4, 9]
        assert results[0][1] == os.getpid()
        worker_pids = {pid for _, pid in results[1:]}
        assert len(worker_pids) == 3 and os.getpid() not in worker_pids

    def test_every_chunk_finishes_before_an_error_is_raised(self):
        # Workers write to shared memory after a delay, so a parent that
        # raised before they finished would see zeros. Chunk 0's exception
        # wins, then the workers' in order, pickled back.
        done = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)

        def work(i, message):
            if i == 0:
                if message == "raise":
                    raise ValueError("first")
                return 0
            time.sleep(0.05)
            done[i - 1] += 1
            if message == 2:
                raise TrainingDivergedError(f"chunk {message}")
            return message

        with train_module._ChunkWorkers(work, 3) as workers:
            with pytest.raises(ValueError, match="first"):
                workers.map(["raise", 1, 2])
            assert list(done) == [1, 1, 0]
            with pytest.raises(TrainingDivergedError, match="chunk 2"):
                workers.map([0, 1, 2])
            assert list(done) == [2, 2, 0]
            assert workers.map([0, 1, 3]) == [0, 1, 3]


def _record_started(monkeypatch) -> tuple[list, list]:
    """Patch ``Process.start`` and ``Thread.start`` to record every process
    and thread started from now on."""
    processes, threads = [], []
    start_process = multiprocessing.process.BaseProcess.start
    start_thread = threading.Thread.start

    def recording_start_process(process):
        processes.append(process)
        start_process(process)

    def recording_start_thread(thread):
        threads.append(thread)
        start_thread(thread)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start_process)
    monkeypatch.setattr(threading.Thread, "start", recording_start_thread)
    return processes, threads


class TestWorkerProcesses:
    def test_no_process_outlives_a_returning_call(self, monkeypatch):
        processes, threads = _record_started(monkeypatch)
        _, history = _train_with_threads(monkeypatch, 2, 1)
        assert history.header["threads"] == "2"
        assert len(processes) == 1, "a two-chunk step runs its second chunk in a worker"
        assert processes[0].exitcode == 0
        assert multiprocessing.active_children() == []
        assert threads == []

    def test_no_process_outlives_a_diverged_call(self, monkeypatch):
        processes, threads = _record_started(monkeypatch)
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(train_module, "_blas_threads", lambda: 1)
        dataset = _tiny_dataset()
        for sample in dataset:
            sample.image[3, 5, 1] = np.nan
        gen_cfg, disc_cfg = _tiny_configs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train_cgan(
                    gen_cfg, disc_cfg, dataset, 3, seed=5, settings=TrainSettings(batch_size=2)
                )
        assert len(processes) == 1, "a two-chunk step runs its second chunk in a worker"
        assert processes[0].exitcode == 0
        assert multiprocessing.active_children() == []
        assert threads == []

    def test_one_chunk_starts_no_process(self, monkeypatch):
        processes, threads = _record_started(monkeypatch)
        _, history = _train_with_threads(monkeypatch, 2, 2)
        assert history.header["threads"] == "1"
        assert processes == [] and threads == []

    def test_killed_worker_raises_promptly(self, monkeypatch):
        # SIGKILL, as the out-of-memory killer sends it, during step 2.
        processes, _ = _record_started(monkeypatch)
        kill_workers_at_step(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(MemoryError, match="exit status -9"):
            _train_with_threads(monkeypatch, 2, 1)
        assert time.perf_counter() - start < 30
        assert len(processes) == 1 and processes[0].exitcode == -9
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_returned_networks_hold_private_arrays(self, monkeypatch, chunks):
        # The Parameters lived in a shared mapping during the call, at
        # every chunk count.
        gen, history = _train_with_threads(monkeypatch, chunks, 1)
        assert history.header["threads"] == str(chunks)
        for p in gen.parameters.values():
            assert p.value.base is None and p.value.flags.owndata, p.name


class TestCheckpointRoundTrip:
    def test_save_and_load_exactly(self, tmp_path):
        gen_cfg, disc_cfg = _tiny_configs()
        gen, disc, _ = train_cgan(
            gen_cfg, disc_cfg, _tiny_dataset(), 2, seed=7, settings=TrainSettings(batch_size=2)
        )
        save_models(tmp_path / "ckpt", gen, disc, num_classes=4)
        loaded_gen, loaded_disc, meta = load_models(tmp_path / "ckpt")
        assert meta["head"] == "hadamard" and meta["num_classes"] == "4"
        for name in gen.parameters:
            assert np.array_equal(
                loaded_gen.parameters[name].value, gen.parameters[name].value
            )
        for name in disc.parameters:
            assert np.array_equal(
                loaded_disc.parameters[name].value, disc.parameters[name].value
            )
        x = _tiny_dataset()[0].image[None]
        original, _ = gen.forward(x)
        reloaded, _ = loaded_gen.forward(x)
        assert np.array_equal(original.value, reloaded.value)
