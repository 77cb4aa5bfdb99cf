import warnings

import numpy as np
import pytest

from hadaseg.data import gen_synthetic
from hadaseg.errors import ConfigError, ShapeError, TrainingDivergedError
from hadaseg.loss import generator_loss
from hadaseg.netkit import (
    DiscriminatorConfig,
    GeneratorConfig,
    TrainSettings,
    load_models,
    save_models,
    train_cgan,
)
from hadaseg.netkit import train as train_module
from hadaseg.netkit.optim import adam_step
from hadaseg.netkit.train import LOSS_CSV_COLUMNS


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

    def test_non_finite_generator_loss_stops_before_generator_update(self, monkeypatch):
        calls = []

        def recording_adam_step(params, grads, state, **kwargs):
            calls.append(sorted(params))
            return adam_step(params, grads, state, **kwargs)

        def nan_generator_loss(*args):
            _, terms = generator_loss(*args)
            return float("nan"), terms

        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        monkeypatch.setattr(train_module, "generator_loss", nan_generator_loss)
        gen_cfg, disc_cfg = _tiny_configs()
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_cgan(
                gen_cfg, disc_cfg, _tiny_dataset(), 3, seed=5, settings=TrainSettings(batch_size=2)
            )
        assert "non-finite loss at step 1: L_D=" in str(excinfo.value)
        assert "L_G=nan" in str(excinfo.value)
        # Only the discriminator was updated.
        assert len(calls) == 1 and "d0.w" in calls[0] and "enc0.w" not in calls[0]

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

    def test_header_documents_threads_and_parameters(self):
        gen_cfg, disc_cfg = _tiny_configs()
        gen, _, history = train_cgan(gen_cfg, disc_cfg, _tiny_dataset(), 0, seed=1)
        assert int(history.header["threads"]) >= 1
        assert history.header["trainable-parameters"] == str(gen.parameter_count())
        first_line = history.loss_csv().splitlines()[0]
        assert first_line.startswith("# threads=")


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
