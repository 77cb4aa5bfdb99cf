import numpy as np
import pytest

from hadaseg.errors import ConfigError, ShapeError
from hadaseg.netkit import autodiff as ad
from hadaseg.netkit.models import (
    HEAD_HADAMARD,
    HEAD_ONE_HOT,
    DiscriminatorConfig,
    GeneratorConfig,
    build_discriminator,
    build_generator,
    receptive_field,
)

from helpers import rel_error


class TestGeneratorStructure:
    def test_head_swap_preserves_parameters(self):
        cfg_h = GeneratorConfig(depth=3, base_channels=16, code_bits=3, head=HEAD_HADAMARD)
        cfg_o = GeneratorConfig(depth=3, base_channels=16, code_bits=3, head=HEAD_ONE_HOT)
        gen_h = build_generator(cfg_h, seed=5)
        gen_o = build_generator(cfg_o, seed=5)
        assert gen_h.parameter_count() == gen_o.parameter_count()
        assert set(gen_h.parameters) == set(gen_o.parameters)
        for name in gen_h.parameters:
            assert gen_h.parameters[name].value.shape == gen_o.parameters[name].value.shape
            # Same seed means bit-identical initialization too.
            assert np.array_equal(
                gen_h.parameters[name].value, gen_o.parameters[name].value
            )

    def test_output_shape_and_normalization(self):
        rng = np.random.default_rng(0)
        gen = build_generator(GeneratorConfig(depth=3, base_channels=8, code_bits=3))
        x = rng.uniform(0, 1, (1, 64, 64, 3))
        y_hat, y_c = gen.forward(x)
        assert y_hat.value.shape == (1, 64, 64, 8)
        assert y_c.value.shape == (1, 64, 64, 8)
        assert np.abs(y_hat.value.sum(axis=-1) - 1.0).max() < 1e-9

    def test_nan_in_decoder_reaches_the_codes(self):
        # The decoder's ReLU passes a NaN on rather than zeroing it, so a
        # diverged weight shows in the output instead of being hidden.
        gen = build_generator(GeneratorConfig(depth=2, base_channels=4, code_bits=2), seed=1)
        gen.parameters["dec1.b"].value[0] = np.nan
        _, y_c = gen.forward(np.full((1, 8, 8, 3), 0.5))
        assert np.isnan(y_c.value).all()

    def test_same_seed_reproduces_init(self):
        a = build_generator(GeneratorConfig(depth=2, base_channels=4), seed=3)
        b = build_generator(GeneratorConfig(depth=2, base_channels=4), seed=3)
        for name in a.parameters:
            assert np.array_equal(a.parameters[name].value, b.parameters[name].value)

    def test_resolution_must_match_depth(self):
        gen = build_generator(GeneratorConfig(depth=3, base_channels=4))
        with pytest.raises(ShapeError):
            gen.forward(np.zeros((1, 20, 20, 3)))

    def test_input_channel_check(self):
        gen = build_generator(GeneratorConfig(depth=1, base_channels=4))
        with pytest.raises(ShapeError):
            gen.forward(np.zeros((1, 8, 8, 4)))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_each_layer_is_one_conv2d_call(self, monkeypatch, depth):
        # The encoder, each decoder stage over its (upsampled, skip) pair
        # and the 1x1 projection: one ad.conv2d call per layer, so a tracer
        # that wraps conv2d sees every layer.
        calls = []
        conv2d = ad.conv2d

        def counting_conv2d(x, w, b, stride=1):
            calls.append(w.name)
            return conv2d(x, w, b, stride=stride)

        monkeypatch.setattr(ad, "conv2d", counting_conv2d)
        gen = build_generator(GeneratorConfig(depth=depth, base_channels=4, code_bits=2))
        gen.forward(np.random.default_rng(4).standard_normal((1, 8, 8, 3)))
        assert calls == (
            [f"enc{d}.w" for d in range(depth)]
            + [f"dec{d}.w" for d in reversed(range(depth))]
            + ["out.w"]
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(depth=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(head="sigmoid")
        with pytest.raises(ConfigError):
            GeneratorConfig(code_bits=17)


class TestGeneratorGradient:
    @pytest.mark.parametrize("head", [HEAD_HADAMARD, HEAD_ONE_HOT])
    def test_whole_graph_gradcheck_depth1(self, head):
        # Finite differences over every trainable parameter of a tiny net.
        rng = np.random.default_rng(42)
        cfg = GeneratorConfig(depth=1, base_channels=2, code_bits=2, head=head)
        gen = build_generator(cfg, seed=1)
        x = rng.uniform(0, 1, (1, 8, 8, 3))
        projection = rng.standard_normal((1, 8, 8, 4))

        def objective() -> float:
            y_hat, _ = gen.forward(x)
            return float((y_hat.value * projection).sum())

        y_hat, _ = gen.forward(x)
        ad.backward([(y_hat, projection)])
        step = 1e-5
        for name, param in gen.parameters.items():
            numeric = np.zeros_like(param.value)
            flat = param.value.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                plus = objective()
                flat[i] = original - step
                minus = objective()
                flat[i] = original
                num_flat[i] = (plus - minus) / (2 * step)
            assert rel_error(param.grad, numeric) < 1e-3, name


class TestDiscriminator:
    def test_alpha_shape_and_range(self):
        rng = np.random.default_rng(1)
        disc = build_discriminator(DiscriminatorConfig(layers=3, base_channels=8), 11)
        pair = rng.standard_normal((2, 64, 64, 11))
        alpha = disc.forward(pair[..., :3], pair[..., 3:])
        assert alpha.value.shape == (2, 8, 8, 1)
        assert np.all((alpha.value > 0) & (alpha.value < 1))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_each_layer_is_one_conv2d_call(self, monkeypatch, layers):
        # d0 over the (image, classes) pair, d1..d{layers-1} and the head:
        # one ad.conv2d call per layer, so a tracer that wraps conv2d sees
        # every layer, the first included.
        calls = []
        conv2d = ad.conv2d

        def counting_conv2d(x, w, b, stride=1):
            calls.append(w.name)
            return conv2d(x, w, b, stride=stride)

        monkeypatch.setattr(ad, "conv2d", counting_conv2d)
        disc = build_discriminator(DiscriminatorConfig(layers=layers, base_channels=4), 7)
        rng = np.random.default_rng(3)
        disc.forward(rng.standard_normal((1, 32, 32, 3)), rng.standard_normal((1, 32, 32, 4)))
        assert calls == [f"d{layer}.w" for layer in range(layers)] + ["out.w"]

    def test_receptive_field_recurrence(self):
        rf = receptive_field(DiscriminatorConfig(layers=3, base_channels=8))
        # Three stride-2 3x3 convs plus the stride-1 head:
        # r = 1 -> 3 -> 7 -> 15 -> 31, jump 8, accumulated padding 15.
        assert (rf.size, rf.stride, rf.offset) == (31, 8, 15)
        assert rf.window(0) == (-15, 15)
        assert rf.window(4) == (17, 47)

    def test_receptive_field_by_gradient_masking(self):
        # Perturb one input pixel and verify only the analytically-predicted
        # alpha cells react.
        rng = np.random.default_rng(2)
        cfg = DiscriminatorConfig(layers=2, base_channels=4)
        disc = build_discriminator(cfg, 3)
        rf = receptive_field(cfg)
        x = rng.standard_normal((1, 32, 32, 3))
        base = disc.forward(x[..., :1], x[..., 1:]).value[0, :, :, 0]
        pixel_row, pixel_col = 13, 21
        perturbed = x.copy()
        perturbed[0, pixel_row, pixel_col, :] += 1.0
        alpha = disc.forward(perturbed[..., :1], perturbed[..., 1:])
        changed = np.abs(alpha.value[0, :, :, 0] - base) > 1e-12
        rows, cols = np.nonzero(changed)
        assert changed.any()
        for i, j in zip(rows, cols):
            lo_r, hi_r = rf.window(int(i))
            lo_c, hi_c = rf.window(int(j))
            assert lo_r <= pixel_row <= hi_r
            assert lo_c <= pixel_col <= hi_c
        # The cell whose window is centered nearest the pixel must react.
        nearest = (round(pixel_row / rf.stride), round(pixel_col / rf.stride))
        assert changed[nearest]

    def test_receptive_field_larger_than_input_rejected(self):
        cfg = DiscriminatorConfig(layers=5, base_channels=4)
        assert receptive_field(cfg).size == 127
        with pytest.raises(ConfigError):
            build_discriminator(cfg, 11, input_size=64)
        disc = build_discriminator(cfg, 11)
        with pytest.raises(ConfigError):
            disc.forward(np.zeros((1, 64, 64, 3)), np.zeros((1, 64, 64, 8)))

    def test_input_size_divisibility_check(self):
        with pytest.raises(ConfigError):
            build_discriminator(DiscriminatorConfig(layers=3), 11, input_size=36)
        disc = build_discriminator(DiscriminatorConfig(layers=3), 11)
        with pytest.raises(ConfigError):
            disc.forward(np.zeros((1, 36, 40, 3)), np.zeros((1, 36, 40, 8)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DiscriminatorConfig(layers=0)
        with pytest.raises(ConfigError):
            build_discriminator(DiscriminatorConfig(), 0)
