from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaseg.config import KEYS, ExperimentConfig, load_config, parse_config
from hadaseg.errors import ConfigError
from hadaseg.loss import LossWeights
from hadaseg.netkit import DiscriminatorConfig, GeneratorConfig, TrainSettings

GOOD = """
# smoke experiment
seed = 7
classes = 8
codebook.k = 3
data.dir = data/train

generator.depth = 2
generator.base_channels = 8
discriminator.layers = 2
discriminator.base_channels = 8

loss.lambda1 = 1000
loss.lambda2 = 100
loss.lambda3 = 250

train.steps = 40
train.batch_size = 4
train.lr = 2e-4
"""


class TestParsing:
    def test_full_document(self):
        cfg = parse_config(GOOD)
        assert cfg.seed == 7
        assert cfg.classes == 8
        assert cfg.generator.code_bits == 3
        assert cfg.data_dir == "data/train"
        assert cfg.generator.depth == 2
        assert cfg.steps == 40
        assert cfg.train.lr == 2e-4

    def test_defaults(self):
        cfg = parse_config("seed = 1")
        assert cfg == ExperimentConfig(seed=1)
        assert (cfg.loss.lambda1, cfg.loss.lambda2, cfg.loss.lambda3) == (1000.0, 100.0, 250.0)
        assert (cfg.train.lr, cfg.train.beta1, cfg.train.beta2) == (2e-4, 0.5, 0.999)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# hello\n\nseed = 2  # trailing\n")
        assert cfg.seed == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("sneed = 1")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("seed 1")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("train.steps = soon")


class TestValidation:
    def test_classes_exceed_capacity(self):
        with pytest.raises(ConfigError, match="capacity"):
            parse_config("codebook.k = 2\nclasses = 5")

    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            parse_config("classes = 1\ncodebook.k = 1")

    def test_negative_steps(self):
        with pytest.raises(ConfigError):
            parse_config("train.steps = -1")

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            parse_config("train.lr = 0")

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            parse_config("train.beta1 = 1.0")

    def test_depth_bounds(self):
        with pytest.raises(ConfigError):
            parse_config("generator.depth = 0")

    @pytest.mark.parametrize(
        "line",
        [
            "codebook.k = 17",
            "classes = 1",
            "generator.depth = 0",
            "discriminator.layers = 0",
            "generator.base_channels = 0",
            "discriminator.base_channels = 0",
            *(f"loss.lambda{i} = {v}" for i in (1, 2, 3) for v in ("-1", "nan")),
            "train.steps = -1",
            "train.batch_size = 0",
            "train.log_every = 0",
            "train.metrics_every = 0",
            "train.lr = 0",
            "train.lr = nan",
            "train.lr = inf",
            *(f"train.{b} = {v}" for b in ("beta1", "beta2") for v in ("1.0", "-0.1")),
            "seed = -1",
        ],
    )
    def test_one_bad_value_per_range(self, line):
        with pytest.raises(ConfigError):
            parse_config(line)

    def test_every_problem_in_one_message(self):
        text = (
            "classes = 9\n"
            "discriminator.layers = 0\n"
            "loss.lambda2 = -1\n"
            "train.steps = -1\n"
            "train.lr = 0\n"
            "seed = -1\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        message = str(excinfo.value)
        assert message.count("\n") == 0
        for section, word in (
            ("classes", "capacity"),
            ("discriminator", "layers"),
            ("loss", "lambda2"),
            ("train", "steps"),
            ("train", "lr"),
            ("seed", "-1"),
        ):
            assert f"{section}: " in message and word in message

    def test_train_settings_check_their_own_ranges(self):
        with pytest.raises(ConfigError):
            TrainSettings(lr=0)
        with pytest.raises(ConfigError):
            TrainSettings(beta1=1.0)


_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(KEYS)), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=6).map("\n".join))
def test_parsed_config_builds_every_section_or_is_rejected(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for head in ("one_hot", "hadamard"):
        replace(cfg.generator, head=head)


class TestDerivedConfigs:
    def test_sub_configs(self):
        cfg = parse_config(GOOD)
        gen_cfg = replace(cfg.generator, head="hadamard")
        assert gen_cfg.code_bits == 3 and gen_cfg.depth == 2
        assert cfg.discriminator.layers == 2
        assert cfg.loss.lambda3 == 250.0
        assert cfg.train.batch_size == 4

    def test_empty_document_holds_each_section_default(self):
        cfg = parse_config("")
        assert cfg.generator == GeneratorConfig()
        assert cfg.discriminator == DiscriminatorConfig()
        assert cfg.loss == LossWeights()
        assert cfg.train == TrainSettings()

    def test_invalid_head_propagates(self):
        with pytest.raises(ConfigError):
            replace(parse_config(GOOD).generator, head="other")


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD)
        assert load_config(path).seed == 7

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")
