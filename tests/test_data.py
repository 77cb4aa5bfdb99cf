import numpy as np
import pytest

from hadaseg import data as data_module
from hadaseg.codes import sylvester
from hadaseg.data import (
    class_histogram,
    common_resolution,
    gen_synthetic,
    ingest_index_maps,
    one_hot,
    read_image,
    read_label_map,
    write_dataset,
    write_image,
    write_label_map,
)
from hadaseg.errors import (
    ClassIndexError,
    ConfigError,
    FormatError,
    GenerationError,
    IngestionError,
    ShapeError,
)
from hadaseg.layer import hadamard_forward
from hadaseg.metrics import LabelMap, argmax_map

from helpers import write_bad_pixel


class TestGenSynthetic:
    def test_two_classes_small_canvas(self):
        (sample,) = gen_synthetic(seed=3, count=1, size=32, num_classes=2)
        assert set(np.unique(sample.labels.labels)) == {0, 1}
        assert sample.image.shape == (32, 32, 3)
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0

    def test_deterministic(self):
        a = gen_synthetic(seed=17, count=4, size=32, num_classes=5)
        b = gen_synthetic(seed=17, count=4, size=32, num_classes=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.labels.labels, sb.labels.labels)

    def test_different_seeds_differ(self):
        a = gen_synthetic(seed=1, count=1, size=32, num_classes=4)
        b = gen_synthetic(seed=2, count=1, size=32, num_classes=4)
        assert not np.array_equal(a[0].image, b[0].image)

    def test_labels_in_range(self):
        for sample in gen_synthetic(seed=23, count=10, size=32, num_classes=6):
            assert sample.labels.labels.max() < 6
            assert sample.labels.labels.min() >= 0

    def test_every_class_appears_across_corpus(self):
        samples = gen_synthetic(seed=101, count=200, size=64, num_classes=8)
        per_class = np.zeros(8, dtype=int)
        for sample in samples:
            per_class[np.unique(sample.labels.labels)] += 1
        assert np.all(per_class[1:] >= 10)

    def test_background_dominates(self):
        samples = gen_synthetic(seed=11, count=20, size=64, num_classes=8)
        histogram = class_histogram(samples, 8)
        assert histogram[0] > histogram[1:].sum()

    def test_impossible_placement_raises(self, monkeypatch):
        monkeypatch.setattr(data_module, "MAX_PLACE_RETRIES", 1)
        with pytest.raises(GenerationError):
            gen_synthetic(seed=0, count=1, size=16, num_classes=4)

    def test_parameter_validation(self):
        with pytest.raises(GenerationError):
            gen_synthetic(seed=0, count=0, size=32, num_classes=4)
        with pytest.raises(GenerationError):
            gen_synthetic(seed=0, count=1, size=8, num_classes=4)
        with pytest.raises(GenerationError):
            gen_synthetic(seed=0, count=1, size=32, num_classes=1)
        with pytest.raises(GenerationError):
            gen_synthetic(seed=0, count=1, size=32, num_classes=257)
        assert len(gen_synthetic(seed=0, count=1, size=32, num_classes=256)) == 1


class TestLabelMapFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lm = LabelMap(rng.integers(0, 200, size=(rng.integers(1, 9), rng.integers(1, 9))))
            path = tmp_path / "map.segl"
            write_label_map(path, lm)
            assert np.array_equal(read_label_map(path).labels, lm.labels)

    def test_file_length_arithmetic(self, tmp_path):
        path = tmp_path / "zeros.segl"
        write_label_map(path, LabelMap(np.zeros((2, 3), dtype=np.int64)))
        assert path.stat().st_size == 4 + 1 + 8 + 6

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.segl"
        write_label_map(path, LabelMap(np.zeros((2, 2), dtype=np.int64)))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_label_map(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short.segl"
        write_label_map(path, LabelMap(np.zeros((4, 4), dtype=np.int64)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_label_map(path)

    def test_rejects_wide_labels(self, tmp_path):
        with pytest.raises(FormatError):
            write_label_map(tmp_path / "wide.segl", LabelMap(np.array([[300]])))


class TestImageFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(0, 1, (5, 7, 3))
        path = tmp_path / "img.img"
        write_image(path, image)
        assert np.array_equal(read_image(path), image)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "img.img"
        write_image(path, np.zeros((2, 2, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_image(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_pixel_outside_unit_range(self, tmp_path, value):
        path = tmp_path / "img.img"
        write_image(path, np.full((2, 3, 3), 0.5))
        write_bad_pixel(path, (1, 2, 0), value)
        with pytest.raises(FormatError) as caught:
            read_image(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_write_rejects_pixel_outside_unit_range(self, tmp_path, value):
        image = np.full((2, 3, 3), 0.5)
        image[1, 2, 0] = value
        path = tmp_path / "img.img"
        with pytest.raises(FormatError) as caught:
            write_image(path, image)
        assert str(path) in str(caught.value)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 2, 4)])
    def test_write_rejects_empty_or_wrong_shape(self, tmp_path, shape):
        path = tmp_path / "img.img"
        with pytest.raises(ShapeError):
            write_image(path, np.zeros(shape))
        assert not path.exists()

    def test_unit_range_bounds_accepted(self, tmp_path):
        image = np.zeros((2, 2, 3))
        image[1] = 1.0
        path = tmp_path / "img.img"
        write_image(path, image)
        assert np.array_equal(read_image(path), image)


class TestDatasetDirectory:
    def test_write_then_ingest_round_trip(self, tmp_path):
        samples = gen_synthetic(seed=9, count=5, size=16, num_classes=4)
        ids = write_dataset(tmp_path, samples)
        assert ids == [f"{i:06d}" for i in range(5)]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{i}{ext}" for i in ids for ext in (".img", ".segl")
        )
        # Earlier versions also wrote a manifest.txt; ingestion ignores it.
        (tmp_path / "manifest.txt").write_text("".join(f"{i}\n" for i in ids))
        loaded = ingest_index_maps(tmp_path, num_classes=4)
        assert len(loaded) == 5
        for original, read_back in zip(samples, loaded):
            assert np.array_equal(original.image, read_back.image)
            assert np.array_equal(original.labels.labels, read_back.labels.labels)

    def test_empty_directory(self, tmp_path):
        assert ingest_index_maps(tmp_path) == []

    def test_unpaired_files_listed(self, tmp_path):
        samples = gen_synthetic(seed=9, count=3, size=16, num_classes=4)
        write_dataset(tmp_path, samples)
        (tmp_path / "000001.segl").unlink()
        (tmp_path / "000002.img").unlink()
        with pytest.raises(IngestionError) as excinfo:
            ingest_index_maps(tmp_path)
        assert "000001" in str(excinfo.value) and "000002" in str(excinfo.value)

    def test_label_out_of_range_names_file(self, tmp_path):
        samples = gen_synthetic(seed=9, count=1, size=16, num_classes=4)
        write_dataset(tmp_path, samples)
        with pytest.raises(ClassIndexError) as excinfo:
            ingest_index_maps(tmp_path, num_classes=1)
        assert "000000.segl" in str(excinfo.value)

    def test_byte_identical_across_runs(self, tmp_path):
        for run in ("a", "b"):
            write_dataset(tmp_path / run, gen_synthetic(seed=33, count=3, size=16, num_classes=3))
        for name in ("000000.img", "000001.img", "000002.segl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_common_resolution_names_index_without_path(self):
        samples = gen_synthetic(seed=9, count=2, size=16, num_classes=4)
        assert common_resolution(samples) == (16, 16)
        samples += gen_synthetic(seed=9, count=1, size=32, num_classes=4)
        with pytest.raises(ConfigError, match="^sample 2: image 32x32 differs from sample 0"):
            common_resolution(samples)


class TestEncodeTargets:
    """The target encodings training uses: ``data.one_hot`` rows and
    codebook rows ``cb.matrix[labels]``."""

    def test_single_pixel_code_row(self):
        cb = sylvester(3)
        labels = np.array([[5]])
        assert np.array_equal(cb.matrix[labels][0, 0], cb.matrix[5])
        assert np.array_equal(one_hot(labels, cb.n)[0, 0], np.eye(8)[5])

    def test_one_hot_inverts_via_argmax(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 8, (6, 6))
        assert np.array_equal(argmax_map(one_hot(labels, 8), 8).labels, labels)

    def test_code_targets_invert_through_layer(self):
        rng = np.random.default_rng(3)
        cb = sylvester(3)
        labels = rng.integers(0, 8, (5, 4))
        codes = cb.matrix[labels].astype(np.float64)
        probabilities = hadamard_forward(cb, codes).output
        assert np.array_equal(argmax_map(probabilities, 8).labels, labels)

    def test_encoding_invariants_on_random_maps(self):
        rng = np.random.default_rng(4)
        cb = sylvester(2, num_classes=3)
        for _ in range(20):
            labels = rng.integers(0, 3, (4, 4))
            rows = one_hot(labels, cb.n)
            assert rows.shape == (4, 4, 4)
            assert np.array_equal(rows.sum(axis=-1), np.ones((4, 4)))
            assert np.all(np.abs(cb.matrix[labels]) == 1)
            assert np.all(rows[..., 3] == 0)
