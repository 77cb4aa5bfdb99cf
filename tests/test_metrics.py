import numpy as np
import pytest

from hadaseg.data import read_label_map, write_label_map
from hadaseg.errors import (
    CapacityError,
    ClassIndexError,
    ShapeError,
    UndefinedMetricError,
)
from hadaseg.metrics import (
    ConfusionMatrix,
    LabelMap,
    argmax_map,
    class_iou,
    confusion,
    metrics_report,
    pixel_accuracy,
)


def _one_hot(labels: np.ndarray, channels: int) -> np.ndarray:
    return (labels[..., None] == np.arange(channels)).astype(np.float64)


def _confusion_oracle(pred: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth.reshape(-1), pred.reshape(-1)):
        counts[t, p] += 1
    return counts


class TestLabelMap:
    def test_dimensions(self):
        lm = LabelMap(np.zeros((3, 5), dtype=np.int64))
        assert (lm.height, lm.width) == (3, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            LabelMap(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(ShapeError):
            LabelMap(np.zeros(4, dtype=np.int64))
        with pytest.raises(ClassIndexError):
            LabelMap(np.array([[-1, 0]], dtype=np.int64))

    def test_nested_list_is_stored_as_the_checked_array(self, tmp_path):
        lm = LabelMap([[0, 1], [1, 0]])
        assert isinstance(lm.labels, np.ndarray)
        assert (lm.height, lm.width) == (2, 2)
        assert np.array_equal(confusion(lm, lm, 2).counts, [[2, 0], [0, 2]])
        write_label_map(tmp_path / "lm.segl", lm)
        assert np.array_equal(read_label_map(tmp_path / "lm.segl").labels, lm.labels)


class TestConfusionMatrix:
    def test_nested_list_is_stored_as_the_checked_array(self):
        cm = ConfusionMatrix([[3, 1], [0, 2]])
        assert isinstance(cm.counts, np.ndarray)
        assert cm.num_classes == 2
        assert np.array_equal((cm + cm).counts, [[6, 2], [0, 4]])


class TestArgmaxMap:
    def test_recovers_one_hot(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, size=(5, 7))
        lm = argmax_map(_one_hot(labels, 8), 6)
        assert np.array_equal(lm.labels, labels)

    def test_uniform_ties_to_zero(self):
        lm = argmax_map(np.ones((3, 3, 4)), 4)
        assert np.array_equal(lm.labels, np.zeros((3, 3), dtype=np.int64))

    def test_random_tensor_against_loop_oracle(self):
        rng = np.random.default_rng(12)
        y_hat = rng.standard_normal((4, 4, 8))
        lm = argmax_map(y_hat, 8)
        for r in range(4):
            for c in range(4):
                best = 0
                for ch in range(8):
                    if y_hat[r, c, ch] > y_hat[r, c, best]:
                        best = ch
                assert lm.labels[r, c] == best

    def test_uses_only_first_k_channels(self):
        y_hat = np.zeros((1, 1, 4))
        y_hat[0, 0] = [0.1, 0.2, 0.9, 5.0]
        assert argmax_map(y_hat, 3).labels[0, 0] == 2

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            argmax_map(np.zeros((2, 2, 4)), 5)


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        labels = np.array([[0, 1], [2, 2]])
        lm = LabelMap(labels)
        cm = confusion(lm, lm, 3)
        assert np.array_equal(cm.counts, np.diag([1, 1, 2]))

    def test_single_off_diagonal_cell(self):
        pred = LabelMap(np.zeros((2, 2), dtype=np.int64))
        truth = LabelMap(np.ones((2, 2), dtype=np.int64))
        cm = confusion(pred, truth, 2)
        expected = np.zeros((2, 2), dtype=np.int64)
        expected[1, 0] = 4
        assert np.array_equal(cm.counts, expected)

    def test_random_pair_against_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pred = rng.integers(0, 4, (8, 8))
            truth = rng.integers(0, 4, (8, 8))
            cm = confusion(LabelMap(pred), LabelMap(truth), 4)
            assert np.array_equal(cm.counts, _confusion_oracle(pred, truth, 4))

    def test_additive(self):
        rng = np.random.default_rng(10)
        a_pred, a_truth = rng.integers(0, 3, (2, 4, 4))
        b_pred, b_truth = rng.integers(0, 3, (2, 4, 4))
        merged = confusion(LabelMap(a_pred), LabelMap(a_truth), 3) + confusion(
            LabelMap(b_pred), LabelMap(b_truth), 3
        )
        both_pred = np.concatenate([a_pred, b_pred])
        both_truth = np.concatenate([a_truth, b_truth])
        assert np.array_equal(
            merged.counts, confusion(LabelMap(both_pred), LabelMap(both_truth), 3).counts
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(
                LabelMap(np.zeros((2, 2), dtype=np.int64)),
                LabelMap(np.zeros((2, 3), dtype=np.int64)),
                2,
            )

    def test_label_out_of_range(self):
        with pytest.raises(ClassIndexError):
            confusion(
                LabelMap(np.full((2, 2), 3, dtype=np.int64)),
                LabelMap(np.zeros((2, 2), dtype=np.int64)),
                3,
            )


class TestPixelAccuracy:
    def test_perfect(self):
        lm = LabelMap(np.array([[0, 1], [1, 0]]))
        assert pixel_accuracy(confusion(lm, lm, 2)) == 1.0

    def test_half_right(self):
        pred = LabelMap(np.zeros((2, 2), dtype=np.int64))
        truth = LabelMap(np.array([[0, 0], [1, 1]]))
        assert pixel_accuracy(confusion(pred, truth, 2)) == 0.5

    def test_empty_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pixel_accuracy(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)))


class TestClassIou:
    def test_perfect_all_present(self):
        lm = LabelMap(np.array([[0, 1], [2, 3]]))
        iou, mean = class_iou(confusion(lm, lm, 4))
        assert np.array_equal(iou, np.ones(4))
        assert mean == 1.0

    def test_half_background_predictor(self):
        pred = LabelMap(np.zeros((2, 2), dtype=np.int64))
        truth = LabelMap(np.array([[0, 0], [1, 1]]))
        iou, mean = class_iou(confusion(pred, truth, 2))
        assert iou[0] == 0.5 and iou[1] == 0.0
        assert mean == 0.25

    def test_absent_class_excluded_from_mean(self):
        pred = LabelMap(np.array([[0, 1]]))
        truth = LabelMap(np.array([[0, 1]]))
        iou, mean = class_iou(confusion(pred, truth, 3))
        assert np.isnan(iou[2])
        assert mean == 1.0

    def test_truth_only_class_counts_as_zero(self):
        pred = LabelMap(np.zeros((1, 4), dtype=np.int64))
        truth = LabelMap(np.array([[0, 0, 1, 1]]))
        iou, _ = class_iou(confusion(pred, truth, 2))
        assert iou[1] == 0.0 and not np.isnan(iou[1])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pred = LabelMap(rng.integers(0, 5, (6, 6)))
            truth = LabelMap(rng.integers(0, 5, (6, 6)))
            cm = confusion(pred, truth, 5)
            iou, mean = class_iou(cm)
            valid = iou[~np.isnan(iou)]
            assert np.all((valid >= 0) & (valid <= 1))
            assert 0 <= mean <= 1
            assert 0 <= pixel_accuracy(cm) <= 1


class TestMetricsReport:
    def test_reports_both_mean_views_and_presence(self):
        pred = LabelMap(np.array([[0, 1], [0, 1]]))
        truth = LabelMap(np.array([[0, 1], [1, 1]]))
        report = metrics_report(confusion(pred, truth, 3))
        assert set(report["per_class"][0]) == {
            "class",
            "iou",
            "present_in_truth",
            "present_in_prediction",
            "evaluated",
        }
        absent = report["per_class"][2]
        assert absent["evaluated"] is False and absent["iou"] is None
        evaluated_ious = [
            entry["iou"] for entry in report["per_class"] if entry["evaluated"]
        ]
        assert report["mean_iou"] == pytest.approx(np.mean(evaluated_ious))
        assert report["mean_iou_absent_as_zero"] == pytest.approx(
            sum(evaluated_ious) / 3
        )
        assert report["total_pixels"] == 4

    def test_perfect_report(self):
        lm = LabelMap(np.array([[0, 1], [2, 0]]))
        report = metrics_report(confusion(lm, lm, 3))
        assert report["pixel_accuracy"] == 1.0
        assert report["mean_iou"] == 1.0
