import csv
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from egobatch import (
    DataError,
    LabelSet,
    PredictionTimeline,
    confusion_from_timelines,
    macro_report,
    normalize_confusion,
)
from egobatch.evaluation import (
    ZERO_DENOMINATOR_NOTE,
    write_confusion_csv,
    write_confusion_normalized_csv,
)


def timeline(true_labels, pred_labels, num_classes, sid="t0"):
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    probs = np.zeros((len(true_labels), num_classes))
    probs[np.arange(len(true_labels)), pred_labels] = 1.0
    return PredictionTimeline(sid, true_labels, pred_labels, probs)


class TestConfusion:
    def test_direct_counts(self):
        cm = confusion_from_timelines([timeline([0, 0, 1, 1], [0, 1, 1, 1], 2)], 2)
        assert np.array_equal(cm, [[1, 1], [0, 2]])

    def test_perfect_predictions_diagonal(self):
        cm = confusion_from_timelines([timeline([0, 1, 2, 2], [0, 1, 2, 2], 3)], 3)
        assert np.array_equal(cm, np.diag([1, 1, 2]))

    def test_empty_list_gives_zero_matrix(self):
        assert np.array_equal(confusion_from_timelines([], 3), np.zeros((3, 3)))

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            confusion_from_timelines([timeline([0, 2], [0, 0], 3)], 2)

    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, size=100)
        p = rng.integers(0, 4, size=100)
        cm = confusion_from_timelines([timeline(t, p, 4)], 4)
        assert cm.sum() == 100
        for k in range(4):
            assert cm[k].sum() == (t == k).sum()


class TestMacroReport:
    def test_hand_computed_example(self):
        report = macro_report(np.array([[1, 1], [0, 2]]))
        assert report.accuracy == 0.75
        assert report.per_class_precision == (1.0, 2.0 / 3.0)
        assert report.per_class_recall == (0.5, 1.0)
        assert report.per_class_f1 == (2.0 / 3.0, 0.8)
        assert abs(report.macro_f1 - (2.0 / 3.0 + 0.8) / 2.0) < 1e-15
        assert abs(report.macro_f1 - 0.7333) < 5e-5

    def test_diagonal_matrix_is_perfect(self):
        report = macro_report(np.diag([3, 1, 7]))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_zero_denominator_counts_as_zero(self):
        # everything is class 0 and predicted class 0: class 1 scores 0
        report = macro_report(np.array([[5, 0], [0, 0]]))
        assert report.per_class_precision == (1.0, 0.0)
        assert report.per_class_recall == (1.0, 0.0)
        assert report.per_class_f1 == (1.0, 0.0)
        assert report.macro_f1 == 0.5

    def test_accuracy_is_exact_trace_over_total(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            cm = rng.integers(0, 30, size=(k, k))
            if cm.sum() == 0:
                continue
            report = macro_report(cm)
            assert report.accuracy == int(np.trace(cm)) / int(cm.sum())
            exact = Fraction(int(np.trace(cm)), int(cm.sum()))
            assert abs(report.accuracy - float(exact)) == 0.0

    def test_permutation_invariance_of_macros(self):
        rng = np.random.default_rng(2)
        cm = rng.integers(0, 20, size=(5, 5))
        perm = rng.permutation(5)
        permuted = cm[np.ix_(perm, perm)]
        a, b = macro_report(cm), macro_report(permuted)
        assert abs(a.macro_precision - b.macro_precision) < 1e-12
        assert abs(a.macro_recall - b.macro_recall) < 1e-12
        assert abs(a.macro_f1 - b.macro_f1) < 1e-12
        assert abs(a.accuracy - b.accuracy) < 1e-12
        for k in range(5):
            assert abs(a.per_class_f1[perm[k]] - b.per_class_f1[k]) < 1e-12

    def test_accumulation_additivity(self):
        rng = np.random.default_rng(3)
        timelines = [timeline(rng.integers(0, 3, size=25),
                              rng.integers(0, 3, size=25), 3, sid=f"t{i}")
                     for i in range(4)]
        merged = confusion_from_timelines(timelines, 3)
        summed = sum(confusion_from_timelines([t], 3) for t in timelines)
        assert np.array_equal(merged, summed)
        a, b = macro_report(merged), macro_report(summed)
        assert a == b

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            macro_report(np.zeros((3, 3), dtype=int))


class TestNormalize:
    def test_hand_example(self):
        out = normalize_confusion(np.array([[1, 1], [0, 2]]))
        assert np.allclose(out, [[0.5, 0.5], [0.0, 1.0]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = normalize_confusion(np.array([[0, 0], [1, 3]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert not np.isnan(out).any()

    def test_nonzero_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        cm = rng.integers(0, 9, size=(6, 6))
        out = normalize_confusion(cm)
        for k in range(6):
            if cm[k].sum() > 0:
                assert abs(out[k].sum() - 1.0) < 1e-12


class TestExports:
    def test_report_json_carries_convention_note(self, tmp_path):
        report = macro_report(np.array([[1, 1], [0, 2]]))
        path = tmp_path / "report.json"
        report.write_json(path)
        obj = json.loads(path.read_text())
        assert obj["convention"] == ZERO_DENOMINATOR_NOTE
        assert obj["accuracy"] == 0.75
        assert len(obj["per_class_f1"]) == 2

    def test_confusion_csv_layout(self, tmp_path):
        labels = LabelSet(("walk", "eat"))
        path = tmp_path / "confusion.csv"
        write_confusion_csv(np.array([[1, 1], [0, 2]]), labels, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3  # header plus one row per class
        assert lines[0] == "true\\pred,walk,eat"
        assert lines[1] == "walk,1,1"
        assert lines[2] == "eat,0,2"

    def test_plain_names_are_written_unquoted(self, tmp_path):
        labels = LabelSet(("sit down", "a;b", " lead"))
        path = tmp_path / "confusion.csv"
        write_confusion_csv(np.eye(3, dtype=np.int64), labels, path)
        assert path.read_bytes() == (b"true\\pred,sit down,a;b, lead\n"
                                     b"sit down,1,0,0\na;b,0,1,0\n lead,0,0,1\n")

    @pytest.mark.parametrize("write", [write_confusion_csv,
                                       write_confusion_normalized_csv])
    def test_names_with_commas_and_quotes_stay_one_field(self, tmp_path, write):
        labels = LabelSet(("walk, outdoors", 'say "hi"', "eat"))
        path = tmp_path / "matrix.csv"
        write(np.array([[1, 1, 0], [0, 2, 0], [0, 0, 3]]), labels, path)
        with open(path, encoding="utf-8", newline="") as src:
            rows = list(csv.reader(src))
        assert [len(row) for row in rows] == [4] * 4  # K + 1 fields per row
        assert rows[0] == ["true\\pred", *labels.names]
        assert [row[0] for row in rows[1:]] == list(labels.names)

    def test_normalized_csv_fixed_point(self, tmp_path):
        labels = LabelSet(("walk", "eat"))
        path = tmp_path / "norm.csv"
        write_confusion_normalized_csv(np.array([[1, 1], [0, 2]]), labels, path)
        lines = path.read_text().strip().split("\n")
        assert lines[1] == "walk,0.500000,0.500000"
        assert lines[2] == "eat,0.000000,1.000000"


class TestGuards:
    """Each guard raises its error with its message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: macro_report(np.ones((2, 3), dtype=np.int64)), DataError,
                     "confusion matrix must be square and non-empty", id="report-not-square"),
        pytest.param(lambda: write_confusion_csv(np.ones((3, 3), dtype=np.int64),
                                                 LabelSet(("a", "b")), os.devnull),
                     DataError, "matrix shape (3, 3) does not match 2 classes",
                     id="csv-not-k-by-k"),
    ])
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()
