"""Frame-level evaluation: confusion matrices and macro metrics.

Per-class precision, recall and F1 fall back to 0 whenever a denominator is
zero, and macro averages run over ALL classes, including classes absent from
the evaluated frames; every exported report states this convention.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datamodel import LabelSet
from .errors import DataError
from .models import PredictionTimeline

ZERO_DENOMINATOR_NOTE = (
    "per-class precision/recall/F1 with a zero denominator count as 0 and are "
    "included in the macro means over all classes"
)


@dataclass
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]

    def write_json(self, path: str | Path) -> None:
        obj = {"convention": ZERO_DENOMINATOR_NOTE, **asdict(self)}
        Path(path).write_text(json.dumps(obj, indent=2) + "\n",
                              encoding="utf-8")


def confusion_from_timelines(timelines: list[PredictionTimeline],
                             num_classes: int) -> np.ndarray:
    """K x K counts; entry (t, p) = frames with true label t predicted p."""
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for timeline in timelines:
        labels = timeline.true_labels
        preds = timeline.pred_labels
        if (labels >= num_classes).any() or (preds >= num_classes).any() \
                or (labels < 0).any() or (preds < 0).any():
            raise DataError(
                f"timeline {timeline.sequence_id!r} has labels outside [0, {num_classes})"
            )
        np.add.at(matrix, (labels, preds), 1)
    return matrix


def macro_report(matrix: np.ndarray) -> MetricsReport:
    """Accuracy plus macro precision/recall/F1 from an integer count matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
        raise DataError("confusion matrix must be square and non-empty")
    total = int(matrix.sum())
    if total == 0:
        raise DataError("cannot evaluate zero frames")
    diag = np.diag(matrix)
    col_sums = matrix.sum(axis=0)
    row_sums = matrix.sum(axis=1)
    precision = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    recall = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
    pr_sum = precision + recall
    f1 = np.where(pr_sum > 0, 2.0 * precision * recall / np.maximum(pr_sum, 1e-300), 0.0)
    return MetricsReport(
        accuracy=int(np.trace(matrix)) / total,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        per_class_precision=tuple(float(x) for x in precision),
        per_class_recall=tuple(float(x) for x in recall),
        per_class_f1=tuple(float(x) for x in f1),
    )


def normalize_confusion(matrix: np.ndarray) -> np.ndarray:
    """Row-normalized counts; all-zero rows stay all-zero."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums > 0)


def write_confusion_csv(matrix: np.ndarray, label_set: LabelSet,
                        path: str | Path) -> None:
    """Integer counts with a class-name header row and row labels."""
    _write_csv(matrix, label_set, path, fmt=lambda v: str(int(v)))


def write_confusion_normalized_csv(matrix: np.ndarray, label_set: LabelSet,
                                   path: str | Path) -> None:
    """Row-normalized matrix at 6-decimal fixed point."""
    _write_csv(normalize_confusion(matrix), label_set, path,
               fmt=lambda v: f"{v:.6f}")


def _write_csv(matrix: np.ndarray, label_set: LabelSet, path: str | Path, fmt) -> None:
    if matrix.shape != (label_set.size, label_set.size):
        raise DataError(
            f"matrix shape {matrix.shape} does not match {label_set.size} classes"
        )
    lines = ["true\\pred," + ",".join(label_set.names)]
    for k, name in enumerate(label_set.names):
        lines.append(name + "," + ",".join(fmt(v) for v in matrix[k]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
