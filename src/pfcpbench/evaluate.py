"""Evaluation harness: threshold metrics, AUC, per-class detection rates,
evasion-rate tables, and deterministic report emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MetricError
from .traffic import ClassLabel, LabeledDataset, make_dir, write_json, write_text

NA = "n/a"


@dataclass(frozen=True)
class ThresholdMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def _finite(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise MetricError(f"{bad} of {scores.size} scores are not finite")
    return scores


def threshold_metrics(scores: np.ndarray, labels: np.ndarray, tau: float) -> ThresholdMetrics:
    """Binary confusion metrics under the strict score > tau decision rule.

    ``labels`` are truthy for attacks.  Undefined ratios fall back to 0,
    so a detector that flags nothing reports precision = recall = f1 = 0.
    A non-finite score is an error.
    """
    scores = _finite(scores)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels must align")
    flagged = scores > tau
    tp = int(np.sum(flagged & labels))
    fp = int(np.sum(flagged & ~labels))
    fn = int(np.sum(~flagged & labels))
    tn = int(np.sum(~flagged & ~labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ThresholdMetrics(precision, recall, f1, tp, fp, fn, tn)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random attack outscores a random benign sample,
    ties counted half; equals the trapezoidal ROC area.  A non-finite
    score is an error: ranked, NaN would sort above every finite score."""
    scores = _finite(scores)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    ranks = _tie_averaged_ranks(scores)
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tie given its average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # rank of each distinct value's last copy
    return (ends - (counts - 1) / 2)[inverse]


def score_models(models: Sequence[tuple[str, object]], X: np.ndarray) -> list[np.ndarray]:
    """Each model's scores on ``X``, in order.

    Every detector object, listed or an ensemble's base, is scored once; an
    ensemble, the model with ``base_models``, scores its margin over its
    bases' score columns.
    """
    by_detector: dict[int, np.ndarray] = {}

    def detector_scores(detector) -> np.ndarray:
        if id(detector) not in by_detector:
            by_detector[id(detector)] = detector.score_batch(X)
        return by_detector[id(detector)]

    return [
        model.margin(np.column_stack([detector_scores(b) for b in model.base_models]))
        if hasattr(model, "base_models")
        else detector_scores(model)
        for _, model in models
    ]


def metrics_row(
    model_name: str, scores: np.ndarray, labels: np.ndarray, tau: float, scaled: bool
) -> dict:
    """One row of the metrics table: AUC and the thresholded metrics."""
    try:
        tm = threshold_metrics(scores, labels, tau)
        value = auc(scores, labels)
    except MetricError as exc:
        raise MetricError(f"{model_name}: {exc}") from None
    return {"model": model_name, "scaled": scaled, "auc": value,
            "precision": tm.precision, "recall": tm.recall, "f1": tm.f1}


def detection_matrix(
    models: Sequence[tuple[str, object]], scores: Sequence[np.ndarray], test: LabeledDataset
) -> list[dict]:
    """One row per model: its name, then for each ``ClassLabel`` in enum order
    the fraction of that class in ``test`` its ``scores`` flag.

    For attack classes the cell is that class's recall; for Normal it is
    the false-positive rate.  A class absent from ``test`` gets None.
    """
    label_arr = np.array([lab.value for lab in test.labels])
    masks = {lab.value: label_arr == lab.value for lab in ClassLabel}
    rows = []
    for (name, model), model_scores in zip(models, scores):
        flagged = model_scores > model.tau
        rows.append({"model": name} | {
            cls: float(flagged[mask].mean()) if mask.any() else None
            for cls, mask in masks.items()
        })
    return rows


def evasion_row(name: str, algorithm: str, scaled: bool, outcomes: Sequence) -> dict:
    """One row of the evasion table: the campaign ``outcomes`` of ``algorithm``
    against model ``name``; the rate is None when nothing was attempted."""
    attempted = len(outcomes)
    evaded = sum(1 for o in outcomes if o.evaded)
    return {"model": name, "algorithm": algorithm, "scaled": scaled,
            "evasion_rate": evaded / attempted if attempted else None,
            "n_attempted": attempted, "n_evaded": evaded}


# the header of an evasion table with no rows
EVASION_COLUMNS = tuple(evasion_row("", "", False, ()))

# every file the tables above are written to
REPORT_FILES = ("metrics.json", "metrics.csv", "evasion.json", "evasion.csv", "detection_matrix.csv")


def _cell(value):
    if value is None:
        return NA
    return round(float(value), 4) if isinstance(value, float) else value


def emit_report(
    name: str,
    rows: Sequence[dict],
    out_dir: str | Path,
    columns: Sequence[str] | None = None,
    csv_only: bool = False,
) -> None:
    """Write the report table ``name`` from ``rows`` as ``<name>.json`` and
    ``<name>.csv`` under ``out_dir``, or as the CSV alone when ``csv_only``.

    Rows are sorted by their cells from the left, so by the columns that
    name them (model, then algorithm and scaled); floats are rounded to 4
    decimals and None is written as "n/a".  The CSV header is ``columns``,
    else the first row's keys, so a table that may be empty names its
    ``columns``.
    """
    out_dir = make_dir(Path(out_dir))
    rows = [
        {key: _cell(value) for key, value in row.items()}
        for row in sorted(rows, key=lambda row: list(row.values()))
    ]
    if not csv_only:
        write_json(out_dir / f"{name}.json", rows, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]) if columns is None else columns)
    writer.writerows(row.values() for row in rows)
    write_text(out_dir / f"{name}.csv", buf.getvalue())
