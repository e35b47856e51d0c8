"""Evaluation harness: threshold metrics, AUC, per-class detection rates,
evasion-rate tables, and deterministic report emission."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ensemble import EnsembleModel
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


def threshold_metrics(scores: np.ndarray, labels: np.ndarray, tau: float) -> ThresholdMetrics:
    """Binary confusion metrics under the strict score > tau decision rule.

    ``labels`` are truthy for attacks.  Undefined ratios fall back to 0,
    so a detector that flags nothing reports precision = recall = f1 = 0.
    """
    scores = np.asarray(scores, dtype=float)
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
    ties counted half; equals the trapezoidal ROC area."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    ranks = _tie_averaged_ranks(scores)
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # 1-based average rank
        i = j + 1
    return ranks


def score_models(models: Sequence[tuple[str, object]], X: np.ndarray) -> list[np.ndarray]:
    """Each model's scores on ``X``, in order.

    Every detector object, listed or an ensemble's base, is scored once; an
    ensemble's score is its margin over its bases' score columns.
    """
    by_detector: dict[int, np.ndarray] = {}

    def detector_scores(detector) -> np.ndarray:
        if id(detector) not in by_detector:
            by_detector[id(detector)] = detector.score_batch(X)
        return by_detector[id(detector)]

    return [
        model.margin(np.column_stack([detector_scores(b) for b in model.base_models]))
        if isinstance(model, EnsembleModel)
        else detector_scores(model)
        for _, model in models
    ]


@dataclass(frozen=True)
class MetricsRow:
    model: str
    auc: float
    precision: float
    recall: float
    f1: float
    scaled: bool


def metrics_row(
    model_name: str, scores: np.ndarray, labels: np.ndarray, tau: float, scaled: bool
) -> MetricsRow:
    tm = threshold_metrics(scores, labels, tau)
    return MetricsRow(
        model=model_name,
        auc=auc(scores, labels),
        precision=tm.precision,
        recall=tm.recall,
        f1=tm.f1,
        scaled=scaled,
    )


@dataclass(frozen=True)
class DetectionMatrix:
    """Per-model, per-class flagged fraction.

    For attack classes the cell is that class's recall; for Normal it is
    the false-positive rate, i.e. the benign fraction raising alarms.
    Missing classes render as "n/a".
    """

    models: tuple[str, ...]
    classes: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]


def detection_matrix(
    models: Sequence[tuple[str, object]], scores: Sequence[np.ndarray], test: LabeledDataset
) -> DetectionMatrix:
    """Flagged fractions from each model's ``scores`` on ``test``, in order."""
    class_order = tuple(lab for lab in ClassLabel)
    label_arr = np.array([lab.value for lab in test.labels])
    rows = []
    for (_, model), model_scores in zip(models, scores):
        flagged = model_scores > model.tau
        cells = []
        for lab in class_order:
            mask = label_arr == lab.value
            cells.append(float(flagged[mask].mean()) if mask.any() else None)
        rows.append(tuple(cells))
    return DetectionMatrix(
        models=tuple(name for name, _ in models),
        classes=tuple(lab.value for lab in class_order),
        cells=tuple(rows),
    )


@dataclass(frozen=True)
class EvasionRow:
    model: str
    algorithm: str
    scaled: bool
    evasion_rate: float | None  # None when nothing was attempted
    n_attempted: int
    n_evaded: int


def evasion_table(
    groups: Sequence[tuple[str, str, bool, Sequence]],
) -> list[EvasionRow]:
    """Aggregate campaign outcomes into one row per
    (model, algorithm, scaled) group."""
    rows = []
    for model_name, algorithm, scaled, outcomes in groups:
        attempted = len(outcomes)
        evaded = sum(1 for o in outcomes if o.evaded)
        rows.append(
            EvasionRow(
                model=model_name,
                algorithm=algorithm,
                scaled=scaled,
                evasion_rate=(evaded / attempted) if attempted else None,
                n_attempted=attempted,
                n_evaded=evaded,
            )
        )
    return rows


def _round4(x: float | None):
    return NA if x is None else round(float(x), 4)


def emit_report(
    metrics: Sequence[MetricsRow] | None,
    matrix: DetectionMatrix | None,
    evasion: Sequence[EvasionRow] | None,
    out_dir: str | Path,
) -> None:
    """Write report files with deterministic ordering and 4-decimal floats.

    Emits ``metrics.{json,csv}``, ``detection_matrix.csv``, and
    ``evasion.{json,csv}`` under ``out_dir``; sections passed as None are
    skipped so callers can emit partial reports without clobbering others.
    """
    out_dir = make_dir(Path(out_dir))

    if metrics is not None:
        metric_dicts = [
            {
                "model": m.model,
                "scaled": m.scaled,
                "auc": _round4(m.auc),
                "precision": _round4(m.precision),
                "recall": _round4(m.recall),
                "f1": _round4(m.f1),
            }
            for m in sorted(metrics, key=lambda m: (m.model, m.scaled))
        ]
        write_json(out_dir / "metrics.json", metric_dicts, indent=2)
        write_text(out_dir / "metrics.csv", _csv_text(
            ["model", "scaled", "auc", "precision", "recall", "f1"], metric_dicts
        ))
    if evasion is not None:
        evasion_dicts = [
            {
                "model": e.model,
                "algorithm": e.algorithm,
                "scaled": e.scaled,
                "evasion_rate": _round4(e.evasion_rate),
                "n_attempted": e.n_attempted,
                "n_evaded": e.n_evaded,
            }
            for e in sorted(evasion, key=lambda e: (e.model, e.algorithm, e.scaled))
        ]
        write_json(out_dir / "evasion.json", evasion_dicts, indent=2)
        write_text(out_dir / "evasion.csv", _csv_text(
            ["model", "algorithm", "scaled", "evasion_rate", "n_attempted", "n_evaded"],
            evasion_dicts,
        ))
    if matrix is not None:
        lines = [",".join(["model"] + list(matrix.classes))]
        for name, cells in zip(matrix.models, matrix.cells):
            lines.append(",".join([name] + [str(_round4(c)) for c in cells]))
        write_text(out_dir / "detection_matrix.csv", "\n".join(lines) + "\n")


def _csv_text(fields: list[str], rows: list[dict]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in fields})
    return buf.getvalue()
