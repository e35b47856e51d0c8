import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfcpbench.errors import MetricError
from pfcpbench.evaluate import (
    EVASION_COLUMNS,
    _tie_averaged_ranks,
    auc,
    detection_matrix,
    emit_report,
    evasion_row,
    metrics_row,
    threshold_metrics,
)
from pfcpbench.traffic import ClassLabel

from conftest import numeric_dataset


# --- threshold metrics ---------------------------------------------------------


def test_threshold_metrics_direct_formulas():
    # TP=8, FP=2, FN=0: precision 0.8, recall 1.0, f1 = 2*.8/1.8
    scores = np.array([1.0] * 10 + [0.0] * 8)
    labels = np.array([True] * 8 + [False] * 2 + [True] * 0 + [False] * 8)
    tm = threshold_metrics(scores, labels, 0.5)
    assert (tm.tp, tm.fp, tm.fn, tm.tn) == (8, 2, 0, 8)
    assert tm.precision == pytest.approx(0.8)
    assert tm.recall == pytest.approx(1.0)
    assert tm.f1 == pytest.approx(2 * 0.8 * 1.0 / 1.8)


def test_f1_harmonic_mean():
    # precision .5, recall 1 -> f1 = 2/3
    scores = np.array([1.0, 1.0, 0.0])
    labels = np.array([True, False, False])
    tm = threshold_metrics(scores, labels, 0.5)
    assert (tm.precision, tm.recall) == (0.5, 1.0)
    assert tm.f1 == pytest.approx(2 / 3)


def test_zero_division_conventions():
    scores = np.array([0.0, 0.0])
    labels = np.array([True, False])
    tm = threshold_metrics(scores, labels, 1.0)  # nothing flagged
    assert (tm.precision, tm.recall, tm.f1) == (0.0, 0.0, 0.0)


def test_extreme_thresholds():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=50)
    labels = rng.random(50) < 0.3
    low = threshold_metrics(scores, labels, -np.inf)
    assert low.recall == 1.0
    assert low.precision == pytest.approx(labels.mean())
    high = threshold_metrics(scores, labels, np.inf)
    assert (high.precision, high.recall) == (0.0, 0.0)


# --- AUC -------------------------------------------------------------------------


def test_auc_trivials():
    assert auc(np.array([1.0, 2.0, 3.0, 4.0]), np.array([False, False, True, True])) == 1.0
    assert auc(np.array([5.0, 5.0, 5.0, 5.0]), np.array([False, True, False, True])) == 0.5
    with pytest.raises(MetricError):
        auc(np.array([1.0, 2.0]), np.array([True, True]))



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_score_is_a_metric_error_not_a_detection(bad):
    # ranked, a NaN attack score sorted above every other and read as AUC 1.0
    scores = np.array([0.1, 0.2, 0.3, 5.0, bad])
    labels = np.array([False, False, False, True, True])
    with pytest.raises(MetricError, match="1 of 5 scores are not finite"):
        auc(scores, labels)
    with pytest.raises(MetricError, match="1 of 5 scores are not finite"):
        threshold_metrics(scores, labels, 1.0)
    with pytest.raises(MetricError, match="^LOF: 1 of 5 scores are not finite$"):
        metrics_row("LOF", scores, labels, 1.0, scaled=False)

def brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Trapezoidal area under the ROC curve from an explicit threshold sweep."""
    thresholds = np.concatenate(([np.inf], np.sort(np.unique(scores))[::-1], [-np.inf]))
    pos = labels.sum()
    neg = (~labels).sum()
    points = []
    for t in thresholds:
        flagged = scores >= t
        points.append(((flagged & ~labels).sum() / neg, (flagged & labels).sum() / pos))
    points.sort()
    xs, ys = (np.array(v) for v in zip(*points))
    # the trapezoid rule spelled out: np.trapezoid needs numpy >= 2.0
    return float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())


def test_auc_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-9)
    # tie-heavy: three values and both zeros, which tie with each other
    for _ in range(20):
        n = int(rng.integers(10, 80))
        scores = rng.choice([-1.0, -0.0, 0.0, 2.5], size=n)
        # each value's average rank: those below it, then the middle of its ties
        below, tied = (scores[:, None] > scores).sum(1), (scores[:, None] == scores).sum(1)
        assert _tie_averaged_ranks(scores).tolist() == (below + (tied + 1) / 2).tolist()
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-9)


def test_auc_example_from_sweep():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array([False, False, True, True])
    assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-9)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=30)
    labels = rng.random(30) < 0.5
    if labels.all() or not labels.any():
        return
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-9)
    assert auc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-9)


# --- detection matrix -------------------------------------------------------------


class _StubModel:
    def __init__(self, flag_everything: bool):
        self.flag = flag_everything
        self.tau = 0.0

    def score_batch(self, X):
        return np.full(X.shape[0], 1.0 if self.flag else -1.0)


def _mixed_test_dataset():
    X = np.arange(12.0)[:, None]
    labels = (
        [ClassLabel.NORMAL] * 6
        + [ClassLabel.FLOOD] * 3
        + [ClassLabel.DELETION] * 2
        + [ClassLabel.MODIFICATION] * 1
    )
    return numeric_dataset(X, labels=labels)


def test_detection_matrix_flag_all_and_none():
    test = _mixed_test_dataset()
    models = [("all", _StubModel(True)), ("none", _StubModel(False))]
    X = test.matrix
    rows = detection_matrix(models, [m.score_batch(X) for _, m in models], test)
    assert [row["model"] for row in rows] == ["all", "none"]
    assert list(rows[0]) == ["model"] + [lab.value for lab in ClassLabel]
    by_class = rows[0]
    assert by_class["normal"] == 1.0  # worst false-positive rate
    assert by_class["flood"] == 1.0
    assert by_class["restoration_teid"] is None  # class absent -> n/a
    assert all(c in (0.0, None) for name, c in rows[1].items() if name != "model")


def test_detection_matrix_micro_consistency(bench):
    # binary recall equals the attack-count-weighted mean of attack cells
    test = bench["test"]
    model = bench["detectors"][list(bench["detectors"])[0]]
    scores = model.score_batch(test.matrix)
    (cells,) = detection_matrix([("m", model)], [scores], test)
    y = np.array([lab is not ClassLabel.NORMAL for lab in test.labels])
    tm = threshold_metrics(scores, y, model.tau)
    weights = {}
    for lab in test.labels:
        if lab is not ClassLabel.NORMAL:
            weights[lab.value] = weights.get(lab.value, 0) + 1
    weighted = sum(cells[name] * count for name, count in weights.items())
    assert weighted / sum(weights.values()) == pytest.approx(tm.recall, abs=1e-12)


# --- evasion table ----------------------------------------------------------------


class _Outcome:
    def __init__(self, evaded):
        self.evaded = evaded


def test_evasion_table_rates():
    rows = [
        evasion_row("HBOS", "RS", False, [_Outcome(True)] * 25 + [_Outcome(False)] * 25),
        evasion_row("HBOS", "GA_DE", False, []),
    ]
    assert rows[0]["evasion_rate"] == pytest.approx(0.5)
    assert rows[0]["n_attempted"] == 50
    assert rows[0]["n_evaded"] == 25
    assert rows[1]["evasion_rate"] is None
    assert rows[1]["n_attempted"] == 0
    assert tuple(rows[0]) == EVASION_COLUMNS


def test_evasion_bounds():
    rng = np.random.default_rng(2)
    outcomes = [_Outcome(bool(rng.integers(2))) for _ in range(30)]
    row = evasion_row("m", "RS", True, outcomes)
    assert 0.0 <= row["evasion_rate"] <= 1.0


# --- report emission ---------------------------------------------------------------


def _evasion(algorithm, rate, attempted, evaded):
    return {"model": "HBOS", "algorithm": algorithm, "scaled": False,
            "evasion_rate": rate, "n_attempted": attempted, "n_evaded": evaded}


def _sample_report_inputs():
    metrics = [
        metrics_row(
            "HBOS",
            np.array([0.1, 0.2, 5.0, 6.0]),
            np.array([False, False, True, True]),
            1.0,
            scaled=False,
        )
    ]
    matrix = [{"model": "HBOS", "normal": 0.0163, "flood": 0.9964}]
    evasion = [_evasion("RS", 0.0, 55, 0), _evasion("GA_DE", 0.98371, 55, 54)]
    return metrics, matrix, evasion


def _emit_all(metrics, matrix, evasion, out_dir):
    emit_report("metrics", metrics, out_dir)
    emit_report("detection_matrix", matrix, out_dir, csv_only=True)
    emit_report("evasion", evasion, out_dir, columns=EVASION_COLUMNS)


def test_emit_report_formats_agree(tmp_path):
    metrics, matrix, evasion = _sample_report_inputs()
    _emit_all(metrics, matrix, evasion, tmp_path)
    loaded = json.loads((tmp_path / "metrics.json").read_text())
    csv_lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    header = csv_lines[0].split(",")
    values = dict(zip(header, csv_lines[1].split(",")))
    assert float(values["auc"]) == loaded[0]["auc"]
    assert float(values["f1"]) == loaded[0]["f1"]
    assert header == list(metrics[0])  # the row builder's column order
    ev = json.loads((tmp_path / "evasion.json").read_text())
    assert ev[0]["algorithm"] == "GA_DE"  # deterministic sort order
    assert ev[0]["evasion_rate"] == 0.9837  # four decimals
    assert not (tmp_path / "detection_matrix.json").exists()


def test_emit_report_deterministic(tmp_path):
    metrics, matrix, evasion = _sample_report_inputs()
    _emit_all(metrics, matrix, evasion, tmp_path / "a")
    _emit_all(metrics, matrix, evasion[::-1], tmp_path / "b")
    for name in ("metrics.json", "metrics.csv", "evasion.json", "evasion.csv", "detection_matrix.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_three_decimal_rendering(tmp_path):
    # a rate like 0.996 renders without trailing zeros after rounding
    metrics, matrix, _ = _sample_report_inputs()
    evasion = [_evasion("GA_DE", 0.996, 500, 498)]
    _emit_all(metrics, matrix, evasion, tmp_path)
    assert '"evasion_rate": 0.996' in (tmp_path / "evasion.json").read_text()
    matrix_text = (tmp_path / "detection_matrix.csv").read_text()
    assert "0.9964" in matrix_text


def test_emit_report_partial_sections(tmp_path):
    metrics, matrix, evasion = _sample_report_inputs()
    emit_report("metrics", metrics, tmp_path)
    assert (tmp_path / "metrics.json").exists()
    assert not (tmp_path / "evasion.json").exists()
    emit_report("evasion", evasion, tmp_path, columns=EVASION_COLUMNS)
    assert (tmp_path / "evasion.json").exists()


def test_emit_report_writes_none_as_na_in_both_formats(tmp_path):
    emit_report("evasion", [evasion_row("HBOS", "RS", True, [])], tmp_path)
    assert json.loads((tmp_path / "evasion.json").read_text())[0]["evasion_rate"] == "n/a"
    assert (tmp_path / "evasion.csv").read_text().splitlines()[1] == "HBOS,RS,True,n/a,0,0"
    emit_report("detection_matrix", [{"model": "m", "normal": 0.12345, "flood": None}],
                tmp_path, csv_only=True)
    assert (tmp_path / "detection_matrix.csv").read_text() == "model,normal,flood\nm,0.1235,n/a\n"


def test_emit_report_sorts_rows_by_their_cells_from_the_left(tmp_path):
    rows = [evasion_row(model, algorithm, scaled, [])
            for model in ("kNN", "HBOS") for algorithm in ("RS", "GA_ES")
            for scaled in (True, False)]
    emit_report("evasion", rows, tmp_path)
    ev = json.loads((tmp_path / "evasion.json").read_text())
    assert [(e["model"], e["algorithm"], e["scaled"]) for e in ev] == [
        ("HBOS", "GA_ES", False), ("HBOS", "GA_ES", True), ("HBOS", "RS", False),
        ("HBOS", "RS", True), ("kNN", "GA_ES", False), ("kNN", "GA_ES", True),
        ("kNN", "RS", False), ("kNN", "RS", True),
    ]
