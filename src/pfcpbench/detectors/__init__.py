"""One-class detector catalog with a uniform fit / score_batch surface.

Twelve detectors across three families share a single contract: ``fit``
learns from benign training data only and calibrates a threshold ``tau``,
and ``score_batch`` maps each row of a query matrix to a finite real
(higher = more anomalous).  A row is anomalous when its score is strictly
above ``tau``: ``score > tau``.  All detectors consume the preprocessed
numeric representation; categorical codes enter as ordinal reals.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import FitError, GridSearchError, GuidelineViolation, IoError, SchemaError
from ..seeding import rng_for
from ..traffic import ClassLabel, FeatureSchema, LabeledDataset, malformed
from . import bagging, density, geometric, statistical


class DetectorKind(Enum):
    HBOS = "HBOS"
    COPOD = "COPOD"
    ECOD = "ECOD"
    FEATURE_BAGGING = "FeatureBagging"
    KNN = "kNN"
    LOF = "LOF"
    IFOREST = "IForest"
    LODA = "LODA"
    INNE = "INNE"
    PCA = "PCA"
    ABOD = "ABOD"
    GMM = "GMM"

    @staticmethod
    def parse(name: str) -> "DetectorKind":
        for kind in DetectorKind:
            if kind.value.lower() == name.strip().lower():
                return kind
        raise SchemaError(f"unknown detector kind {name!r}")


# kind -> (fit, score, default params, minimum training rows as fn(params))
_REGISTRY = {
    DetectorKind.HBOS: (statistical.fit_hbos, statistical.score_hbos, {"bins": 10}, lambda p: 1),
    DetectorKind.COPOD: (statistical.fit_copod, statistical.score_copod, {}, lambda p: 1),
    DetectorKind.ECOD: (statistical.fit_ecod, statistical.score_ecod, {}, lambda p: 1),
    DetectorKind.KNN: (
        density.fit_knn,
        density.score_knn,
        {"k": 5},
        lambda p: int(p["k"]) + 1,
    ),
    DetectorKind.LOF: (
        density.fit_lof,
        density.score_lof,
        {"k": 20},
        lambda p: int(p["k"]) + 1,
    ),
    DetectorKind.IFOREST: (
        density.fit_iforest,
        density.score_iforest,
        {"trees": 100, "subsample": 256},
        lambda p: 2,
    ),
    DetectorKind.LODA: (
        density.fit_loda,
        density.score_loda,
        {"projections": 100, "bins": 10},
        lambda p: 1,
    ),
    DetectorKind.INNE: (
        density.fit_inne,
        density.score_inne,
        {"members": 200, "sample_size": 8},
        lambda p: 2,
    ),
    DetectorKind.PCA: (
        geometric.fit_pca,
        geometric.score_pca,
        {"variance_fraction": 0.95},
        lambda p: 2,
    ),
    DetectorKind.ABOD: (
        geometric.fit_abod,
        geometric.score_abod,
        {"k": 10},
        lambda p: int(p["k"]) + 1,
    ),
    DetectorKind.GMM: (
        geometric.fit_gmm,
        geometric.score_gmm,
        {"components": 4},
        lambda p: int(p["components"]),
    ),
    DetectorKind.FEATURE_BAGGING: (
        bagging.fit_feature_bagging,
        bagging.score_feature_bagging,
        {"bag_count": 10, "k": 20, "subset_range": None},
        lambda p: int(p["k"]) + 1,
    ),
}

DEFAULT_CONTAMINATION = 0.02
# Container tag; bumped whenever a detector's saved state changes layout.
DETECTOR_FORMAT = "pfcpbench-detector-v4"


@dataclass(frozen=True)
class DetectorConfig:
    kind: DetectorKind
    params: dict = field(default_factory=dict)
    contamination: float = DEFAULT_CONTAMINATION

    def __post_init__(self):
        if not 0.0 < self.contamination < 0.5:
            raise SchemaError("contamination must lie in (0, 0.5)")
        defaults = _REGISTRY[self.kind][2]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise SchemaError(f"{self.kind.value}: unknown hyperparameters {sorted(unknown)}")
        merged = dict(defaults)
        merged.update(self.params)
        object.__setattr__(self, "params", merged)


@dataclass
class DetectorModel:
    """A fitted detector plus its calibrated decision threshold."""

    kind: DetectorKind
    config: DetectorConfig
    state: dict
    tau: float
    train_score_stats: tuple[float, float, float, float]  # min, max, mean, sd
    seed: int
    schema: FeatureSchema

    @property
    def d(self) -> int:
        return len(self.schema)

    def score_batch(self, Q: np.ndarray) -> np.ndarray:
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.d:
            raise SchemaError(
                f"{self.kind.value}: expected {self.d}-dimensional rows, got shape {Q.shape}"
            )
        return _REGISTRY[self.kind][1](self.state, Q)

    def to_json_dict(self) -> dict:
        return {
            "format": DETECTOR_FORMAT,
            "kind": self.kind.value,
            "params": self.config.params,
            "contamination": self.config.contamination,
            "tau": self.tau,
            "train_score_stats": list(self.train_score_stats),
            "seed": self.seed,
            "schema": self.schema.to_json_dict(),
            "state": _to_jsonable(self.state),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "DetectorModel":
        if doc.get("format") != DETECTOR_FORMAT:
            raise SchemaError(f"not a {DETECTOR_FORMAT} container: {doc.get('format')!r}")
        with malformed("detector container"):
            kind = DetectorKind.parse(doc["kind"])
            config = DetectorConfig(
                kind=kind, params=doc["params"], contamination=doc["contamination"]
            )
            return DetectorModel(
                kind=kind,
                config=config,
                state=_from_jsonable(doc["state"]),
                tau=float(doc["tau"]),
                train_score_stats=tuple(doc["train_score_stats"]),
                seed=int(doc["seed"]),
                schema=FeatureSchema.from_json_dict(doc["schema"]),
            )

    def save(self, path: str | Path) -> None:
        try:
            Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True))
        except OSError as exc:
            raise IoError(f"cannot write detector model to {path}: {exc}") from exc


# Array payload dtype by numpy kind; ``data`` is the base64 of the array's
# little-endian bytes.
_ARRAY_DTYPES = {"f": "<f8", "i": "<i8", "b": "|b1"}


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        dtype = _ARRAY_DTYPES[obj.dtype.kind]
        return {
            "__ndarray__": True,
            "dtype": dtype,
            "shape": list(obj.shape),
            "data": base64.b64encode(np.ascontiguousarray(obj, dtype=dtype).tobytes()).decode(),
        }
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _from_jsonable(obj):
    if isinstance(obj, dict):
        if obj.get("__ndarray__"):
            return _array_from_payload(obj)
        return {k: _from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_jsonable(v) for v in obj]
    return obj


def _array_from_payload(obj: dict) -> np.ndarray:
    """The read-only array an ``__ndarray__`` payload encodes."""
    dtype, shape, data = obj.get("dtype"), obj.get("shape"), obj.get("data")
    if dtype not in _ARRAY_DTYPES.values():
        raise SchemaError(
            f"array payload: dtype {dtype!r} is not one of {', '.join(_ARRAY_DTYPES.values())}"
        )
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise SchemaError(f"array payload: shape {shape!r} is not a list of non-negative ints")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"array payload: data is not base64: {exc}") from exc
    dtype = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise SchemaError(
            f"array payload: {len(raw)} bytes of data for shape {shape} of {dtype.str}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def calibrate_threshold(train_scores: np.ndarray, contamination: float) -> float:
    """Threshold at the (1 - contamination) training-score quantile,
    linear-interpolation convention."""
    if not 0.0 < contamination < 0.5:
        raise SchemaError("contamination must lie in (0, 0.5)")
    return float(np.quantile(np.asarray(train_scores, dtype=float), 1.0 - contamination))


def fit(config: DetectorConfig, train: LabeledDataset, seed: int = 42) -> DetectorModel:
    """Fit one detector on benign training data and calibrate its threshold."""
    bad = sum(1 for lab in train.labels if lab is not ClassLabel.NORMAL)
    if bad:
        raise GuidelineViolation("GT4", f"{bad} attack rows in detector training data")
    fit_fn, _, _, min_rows = _REGISTRY[config.kind]
    if len(train) < min_rows(config.params):
        raise FitError(
            f"{config.kind.value} needs at least {min_rows(config.params)} training rows, "
            f"got {len(train)}"
        )
    X = train.matrix
    rng = rng_for(seed, "detector", config.kind.value)
    state = fit_fn(X, config.params, rng)
    model = DetectorModel(
        kind=config.kind,
        config=config,
        state=state,
        tau=0.0,
        train_score_stats=(0.0, 0.0, 0.0, 0.0),
        seed=seed,
        schema=train.schema,
    )
    train_scores = model.score_batch(X)
    if not np.all(np.isfinite(train_scores)):
        raise FitError(f"{config.kind.value}: non-finite training scores")
    model.tau = calibrate_threshold(train_scores, config.contamination)
    model.train_score_stats = (
        float(train_scores.min()),
        float(train_scores.max()),
        float(train_scores.mean()),
        float(train_scores.std()),
    )
    return model


def grid_search(
    kind: DetectorKind,
    grid: Mapping[str, Sequence],
    train: LabeledDataset,
    validation: LabeledDataset,
    contamination: float = DEFAULT_CONTAMINATION,
    seed: int = 42,
) -> tuple[DetectorConfig, list[dict]]:
    """Exhaustive search maximizing validation F1.

    Grid keys are the kind's hyperparameters; "contamination" may also be
    swept.  Returns the winning config and a per-candidate log.  Ties
    break toward the lexicographically smaller hyperparameter tuple
    (sorted name order).
    """
    from ..evaluate import threshold_metrics

    has_attack = any(lab is not ClassLabel.NORMAL for lab in validation.labels)
    has_benign = any(lab is ClassLabel.NORMAL for lab in validation.labels)
    if not (has_attack and has_benign):
        raise GridSearchError("labels required: validation must contain both classes")

    names = sorted(grid)
    candidates = [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]
    if not candidates:
        raise GridSearchError("empty hyperparameter grid")
    y = np.array([lab is not ClassLabel.NORMAL for lab in validation.labels], dtype=bool)
    V = validation.matrix

    log: list[dict] = []
    best: tuple[float, tuple, DetectorConfig] | None = None
    for point in candidates:
        params = {k: v for k, v in point.items() if k != "contamination"}
        config = DetectorConfig(
            kind=kind, params=params,
            contamination=point.get("contamination", contamination),
        )
        model = fit(config, train, seed=seed)
        metrics = threshold_metrics(model.score_batch(V), y, model.tau)
        key = tuple(point[n] for n in names)
        log.append({"params": point, "f1": metrics.f1})
        if best is None or metrics.f1 > best[0] or (metrics.f1 == best[0] and key < best[1]):
            best = (metrics.f1, key, config)
    return best[2], log
