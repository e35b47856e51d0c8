"""One-class detector catalog with a uniform fit / score_batch surface.

Twelve detectors across three families share a single contract: ``fit``
learns from benign training data only and calibrates a threshold ``tau``,
and ``score_batch`` maps each row of a query matrix to a finite real
(higher = more anomalous).  A row is anomalous when its score is strictly
above ``tau``: ``score > tau``.  All detectors consume the preprocessed
numeric representation; categorical codes enter as ordinal reals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, MutableMapping

import numpy as np

from ..errors import FitError, GridSearchError, GuidelineViolation, SchemaError
from ..seeding import rng_for
from ..traffic import ClassLabel, LabeledDataset, malformed, write_bytes, write_json
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
    DetectorKind.COPOD: (statistical.fit_ecdf, statistical.score_copod, {}, lambda p: 1),
    DetectorKind.ECOD: (statistical.fit_ecdf, statistical.score_ecod, {}, lambda p: 1),
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
        density.fit_knn,
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

# kind -> the keys of the state its fit function returns; a container must
# hold exactly these.
_STATE_KEYS = {
    DetectorKind.HBOS: {"lo", "hi", "heights"},
    DetectorKind.COPOD: {"sorted", "skew_sign"},
    DetectorKind.ECOD: {"sorted", "skew_sign"},
    DetectorKind.KNN: {"train", "k"},
    DetectorKind.LOF: {"train", "k", "train_kdist", "train_lrd"},
    DetectorKind.IFOREST: {"roots", "feature", "threshold", "right", "leaf_path", "depth", "psi"},
    DetectorKind.LODA: {"W", "lo", "hi", "masses"},
    DetectorKind.INNE: {"centers", "radii", "nn_radii"},
    DetectorKind.PCA: {"mean", "components"},
    DetectorKind.ABOD: {"train", "k"},
    DetectorKind.GMM: {"means", "chols", "log_weights"},
    DetectorKind.FEATURE_BAGGING: {"train", "k", "features", "train_kdist", "train_lrd", "mean",
                                   "sd"},
}

# Kinds whose score of a row does not depend on the other rows scored with
# it, bit for bit: ``score_batch(Q)[i] == score_batch(Q[i:i+1])[0]``.  An
# attack campaign scores each round's candidates in one call for these kinds
# only.  The others round differently with the shape of the batch: kNN, LOF,
# ABOD, FeatureBagging, PCA and LODA through their BLAS products, and every
# ensemble through its bases and stacker.  GMM's scoring sums in a fixed
# order; its EM solves are on the training side only.
ROW_INVARIANT_KINDS = frozenset({
    DetectorKind.HBOS, DetectorKind.COPOD, DetectorKind.ECOD, DetectorKind.IFOREST,
    DetectorKind.INNE, DetectorKind.GMM,
})

DEFAULT_CONTAMINATION = 0.02
# Integer hyperparameters whose least value is not 1: a one-row subsample
# has no spread for IForest's path norm or INNE's radii.
_INT_MINIMUMS = {"subsample": 2, "sample_size": 2}
# Container tag; bumped whenever a detector's saved state changes layout.
DETECTOR_FORMAT = "pfcpbench-detector-v9"


@dataclass(frozen=True)
class DetectorConfig:
    kind: DetectorKind
    params: dict = field(default_factory=dict)
    contamination: float = DEFAULT_CONTAMINATION

    def __post_init__(self):
        c = self.contamination
        if not (isinstance(c, (int, float)) and not isinstance(c, bool) and 0.0 < c < 0.5):
            raise SchemaError(f"contamination must be a number in (0, 0.5), got {c!r}")
        defaults = _REGISTRY[self.kind][2]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise SchemaError(f"{self.kind.value}: unknown hyperparameters {sorted(unknown)}")
        merged = dict(defaults)
        merged.update(self.params)
        object.__setattr__(self, "params", merged)


@dataclass
class DetectorModel:
    """A fitted detector: its state, calibrated decision threshold, and the
    width ``d`` of the rows it scores."""

    config: DetectorConfig
    state: dict
    tau: float
    d: int

    @property
    def kind(self) -> DetectorKind:
        return self.config.kind

    def score_batch(self, Q: np.ndarray) -> np.ndarray:
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.d:
            raise SchemaError(
                f"{self.kind.value}: expected {self.d}-dimensional rows, got shape {Q.shape}"
            )
        return _REGISTRY[self.kind][1](self.state, Q)

    def save(self, path: str | Path) -> None:
        """Write the container to ``path`` and its array files beside it."""
        state, files = encode_arrays(self.state)
        doc = {
            "format": DETECTOR_FORMAT,
            "kind": self.kind.value,
            "params": self.config.params,
            "contamination": self.config.contamination,
            "tau": self.tau,
            "d": self.d,
            "state": state,
        }
        write_container(path, doc, files)

    @staticmethod
    def from_json_dict(
        doc: dict, directory: Path, loaded: MutableMapping[Path, tuple]
    ) -> "DetectorModel":
        """Rebuild a detector whose array files sit in ``directory``.

        ``loaded`` is the cache ``decode_arrays`` reads array files through.
        A state whose keys are not its kind's, a bad array reference and a
        container that no longer hashes to its recorded sha256 raise
        ``SchemaError``.
        """
        if doc.get("format") != DETECTOR_FORMAT:
            raise SchemaError(f"not a {DETECTOR_FORMAT} container: {doc.get('format')!r}")
        with malformed("detector container"):
            if type(doc["d"]) is not int or doc["d"] < 1:
                raise ValueError(f"d must be a positive integer, got {doc['d']!r}")
            config = DetectorConfig(
                kind=DetectorKind.parse(doc["kind"]),
                params=doc["params"],
                contamination=doc["contamination"],
            )
            state = decode_arrays(doc["state"], directory, loaded)
            expected = _STATE_KEYS[config.kind]
            if set(state) != expected:
                raise ValueError(f"{config.kind.value} state must hold exactly "
                                 f"{sorted(expected)}, got {sorted(state)}")
            check_container_digest(doc, f"{config.kind.value} detector container")
            return DetectorModel(config=config, state=state, tau=float(doc["tau"]), d=doc["d"])


# Every ndarray of a saved state is a reference
# {"__ndarray__": true, "dtype", "shape", "sha256"} to its raw little-endian
# C-order bytes in the file ``<sha256>.<dtype>`` beside the container, such
# as ``.f8``, so equal arrays of a run are stored once.  Dtype by numpy kind:
_ARRAY_DTYPES = {"f": "<f8", "i": "<i8", "b": "|b1"}
_SHA256 = re.compile("[0-9a-f]{64}")


def _array_name(digest: str, dtype: str) -> str:
    return f"{digest}.{dtype[1:]}"


def is_array_file(name: str) -> bool:
    """Whether ``name`` is an array file's name (``<sha256>.<dtype>``)."""
    digest, _, suffix = name.partition(".")
    return bool(_SHA256.fullmatch(digest)) and suffix in {dt[1:] for dt in _ARRAY_DTYPES.values()}


def encode_arrays(values: Mapping) -> tuple[dict, dict[str, bytes]]:
    """``values`` with each ndarray replaced by its reference, and the bytes
    of each referenced file by file name."""
    doc, files = {}, {}
    for key, value in values.items():
        if isinstance(value, np.ndarray):
            dtype = _ARRAY_DTYPES[value.dtype.kind]
            raw = np.ascontiguousarray(value, dtype=dtype).tobytes()
            digest = hashlib.sha256(raw).hexdigest()
            files[_array_name(digest, dtype)] = raw
            value = {"__ndarray__": True, "dtype": dtype, "shape": list(value.shape),
                     "sha256": digest}
        doc[key] = value
    return doc, files


def decode_arrays(doc: Mapping, directory: Path, loaded: MutableMapping[Path, tuple]) -> dict:
    """``doc`` with each array reference replaced by its read-only array.

    ``loaded`` maps the paths of files already read to (sha256, contents); a
    file not in it is read from ``directory`` and added.  A bad dtype or
    shape, a file that is missing or does not hash to its name, and one
    whose size does not fit the shape raise ``SchemaError``.
    """
    return {
        key: _read_array(value, directory, loaded)
        if isinstance(value, dict) and value.get("__ndarray__") else value
        for key, value in doc.items()
    }


def _read_array(ref: dict, directory: Path, loaded: MutableMapping[Path, tuple]) -> np.ndarray:
    dtype, shape, digest = ref.get("dtype"), ref.get("shape"), ref.get("sha256")
    if dtype not in _ARRAY_DTYPES.values():
        raise SchemaError(
            f"array payload: dtype {dtype!r} is not one of {', '.join(_ARRAY_DTYPES.values())}"
        )
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise SchemaError(f"array payload: shape {shape!r} is not a list of non-negative ints")
    if not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
        raise SchemaError(f"array payload: sha256 {digest!r} is not a hex digest")
    path = Path(directory) / _array_name(digest, dtype)
    if path not in loaded:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SchemaError(f"array file {path.name} missing: {exc}") from exc
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise SchemaError(f"array file {path} has sha256 {actual}, not the one it is named by")
        loaded[path] = (actual, raw)
    raw = loaded[path][1]
    dtype = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise SchemaError(
            f"array payload: {len(raw)} bytes of data for shape {shape} of {dtype.str}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _canonical_sha256(doc: dict) -> str:
    """The sha256 of ``doc``'s JSON as ``write_json`` writes it."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def write_container(path: str | Path, doc: dict, files: Mapping[str, bytes]) -> None:
    """Write each array file of ``files`` beside ``path``, and then ``doc``
    to ``path`` with the sha256 of its own JSON, which
    ``check_container_digest`` checks."""
    path = Path(path)
    for name, raw in files.items():
        write_bytes(path.parent / name, raw)
    write_json(path, {**doc, "sha256": _canonical_sha256(doc)})


def check_container_digest(doc: dict, what: str) -> None:
    """Raise ``SchemaError`` unless ``doc`` without its ``sha256`` hashes to
    that ``sha256``, as ``write_container`` wrote it."""
    body = {key: value for key, value in doc.items() if key != "sha256"}
    if doc.get("sha256") != _canonical_sha256(body):
        raise SchemaError(f"{what} does not hash to its recorded sha256 {doc.get('sha256')!r}")


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
    fit_fn, score_fn, defaults, min_rows = _REGISTRY[config.kind]
    d = len(train.schema)
    for name, value in config.params.items():
        least = _INT_MINIMUMS.get(name, 1)
        if type(defaults[name]) is int and not (type(value) is int and value >= least):
            raise FitError(f"{config.kind.value}: {name} must be an integer of at least {least}, "
                           f"got {value!r}")
        if name == "variance_fraction" and not (type(value) in (int, float) and 0 < value <= 1):
            raise FitError(f"{config.kind.value}: {name} must lie in (0, 1], got {value!r}")
        if name == "subset_range" and value is not None and not (
            isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(v) is int for v in value) and 1 <= value[0] <= min(value[1], d)
        ):
            raise FitError(f"{config.kind.value}: {name} must be null or [lo, hi], integers "
                           f"with 1 <= lo <= hi and lo <= {d} features, got {value!r}")
    if len(train) < min_rows(config.params):
        raise FitError(
            f"{config.kind.value} needs at least {min_rows(config.params)} training rows, "
            f"got {len(train)}"
        )
    X = train.matrix
    state = fit_fn(X, config.params, rng_for(seed, "detector", config.kind.value))
    train_scores = score_fn(state, X)  # what score_batch computes on X
    if not np.all(np.isfinite(train_scores)):
        raise FitError(f"{config.kind.value}: non-finite training scores")
    return DetectorModel(
        config=config,
        state=state,
        tau=calibrate_threshold(train_scores, config.contamination),
        d=d,
    )


def grid_search(
    kind: DetectorKind,
    grid: Mapping[str, list],
    train: LabeledDataset,
    validation: LabeledDataset,
    contamination: float = DEFAULT_CONTAMINATION,
    seed: int = 42,
) -> tuple[DetectorModel, list[dict]]:
    """Exhaustive search maximizing validation F1.

    Grid keys are the kind's hyperparameters; "contamination" may also be
    swept, and each key's values are a non-empty list.  Returns the fitted
    winning model and a per-candidate log.  Ties break toward the
    lexicographically smaller hyperparameter tuple (sorted name order).
    """
    from ..evaluate import threshold_metrics

    has_attack = any(lab is not ClassLabel.NORMAL for lab in validation.labels)
    has_benign = any(lab is ClassLabel.NORMAL for lab in validation.labels)
    if not (has_attack and has_benign):
        raise GridSearchError("labels required: validation must contain both classes")

    names = sorted(grid)
    for name in names:
        if not (isinstance(grid[name], list) and grid[name]):
            raise GridSearchError(
                f"{kind.value}: grid values of {name} must be a non-empty list, got {grid[name]!r}"
            )
    candidates = [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]
    y = np.array([lab is not ClassLabel.NORMAL for lab in validation.labels], dtype=bool)
    V = validation.matrix

    log: list[dict] = []
    best: tuple[float, tuple, DetectorModel] | None = None  # only the best model is kept
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
            best = (metrics.f1, key, model)
    return best[2], log
