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
import hashlib
import itertools
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
    DetectorKind.FEATURE_BAGGING: {"train", "k", "members"},
}
_MEMBER_KEYS = {"features", "train_kdist", "train_lrd", "mean", "sd"}  # FeatureBagging's

# State arrays that several kinds of one run hold equal: the training rows
# (kNN, ABOD, LOF and FeatureBagging) and the sorted columns (COPOD and
# ECOD).  A container references each by the sha256 of its bytes, and
# ``save`` writes those bytes once, to ``<sha256>.<dtype>`` beside it.
SHARED_KEYS = frozenset({"train", "sorted"})

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
# Container tag; bumped whenever a detector's saved state changes layout.
DETECTOR_FORMAT = "pfcpbench-detector-v8"


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

    def to_json_dict(self) -> dict:
        return self._encode()[0]

    def _encode(self) -> tuple[dict, dict[str, bytes]]:
        """The container, and the bytes of each shared array it references
        by file name."""
        state, files = {}, {}
        for key, value in self.state.items():
            if key in SHARED_KEYS:
                dtype = _ARRAY_DTYPES[value.dtype.kind]
                raw = np.ascontiguousarray(value, dtype=dtype).tobytes()
                digest = hashlib.sha256(raw).hexdigest()
                files[_shared_name(digest, dtype)] = raw
                state[key] = {"__ndarray__": True, "dtype": dtype, "shape": list(value.shape),
                              "sha256": digest}
            else:
                state[key] = _to_jsonable(value)
        doc = {
            "format": DETECTOR_FORMAT,
            "kind": self.kind.value,
            "params": self.config.params,
            "contamination": self.config.contamination,
            "tau": self.tau,
            "d": self.d,
            "state": state,
        }
        return doc, files

    @staticmethod
    def from_json_dict(
        doc: dict,
        directory: Path | None = None,
        loaded: MutableMapping[Path, tuple] | None = None,
    ) -> "DetectorModel":
        """Rebuild a detector whose shared arrays sit in ``directory``.

        ``loaded`` maps the paths of files already read to (sha256, contents);
        a shared array not in it is read from disk and added.  A shared file
        that is missing or whose bytes do not hash to its name raises
        ``SchemaError``, as does a state whose keys are not its kind's.
        """
        if doc.get("format") != DETECTOR_FORMAT:
            raise SchemaError(f"not a {DETECTOR_FORMAT} container: {doc.get('format')!r}")
        loaded = {} if loaded is None else loaded
        with malformed("detector container"):
            if type(doc["d"]) is not int or doc["d"] < 1:
                raise ValueError(f"d must be a positive integer, got {doc['d']!r}")
            config = DetectorConfig(
                kind=DetectorKind.parse(doc["kind"]),
                params=doc["params"],
                contamination=doc["contamination"],
            )
            state = _from_jsonable(doc["state"], directory, loaded)
            expected = _STATE_KEYS[config.kind]
            if not isinstance(state, dict) or set(state) != expected:
                raise ValueError(f"{config.kind.value} state must hold exactly "
                                 f"{sorted(expected)}, got {sorted(state)}")
            if config.kind is DetectorKind.FEATURE_BAGGING and not all(
                isinstance(member, dict) and set(member) == _MEMBER_KEYS
                for member in state["members"]
            ):
                raise ValueError(f"each FeatureBagging member state must hold exactly "
                                 f"{sorted(_MEMBER_KEYS)}")
            return DetectorModel(config=config, state=state, tau=float(doc["tau"]), d=doc["d"])

    def save(self, path: str | Path) -> None:
        """Write the container to ``path`` and each shared array it
        references into the same directory, unless already there."""
        path = Path(path)
        doc, files = self._encode()
        for name, raw in files.items():
            target = path.parent / name
            try:
                if target.read_bytes() == raw:
                    continue  # written by another model of the run
            except OSError:
                pass
            write_bytes(target, raw)
        write_json(path, doc)


# Array payload dtype by numpy kind.  An inline payload holds ``data``, the
# base64 of the array's little-endian bytes; a shared one holds ``sha256``.
_ARRAY_DTYPES = {"f": "<f8", "i": "<i8", "b": "|b1"}
_SHA256 = re.compile("[0-9a-f]{64}")


def _shared_name(digest: str, dtype: str) -> str:
    """File name of a shared array: its sha256 and its dtype, such as ``.f8``."""
    return f"{digest}.{dtype[1:]}"


def is_shared_file(name: str) -> bool:
    """Whether ``name`` is a shared array's file name (``_shared_name``)."""
    digest, _, suffix = name.partition(".")
    return bool(_SHA256.fullmatch(digest)) and suffix in {dt[1:] for dt in _ARRAY_DTYPES.values()}


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


def _from_jsonable(obj, directory: Path | None = None, loaded: MutableMapping | None = None):
    if isinstance(obj, dict):
        if obj.get("__ndarray__"):
            return _array_from_payload(obj, directory, loaded)
        return {k: _from_jsonable(v, directory, loaded) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_jsonable(v, directory, loaded) for v in obj]
    return obj


def _array_from_payload(
    obj: dict, directory: Path | None, loaded: MutableMapping | None
) -> np.ndarray:
    """The read-only array an ``__ndarray__`` payload encodes."""
    dtype, shape = obj.get("dtype"), obj.get("shape")
    if dtype not in _ARRAY_DTYPES.values():
        raise SchemaError(
            f"array payload: dtype {dtype!r} is not one of {', '.join(_ARRAY_DTYPES.values())}"
        )
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise SchemaError(f"array payload: shape {shape!r} is not a list of non-negative ints")
    if "sha256" in obj:
        raw = _read_shared(obj["sha256"], dtype, directory, loaded)
    else:
        try:
            raw = base64.b64decode(obj.get("data"), validate=True)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"array payload: data is not base64: {exc}") from exc
    dtype = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise SchemaError(
            f"array payload: {len(raw)} bytes of data for shape {shape} of {dtype.str}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _read_shared(
    digest, dtype: str, directory: Path | None, loaded: MutableMapping | None
) -> bytes:
    """The bytes of the shared array file ``digest`` names in ``directory``,
    read once per ``loaded`` cache and checked against ``digest``."""
    if not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
        raise SchemaError(f"array payload: sha256 {digest!r} is not a hex digest")
    if directory is None:
        raise SchemaError(f"array payload: shared array {digest} read without its directory")
    path = Path(directory) / _shared_name(digest, dtype)
    if path not in loaded:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SchemaError(f"shared array {path.name} missing: {exc}") from exc
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise SchemaError(f"shared array {path} has sha256 {actual}, not the one it is named by")
        loaded[path] = (actual, raw)
    return loaded[path][1]


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
        if type(defaults[name]) is int and not (type(value) is int and value >= 1):
            raise FitError(f"{config.kind.value}: {name} must be an integer of at least 1, "
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
