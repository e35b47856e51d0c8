"""One-class detector catalog with a uniform fit / score_batch surface.

Twelve detectors across three families share a single contract: ``fit``
learns from benign training data only and calibrates a threshold ``tau``,
and ``score_batch`` maps each row of a query matrix to a finite real
(higher = more anomalous).  A row's score is the same, bit for bit,
whichever rows share its call: ``score_batch(Q)[i] ==
score_batch(Q[i:i+1])[0]``.  A row is anomalous when its score is strictly
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
from functools import cached_property
from pathlib import Path
from typing import AbstractSet, Callable, Mapping, MutableMapping

import numpy as np

from ..catalog import DEFAULT_CONTAMINATION, DetectorKind
from ..errors import FitError, GridSearchError, GuidelineViolation, SchemaError
from ..seeding import rng_for
from ..traffic import LabeledDataset, malformed, write_bytes, write_json
from . import bagging, density, geometric, statistical


@dataclass(frozen=True)
class _Kind:
    """Everything the catalog knows of one detector kind.  ``score`` rounds
    a row alike in any batch: its matrix products go through
    ``common.row_matmul``, and GMM sums in a fixed order with no product."""

    fit: Callable  # (X, params, rng) -> state
    score: Callable  # (state, Q) -> one score per row of Q
    defaults: dict  # every hyperparameter, with its default value
    state: AbstractSet[str]  # the keys of fit's state; a container must hold exactly these
    min_rows: Callable[[Mapping], int]  # least training rows, given the params


def _k_plus_one(params: Mapping) -> int:
    return int(params["k"]) + 1


_KINDS = {
    DetectorKind.HBOS: _Kind(statistical.fit_hbos, statistical.score_hbos, {"bins": 10},
                             {"lo", "hi", "heights"}, lambda p: 1),
    DetectorKind.COPOD: _Kind(statistical.fit_ecdf, statistical.score_copod, {},
                              {"sorted", "skew_sign"}, lambda p: 1),
    DetectorKind.ECOD: _Kind(statistical.fit_ecdf, statistical.score_ecod, {},
                             {"sorted", "skew_sign"}, lambda p: 1),
    DetectorKind.KNN: _Kind(density.fit_knn, density.score_knn, {"k": 5},
                            {"train", "k"}, _k_plus_one),
    DetectorKind.LOF: _Kind(density.fit_lof, density.score_lof, {"k": 20},
                            {"train", "k", "train_kdist", "train_lrd"}, _k_plus_one),
    DetectorKind.IFOREST: _Kind(
        density.fit_iforest, density.score_iforest, {"trees": 100, "subsample": 256},
        {"roots", "feature", "threshold", "right", "leaf_path", "depth", "psi"}, lambda p: 2
    ),
    DetectorKind.LODA: _Kind(density.fit_loda, density.score_loda, {"projections": 100, "bins": 10},
                             {"W", "lo", "hi", "masses"}, lambda p: 1),
    DetectorKind.INNE: _Kind(density.fit_inne, density.score_inne,
                             {"members": 200, "sample_size": 8},
                             {"centers", "radii", "nn_radii"}, lambda p: 2),
    DetectorKind.PCA: _Kind(geometric.fit_pca, geometric.score_pca, {"variance_fraction": 0.95},
                            {"mean", "components"}, lambda p: 2),
    DetectorKind.ABOD: _Kind(density.fit_knn, geometric.score_abod, {"k": 10},
                             {"train", "k"}, _k_plus_one),
    DetectorKind.GMM: _Kind(geometric.fit_gmm, geometric.score_gmm, {"components": 4},
                            {"means", "chols", "log_weights"}, lambda p: int(p["components"])),
    DetectorKind.FEATURE_BAGGING: _Kind(
        bagging.fit_feature_bagging, bagging.score_feature_bagging,
        {"bag_count": 10, "k": 20, "subset_range": None},
        {"train", "k", "features", "train_kdist", "train_lrd", "mean", "sd"}, _k_plus_one
    ),
}

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
        defaults = _KINDS[self.kind].defaults
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
        # C order: numpy sums an F-ordered row differently from a lone one
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.d:
            raise SchemaError(
                f"{self.kind.value}: expected {self.d}-dimensional rows, got shape {Q.shape}"
            )
        return _KINDS[self.kind].score(self.state, Q)

    def _container(self) -> tuple[dict, dict[str, bytes]]:
        """The container document, without its sha256, and its array files."""
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
        return doc, files

    @cached_property
    def digest(self) -> str:
        """The sha256 that ``save`` records, by which an ensemble names this base."""
        return _canonical_sha256(self._container()[0])

    def save(self, path: str | Path) -> None:
        """Write the container to ``path`` and its array files beside it."""
        write_container(path, *self._container())

    @staticmethod
    def from_json_dict(
        doc: dict, directory: Path, loaded: MutableMapping[Path, object]
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
            expected = _KINDS[config.kind].state
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


def decode_arrays(doc: Mapping, directory: Path, loaded: MutableMapping[Path, object]) -> dict:
    """``doc`` with each array reference replaced by its read-only array.

    ``loaded`` maps the paths of files already read to their bytes; a file
    not in it is read from ``directory`` and added.  A bad dtype or
    shape, a file that is missing or does not hash to its name, and one
    whose size does not fit the shape raise ``SchemaError``.
    """
    return {
        key: _read_array(value, directory, loaded)
        if isinstance(value, dict) and value.get("__ndarray__") else value
        for key, value in doc.items()
    }


def _read_array(ref: dict, directory: Path, loaded: MutableMapping[Path, object]) -> np.ndarray:
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
        loaded[path] = raw
    raw = loaded[path]
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
    linear-interpolation convention.  ``contamination`` lies in (0, 0.5), as
    ``DetectorConfig`` checks."""
    return float(np.quantile(np.asarray(train_scores, dtype=float), 1.0 - contamination))


def fit(config: DetectorConfig, train: LabeledDataset, seed: int = 42) -> DetectorModel:
    """Fit one detector on benign training data and calibrate its threshold."""
    bad = int(train.attacks.sum())
    if bad:
        raise GuidelineViolation("GT4", f"{bad} attack rows in detector training data")
    row = _KINDS[config.kind]
    d = len(train.schema)
    for name, value in config.params.items():
        least = _INT_MINIMUMS.get(name, 1)
        if type(row.defaults[name]) is int and not (type(value) is int and value >= least):
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
    least_rows = row.min_rows(config.params)
    if len(train) < least_rows:
        raise FitError(
            f"{config.kind.value} needs at least {least_rows} training rows, got {len(train)}"
        )
    X = train.matrix
    state = row.fit(X, config.params, rng_for(seed, "detector", config.kind.value))
    train_scores = row.score(state, X)  # what score_batch computes on X
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
    params: Mapping | None = None,
) -> tuple[DetectorModel, list[dict]]:
    """Exhaustive search maximizing validation F1.

    Grid keys are the kind's hyperparameters; "contamination" may also be
    swept, and each key's values are a non-empty list.  Each candidate fits
    ``params`` with the grid point's values over them.  Returns the fitted
    winning model and a per-candidate log.  Ties break toward the
    lexicographically smaller hyperparameter tuple (sorted name order).
    """
    from ..evaluate import threshold_metrics

    y = validation.attacks
    if not (y.any() and not y.all()):
        raise GridSearchError("labels required: validation must contain both classes")

    names = sorted(grid)
    for name in names:
        if not (isinstance(grid[name], list) and grid[name]):
            raise GridSearchError(
                f"{kind.value}: grid values of {name} must be a non-empty list, got {grid[name]!r}"
            )
    candidates = [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]
    V = validation.matrix

    log: list[dict] = []
    best: tuple[float, tuple, DetectorModel] | None = None  # only the best model is kept
    for point in candidates:
        config = DetectorConfig(
            kind=kind,
            params={**(params or {}), **{k: v for k, v in point.items() if k != "contamination"}},
            contamination=point.get("contamination", contamination),
        )
        model = fit(config, train, seed=seed)
        metrics = threshold_metrics(model.score_batch(V), y, model.tau)
        key = tuple(point[n] for n in names)
        log.append({"params": point, "f1": metrics.f1})
        if best is None or metrics.f1 > best[0] or (metrics.f1 == best[0] and key < best[1]):
            best = (metrics.f1, key, model)
    return best[2], log
