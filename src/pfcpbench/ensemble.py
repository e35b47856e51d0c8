"""Score-stacking ensembles.

Base-detector scores on the validation split are z-normalized and fed to a
binary RBF-kernel classifier trained with hinge loss.  The solver is a
dual coordinate-ascent loop with a fixed pass budget, so fits are
bit-reproducible without any external optimizer.  Base detector
parameters stay frozen; only the stacker is trained on validation, which
is the one split carrying both classes.

An ensemble container holds the stacker state only.  It lists each base by
kind and by the sha256 of the base's own container, ``<kind>.json`` in the
same directory, and loading checks that hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import MutableMapping, Sequence

import numpy as np

from .detectors import DetectorKind, DetectorModel, _from_jsonable, _to_jsonable
from .errors import FitError, IoError, SchemaError
from .traffic import ClassLabel, LabeledDataset, malformed, read_container

SOLVER_TOL = 1e-3
SOLVER_MAX_PASSES = 100
ENSEMBLE_FORMAT = "pfcpbench-ensemble-v3"


@dataclass(frozen=True)
class EnsembleSpec:
    name: str
    base_kinds: tuple[DetectorKind, ...]
    C: float
    gamma: float

    def __post_init__(self):
        if not self.base_kinds:
            raise SchemaError("ensemble needs at least one base detector")
        if len(set(self.base_kinds)) != len(self.base_kinds):
            raise SchemaError("ensemble base kinds must be distinct")
        if self.C <= 0 or self.gamma <= 0:
            raise SchemaError("C and gamma must be positive")


PRESETS = {
    "HKAIP": EnsembleSpec(
        "HKAIP",
        (DetectorKind.HBOS, DetectorKind.KNN, DetectorKind.ABOD, DetectorKind.INNE, DetectorKind.PCA),
        C=10.0,
        gamma=10.0,
    ),
    "HKGIP": EnsembleSpec(
        "HKGIP",
        (DetectorKind.HBOS, DetectorKind.KNN, DetectorKind.GMM, DetectorKind.INNE, DetectorKind.PCA),
        C=10.0,
        gamma=10.0,
    ),
    "HKLIP": EnsembleSpec(
        "HKLIP",
        (DetectorKind.HBOS, DetectorKind.KNN, DetectorKind.LOF, DetectorKind.INNE, DetectorKind.PCA),
        C=10.0,
        gamma=10.0,
    ),
    "HKLIF": EnsembleSpec(
        "HKLIF",
        (
            DetectorKind.HBOS,
            DetectorKind.KNN,
            DetectorKind.LOF,
            DetectorKind.INNE,
            DetectorKind.FEATURE_BAGGING,
        ),
        C=100.0,
        gamma=100.0,
    ),
}


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _dual_coordinate_ascent(K: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Box-constrained dual of the no-intercept hinge-loss kernel machine.

    Sweeps coordinates in fixed order, keeping the decision values cached.
    Coordinates stuck at a bound with a conforming gradient are shrunk out
    of the sweep; a final full pass re-checks them before convergence is
    declared.  Stops when the largest step in a pass drops below tolerance.
    """
    n = len(y)
    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    diag = np.clip(np.diag(K), 1e-12, None)
    active = np.ones(n, dtype=bool)
    for sweep in range(SOLVER_MAX_PASSES):
        max_step = 0.0
        for i in np.flatnonzero(active):
            gradient = y[i] * f[i] - 1.0
            if (alpha[i] == 0.0 and gradient > SOLVER_TOL) or (
                alpha[i] == C and gradient < -SOLVER_TOL
            ):
                active[i] = False
                continue
            new_alpha = min(max(alpha[i] - gradient / diag[i], 0.0), C)
            step = new_alpha - alpha[i]
            if step != 0.0:
                f += step * y[i] * K[:, i]
                alpha[i] = new_alpha
                max_step = max(max_step, abs(step))
        if max_step < SOLVER_TOL:
            if active.all():
                break
            active[:] = True  # optimality must hold on the full set
    return alpha


@dataclass
class EnsembleModel:
    spec: EnsembleSpec
    base_models: list[DetectorModel]
    score_mean: np.ndarray
    score_sd: np.ndarray
    support_vectors: np.ndarray  # normalized base-score rows with alpha > 0
    dual_coef: np.ndarray  # alpha_i * y_i for the support rows
    bias: float = 0.0
    tau: float = 0.0  # decision threshold on the signed margin
    train_accuracy: float = field(default=0.0)

    def normalize(self, base_scores: np.ndarray) -> np.ndarray:
        return (base_scores - self.score_mean) / self.score_sd

    def margin(self, base_scores: np.ndarray) -> np.ndarray:
        Z = self.normalize(base_scores)
        return _rbf(Z, self.support_vectors, self.spec.gamma) @ self.dual_coef + self.bias

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        base = np.column_stack([m.score_batch(X) for m in self.base_models])
        return self.margin(base)

    def save(self, path: str | Path) -> None:
        """Write the stacker state.  The bases must already be saved next to
        ``path`` as ``<kind>.json``: the container records their sha256."""
        path = Path(path)
        bases = []
        for kind in self.spec.base_kinds:
            try:
                data = _base_path(path.parent, kind).read_bytes()
            except OSError as exc:
                raise IoError(f"cannot write ensemble model to {path}: base unreadable: {exc}") from exc
            bases.append({"kind": kind.value, "sha256": hashlib.sha256(data).hexdigest()})
        doc = {
            "format": ENSEMBLE_FORMAT,
            "name": self.spec.name,
            "C": self.spec.C,
            "gamma": self.spec.gamma,
            "score_mean": _to_jsonable(self.score_mean),
            "score_sd": _to_jsonable(self.score_sd),
            "support_vectors": _to_jsonable(self.support_vectors),
            "dual_coef": _to_jsonable(self.dual_coef),
            "bias": self.bias,
            "tau": self.tau,
            "train_accuracy": self.train_accuracy,
            "bases": bases,
        }
        try:
            path.write_text(json.dumps(doc, sort_keys=True))
        except OSError as exc:
            raise IoError(f"cannot write ensemble model to {path}: {exc}") from exc

    @staticmethod
    def from_json_dict(
        doc: dict,
        directory: Path,
        loaded: MutableMapping[Path, tuple[str, DetectorModel]],
    ) -> "EnsembleModel":
        """Rebuild an ensemble whose bases sit in ``directory``.

        ``loaded`` maps container paths to (sha256, detector) for detectors
        already read; a base not in it is read from disk and added.  A base
        that is missing or whose sha256 differs from the recorded one
        raises ``SchemaError``.
        """
        if doc.get("format") != ENSEMBLE_FORMAT:
            raise SchemaError(f"not a {ENSEMBLE_FORMAT} container: {doc.get('format')!r}")
        with malformed("ensemble container"):
            kinds = tuple(DetectorKind.parse(entry["kind"]) for entry in doc["bases"])
            spec = EnsembleSpec(
                name=doc["name"], base_kinds=kinds, C=float(doc["C"]), gamma=float(doc["gamma"])
            )
            bases = []
            for kind, entry in zip(kinds, doc["bases"]):
                path = _base_path(directory, kind)
                if path not in loaded:
                    try:
                        base_doc, digest = read_container(path)
                    except IoError as exc:
                        raise SchemaError(f"ensemble {spec.name}: base {path.name} missing: {exc}") from exc
                    loaded[path] = (digest, DetectorModel.from_json_dict(base_doc))
                digest, base = loaded[path]
                if digest != entry["sha256"]:
                    raise SchemaError(
                        f"ensemble {spec.name}: base {path} has sha256 {digest}, "
                        f"the ensemble was saved with {entry['sha256']}"
                    )
                bases.append(base)
            return EnsembleModel(
                spec=spec,
                base_models=bases,
                score_mean=_from_jsonable(doc["score_mean"]),
                score_sd=_from_jsonable(doc["score_sd"]),
                support_vectors=_from_jsonable(doc["support_vectors"]),
                dual_coef=_from_jsonable(doc["dual_coef"]),
                bias=float(doc["bias"]),
                tau=float(doc["tau"]),
                train_accuracy=float(doc["train_accuracy"]),
            )


def _base_path(directory: Path, kind: DetectorKind) -> Path:
    """Where an ensemble expects the container of its ``kind`` base."""
    return Path(directory) / f"{kind.value}.json"


def fit_ensemble(
    spec: EnsembleSpec,
    base_models: Sequence[DetectorModel],
    validation: LabeledDataset,
    base_scores: np.ndarray,
    seed: int = 42,
) -> EnsembleModel:
    """Train the stacking classifier on validation base scores.

    ``base_scores`` holds the bases' scores on ``validation``, one column
    per base in listed order.  Requires both classes in the validation
    split: a hinge-loss binary classifier cannot be trained on one class.
    """
    if len(base_models) != len(spec.base_kinds) or any(
        m.kind is not k for m, k in zip(base_models, spec.base_kinds)
    ):
        raise SchemaError("base models must match the spec kinds in order")
    S = np.asarray(base_scores, dtype=float)
    if S.shape != (len(validation), len(base_models)):
        raise SchemaError(
            f"base scores have shape {S.shape}, expected {(len(validation), len(base_models))}"
        )
    y_bool = np.array([lab is not ClassLabel.NORMAL for lab in validation.labels], dtype=bool)
    if not y_bool.any() or y_bool.all():
        raise FitError(
            "ensemble stacking needs both benign and attack rows in validation"
        )
    mean = S.mean(axis=0)
    sd = np.maximum(S.std(axis=0), 1e-12)
    Z = (S - mean) / sd
    y = np.where(y_bool, 1.0, -1.0)
    K = _rbf(Z, Z, spec.gamma)
    alpha = _dual_coordinate_ascent(K, y, spec.C)
    support = alpha > 0
    model = EnsembleModel(
        spec=spec,
        base_models=list(base_models),
        score_mean=mean,
        score_sd=sd,
        support_vectors=Z[support],
        dual_coef=(alpha * y)[support],
    )
    margins = model.margin(S)
    model.train_accuracy = float(((margins > 0) == y_bool).mean())
    return model
