"""Score-stacking ensembles.

Base-detector scores on the validation split are z-normalized and fed to a
binary RBF-kernel classifier trained with hinge loss.  The solver is a
dual coordinate-ascent loop with a fixed pass budget, so fits are
bit-reproducible without any external optimizer.  Base detector
parameters stay frozen; only the stacker is trained on validation, which
is the one split carrying both classes.

An ensemble container holds the stacker state only.  It lists each base by
kind and by the sha256 that the base's own container, ``<kind>.json`` in
the same directory, records; loading checks that the base there has it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, MutableMapping, Sequence

import numpy as np

from .catalog import PRESETS, DetectorKind, EnsembleSpec  # PRESETS: read as ensemble.PRESETS too
from .detectors import (
    DetectorModel, check_container_digest, decode_arrays, encode_arrays, write_container,
)
from .detectors.common import row_matmul, sq_distances
from .errors import FitError, IoError, SchemaError
from .traffic import malformed

SOLVER_TOL = 1e-3
SOLVER_MAX_PASSES = 100
ENSEMBLE_FORMAT = "pfcpbench-ensemble-v7"


def _rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * sq_distances(A, B))


def _dual_coordinate_ascent(K: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Box-constrained dual of the no-intercept hinge-loss kernel machine.

    Sweeps coordinates in fixed order, keeping the decision values cached.
    Coordinates stuck at a bound with a conforming gradient are shrunk out
    of the sweep; a final full pass re-checks them before convergence is
    declared.  Stops when the largest step in a pass drops below tolerance.
    """
    n = len(y)
    alpha, y = [0.0] * n, y.tolist()  # Python floats: numpy's arithmetic, less overhead
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    diag = np.clip(np.diag(K), 1e-12, None).tolist()
    active = [True] * n
    columns = np.ascontiguousarray(K.T)  # columns[i] is K[:, i], read contiguously
    for sweep in range(SOLVER_MAX_PASSES):
        max_step = 0.0
        for i in [i for i in range(n) if active[i]]:
            gradient = y[i] * f.item(i) - 1.0
            if (alpha[i] == 0.0 and gradient > SOLVER_TOL) or (
                alpha[i] == C and gradient < -SOLVER_TOL
            ):
                active[i] = False
                continue
            new_alpha = min(max(alpha[i] - gradient / diag[i], 0.0), C)
            step = new_alpha - alpha[i]
            if step != 0.0:
                f += step * y[i] * columns[i]
                alpha[i] = new_alpha
                max_step = max(max_step, abs(step))
        if max_step < SOLVER_TOL:
            if all(active):
                break
            active = [True] * n  # optimality must hold on the full set
    return np.array(alpha)


@dataclass
class EnsembleModel:
    spec: EnsembleSpec
    base_models: list[DetectorModel]
    score_mean: np.ndarray
    score_sd: np.ndarray
    support_vectors: np.ndarray  # normalized base-score rows with alpha > 0
    dual_coef: np.ndarray  # alpha_i * y_i for the support rows
    # Decision threshold on the signed margin: the dual has no intercept, so
    # a row is anomalous when its margin is above 0.
    tau: ClassVar[float] = 0.0

    def margin(self, base_scores: np.ndarray) -> np.ndarray:
        Z = (base_scores - self.score_mean) / self.score_sd
        return row_matmul(_rbf(Z, self.support_vectors, self.spec.gamma), self.dual_coef)

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        base = np.column_stack([m.score_batch(X) for m in self.base_models])
        return self.margin(base)

    def save(self, path: str | Path) -> None:
        """Write the stacker state, naming each base by its ``digest``; the
        bases are saved on their own, as ``<kind>.json`` beside ``path``."""
        doc, files = encode_arrays({
            "format": ENSEMBLE_FORMAT,
            "name": self.spec.name,
            "C": self.spec.C,
            "gamma": self.spec.gamma,
            "score_mean": self.score_mean,
            "score_sd": self.score_sd,
            "support_vectors": self.support_vectors,
            "dual_coef": self.dual_coef,
            "bases": [{"kind": base.kind.value, "sha256": base.digest} for base in self.base_models],
        })
        write_container(path, doc, files)

    @staticmethod
    def from_json_dict(
        doc: dict,
        directory: Path,
        loaded: MutableMapping[Path, object],
        load: Callable[[Path], object],
    ) -> "EnsembleModel":
        """Rebuild an ensemble whose bases sit in ``directory`` as ``<kind>.json``.

        ``load`` returns the model at a path through the cache ``loaded``,
        which also maps array files to their bytes.  A base that is missing
        or has another sha256 than the recorded one raises ``SchemaError``,
        as does a container that no longer hashes to its own recorded
        sha256.
        """
        if doc.get("format") != ENSEMBLE_FORMAT:
            raise SchemaError(f"not a {ENSEMBLE_FORMAT} container: {doc.get('format')!r}")
        with malformed("ensemble container"):
            kinds = tuple(DetectorKind.parse(entry["kind"]) for entry in doc["bases"])
            spec = EnsembleSpec(
                name=doc["name"], base_kinds=kinds, C=float(doc["C"]), gamma=float(doc["gamma"])
            )
            check_container_digest(doc, f"ensemble {spec.name} container")
            bases = []
            for kind, entry in zip(kinds, doc["bases"]):
                path = Path(directory) / f"{kind.value}.json"
                try:
                    base = load(path)
                except IoError as exc:
                    raise SchemaError(f"ensemble {spec.name}: base {path.name} missing: {exc}") from exc
                if base.digest != entry["sha256"]:
                    raise SchemaError(
                        f"ensemble {spec.name}: base {path} has sha256 {base.digest}, "
                        f"the ensemble was saved with {entry['sha256']}"
                    )
                bases.append(base)
            arrays = decode_arrays(doc, directory, loaded)
            return EnsembleModel(
                spec=spec,
                base_models=bases,
                score_mean=arrays["score_mean"],
                score_sd=arrays["score_sd"],
                support_vectors=arrays["support_vectors"],
                dual_coef=arrays["dual_coef"],
            )


def fit_ensemble(
    spec: EnsembleSpec,
    base_models: Sequence[DetectorModel],
    base_scores: np.ndarray,
    attacks: np.ndarray,
) -> EnsembleModel:
    """Train the stacking classifier on validation base scores.

    ``base_scores`` holds one column per base in listed order, and
    ``attacks`` is true for its rows that are attacks.  Requires both
    classes: a hinge-loss binary classifier cannot be trained on one.
    """
    if len(base_models) != len(spec.base_kinds) or any(
        m.kind is not k for m, k in zip(base_models, spec.base_kinds)
    ):
        raise SchemaError("base models must match the spec kinds in order")
    S = np.asarray(base_scores, dtype=float)
    attacks = np.asarray(attacks, dtype=bool)
    if S.shape != (len(attacks), len(base_models)):
        raise SchemaError(
            f"base scores have shape {S.shape}, expected {(len(attacks), len(base_models))}"
        )
    if not attacks.any() or attacks.all():
        raise FitError(
            "ensemble stacking needs both benign and attack rows in validation"
        )
    mean = S.mean(axis=0)
    sd = np.maximum(S.std(axis=0), 1e-12)
    Z = (S - mean) / sd
    y = np.where(attacks, 1.0, -1.0)
    K = _rbf(Z, Z, spec.gamma)
    alpha = _dual_coordinate_ascent(K, y, spec.C)
    support = alpha > 0
    return EnsembleModel(
        spec=spec,
        base_models=list(base_models),
        score_mean=mean,
        score_sd=sd,
        support_vectors=Z[support],
        dual_coef=(alpha * y)[support],
    )
