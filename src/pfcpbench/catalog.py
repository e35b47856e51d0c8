"""The names a run config may give a model: the twelve detector kinds and the
four ensemble presets.

Declared apart from the code that fits and scores them, so that checking a
config loads no model code: ``detectors`` and ``ensemble`` import these
names back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError

DEFAULT_CONTAMINATION = 0.02


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
