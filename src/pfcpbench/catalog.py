"""What a run config may name and leave out: the twelve detector kinds, the
four ensemble presets, the three attack algorithms with the attack settings,
and the default patterns of environment-dependent fields.

Declared apart from the code that runs them, so that checking a config loads
no model, attack or preprocessing code: ``detectors``, ``ensemble``,
``attack`` and ``preprocess`` import these names back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, SchemaError

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


# Name patterns of environment-dependent fields: endpoint addresses and
# ports, IPv4-literal identifiers, absolute timestamps.  Extensible via
# config because the category, not an exhaustive field list, is what is
# prescribed.
DEFAULT_GT1_PATTERNS = (
    "ip.src*",
    "ip.dst*",
    "ip.host",
    "ip.addr",
    "*.srcport",
    "*.dstport",
    "frame.time*",
    "*.time_epoch",
    "*ipv4*",
    "*.imei",
)

RS = "RS"
GA_DE = "GA_DE"
GA_ES = "GA_ES"
ALGORITHMS = (RS, GA_DE, GA_ES)  # attack._OPTIMIZERS holds one optimizer for each


@dataclass(frozen=True)
class AttackConfig:
    algorithm: str = GA_DE
    popsize: int = 20
    budget: int = 100
    seed: int = 42
    rs_retries: int = 1  # single-draw random search by default

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown attack algorithm {self.algorithm!r}")
        if min(self.popsize, self.budget, self.rs_retries) < 1:
            raise ConfigError("popsize, budget, and rs_retries must be positive")
