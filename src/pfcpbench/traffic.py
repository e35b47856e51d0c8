"""Core traffic domain types.

A :class:`FeatureSchema` is the contract between extraction, detectors,
and attacks: an ordered list of per-field descriptors carrying kind
(categorical / numerical), protocol layer, an environment-dependence flag,
and a value domain.  A :class:`LabeledDataset` holds labeled packets as
one integer category-code matrix and one real matrix.

All types are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IoError, SchemaError

# Reserved categorical sentinel codes, deliberately outside [0, |domain|).
MISSING_CODE = -1
UNKNOWN_CODE = -2

# CSV convention: an empty cell is a missing value.
MISSING_MARKER = ""

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

# Layers seen at ingest.  Preprocessing prunes traffic down to the
# control-plane subset {ip, udp, pfcp, meta}.
PROTOCOLS = ("ip", "udp", "tcp", "icmp", "pfcp", "meta")
CONTROL_PLANE_PROTOCOLS = ("ip", "udp", "pfcp", "meta")


class ClassLabel(Enum):
    """Closed label enumeration; ``NORMAL`` is the only benign class."""

    NORMAL = "normal"
    RESTORATION_TEID = "restoration_teid"
    FLOOD = "flood"
    DELETION = "deletion"
    MODIFICATION = "modification"
    PDN0_FAULT = "pdn0_fault"


ATTACK_LABELS = tuple(label for label in ClassLabel if label is not ClassLabel.NORMAL)

# Case-insensitive aliases accepted when parsing label columns.
_LABEL_ALIASES = {
    "normal": ClassLabel.NORMAL,
    "benign": ClassLabel.NORMAL,
    "restoration_teid": ClassLabel.RESTORATION_TEID,
    "restorationteid": ClassLabel.RESTORATION_TEID,
    "pfcp restoration-teid": ClassLabel.RESTORATION_TEID,
    "flood": ClassLabel.FLOOD,
    "pfcp flood": ClassLabel.FLOOD,
    "deletion": ClassLabel.DELETION,
    "pfcp deletion": ClassLabel.DELETION,
    "modification": ClassLabel.MODIFICATION,
    "pfcp modification": ClassLabel.MODIFICATION,
    "pdn0_fault": ClassLabel.PDN0_FAULT,
    "pdn0": ClassLabel.PDN0_FAULT,
    "upf pdn-0 fault": ClassLabel.PDN0_FAULT,
}


def parse_label(raw: str) -> ClassLabel:
    key = raw.strip().lower()
    if key in _LABEL_ALIASES:
        return _LABEL_ALIASES[key]
    raise SchemaError(f"unknown class label {raw!r}")


@dataclass(frozen=True)
class CategoricalDomain:
    """Finite, sorted label set.  Codes are 0-based positions, which keeps
    encodings deterministic across runs and platforms."""

    labels: tuple[str, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.labels))
        if len(set(ordered)) != len(ordered):
            raise SchemaError("categorical domain labels must be unique")
        object.__setattr__(self, "labels", ordered)

    def code_of(self, label: str) -> int:
        if label == MISSING_MARKER:
            return MISSING_CODE
        try:
            return self.labels.index(label)
        except ValueError:
            return UNKNOWN_CODE

    def label_of(self, code: int) -> str:
        return self.labels[code]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NumericDomain:
    """Closed interval [lo, hi] of realizable values, learned from
    training data at schema-build time.  Attack feasibility clamps to it."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SchemaError("numeric domain bounds must be finite")
        if self.lo > self.hi:
            raise SchemaError(f"numeric domain requires lo <= hi, got [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        return math.isfinite(value) and self.lo <= value <= self.hi

    def clamp(self, value: float) -> float:
        return min(max(value, self.lo), self.hi)


@dataclass(frozen=True)
class FeatureDescriptor:
    """One tshark-style dotted field, e.g. ``pfcp.msg_type``."""

    name: str
    kind: str
    protocol: str
    environment_dependent: bool
    domain: CategoricalDomain | NumericDomain

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise SchemaError(f"{self.name}: kind must be categorical|numerical")
        if self.protocol not in PROTOCOLS:
            raise SchemaError(f"{self.name}: unknown protocol layer {self.protocol!r}")
        if self.kind == CATEGORICAL and not isinstance(self.domain, CategoricalDomain):
            raise SchemaError(f"{self.name}: categorical feature needs a categorical domain")
        if self.kind == NUMERICAL and not isinstance(self.domain, NumericDomain):
            raise SchemaError(f"{self.name}: numerical feature needs a numeric domain")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptors plus a version counter.

    Ordering is stable across save/load; positions in this order are the
    index space used by feasible sets and marginals.
    """

    features: tuple[FeatureDescriptor, ...]
    version: int = 1
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "_index", {f.name: i for i, f in enumerate(self.features)})

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown feature {name!r}") from None

    def descriptor(self, name: str) -> FeatureDescriptor:
        return self.features[self.position(name)]

    @property
    def categorical_positions(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.kind == CATEGORICAL)

    @property
    def numerical_positions(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.kind == NUMERICAL)

    @property
    def d1(self) -> int:
        return len(self.categorical_positions)

    @property
    def d2(self) -> int:
        return len(self.numerical_positions)

    def subset(self, keep_names: Sequence[str], version: int | None = None) -> "FeatureSchema":
        """Schema restricted to ``keep_names``, preserving original order."""
        keep = set(keep_names)
        unknown = keep - set(self.names)
        if unknown:
            raise SchemaError(f"unknown features {sorted(unknown)}")
        feats = tuple(f for f in self.features if f.name in keep)
        return FeatureSchema(features=feats, version=self.version if version is None else version)

    def to_json_dict(self) -> dict:
        feats = []
        for f in self.features:
            if f.kind == CATEGORICAL:
                domain = {"labels": list(f.domain.labels)}
            else:
                domain = {"lo": f.domain.lo, "hi": f.domain.hi}
            feats.append(
                {
                    "name": f.name,
                    "kind": f.kind,
                    "protocol": f.protocol,
                    "environment_dependent": f.environment_dependent,
                    "domain": domain,
                }
            )
        return {"version": self.version, "features": feats}

    @staticmethod
    def from_json_dict(doc: Mapping) -> "FeatureSchema":
        feats = []
        for entry in doc["features"]:
            raw_domain = entry["domain"]
            if "labels" in raw_domain:
                domain: CategoricalDomain | NumericDomain = CategoricalDomain(
                    tuple(raw_domain["labels"])
                )
            else:
                domain = NumericDomain(float(raw_domain["lo"]), float(raw_domain["hi"]))
            feats.append(
                FeatureDescriptor(
                    name=entry["name"],
                    kind=entry["kind"],
                    protocol=entry["protocol"],
                    environment_dependent=bool(entry["environment_dependent"]),
                    domain=domain,
                )
            )
        return FeatureSchema(features=tuple(feats), version=int(doc["version"]))

    def save(self, path: str | Path) -> None:
        try:
            Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
        except OSError as exc:
            raise IoError(f"cannot write schema to {path}: {exc}") from exc

    @staticmethod
    def load(path: str | Path) -> "FeatureSchema":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise IoError(f"cannot read schema from {path}: {exc}") from exc
        return FeatureSchema.from_json_dict(doc)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class LabeledDataset:
    """Schema-conforming rows with class labels.

    Stored as one integer code matrix (codes index each categorical
    descriptor's sorted domain; ``MISSING_CODE`` / ``UNKNOWN_CODE`` mark
    absent and novel categories) and one real matrix, for vectorized
    detector math.  ``row_ids`` carry content hashes used for split
    disjointness.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        categorical: np.ndarray,
        numerical: np.ndarray,
        labels: Sequence[ClassLabel],
        row_ids: np.ndarray | None = None,
    ):
        categorical = np.asarray(categorical, dtype=np.int64).reshape(len(labels), schema.d1)
        numerical = np.asarray(numerical, dtype=np.float64).reshape(len(labels), schema.d2)
        self.schema = schema
        self.categorical = _frozen(categorical.copy())
        self.numerical = _frozen(numerical.copy())
        self.labels = tuple(labels)
        if row_ids is None:
            row_ids = _content_row_ids(self.categorical, self.numerical)
        self.row_ids = _frozen(np.asarray(row_ids, dtype=np.uint64).copy())
        if len(self.row_ids) != len(self.labels):
            raise SchemaError("row_ids / labels length mismatch")

    def __len__(self) -> int:
        return len(self.labels)

    def to_matrix(self) -> np.ndarray:
        """Single real matrix in schema feature order.

        Categorical codes enter as ordinal reals; this is the representation
        every detector consumes.
        """
        n = len(self)
        out = np.empty((n, len(self.schema)), dtype=np.float64)
        for j, pos in enumerate(self.schema.categorical_positions):
            out[:, pos] = self.categorical[:, j]
        for j, pos in enumerate(self.schema.numerical_positions):
            out[:, pos] = self.numerical[:, j]
        return out

    def subset(self, mask: np.ndarray) -> "LabeledDataset":
        mask = np.asarray(mask)
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return LabeledDataset(
            self.schema,
            self.categorical[idx],
            self.numerical[idx],
            [self.labels[i] for i in idx],
            row_ids=self.row_ids[idx],
        )

    @staticmethod
    def concat(parts: Sequence["LabeledDataset"]) -> "LabeledDataset":
        if not parts:
            raise SchemaError("cannot concatenate zero datasets")
        schema = parts[0].schema
        for p in parts[1:]:
            if p.schema.names != schema.names:
                raise SchemaError("cannot concatenate datasets with different schemas")
        labels: list[ClassLabel] = []
        for p in parts:
            labels.extend(p.labels)
        return LabeledDataset(
            schema,
            np.concatenate([p.categorical for p in parts]),
            np.concatenate([p.numerical for p in parts]),
            labels,
            row_ids=np.concatenate([p.row_ids for p in parts]),
        )


def _content_row_ids(categorical: np.ndarray, numerical: np.ndarray) -> np.ndarray:
    """Per-row 64-bit content hashes (identity proxy for disjointness)."""
    import hashlib

    n = categorical.shape[0]
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        h = hashlib.blake2b(digest_size=8)
        h.update(categorical[i].tobytes())
        h.update(numerical[i].tobytes())
        out[i] = int.from_bytes(h.digest(), "big")
    return out
