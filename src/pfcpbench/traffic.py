"""Core traffic domain types.

A :class:`FeatureSchema` is the contract between extraction, detectors,
and attacks: an ordered list of per-field descriptors carrying kind
(categorical / numerical), protocol layer, an environment-dependence flag,
and a value domain.  A :class:`LabeledDataset` holds labeled packets as
one real matrix in schema order, categorical cells as their integer codes.

All types are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IoError, SchemaError

# Reserved categorical sentinel codes, deliberately outside [0, |domain|).
MISSING_CODE = -1
UNKNOWN_CODE = -2

# CSV convention: an empty cell is a missing value, and this cell a category
# outside the domain.  Neither can be a label of a categorical domain.
MISSING_MARKER = ""
UNKNOWN_MARKER = "__unknown__"

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


def read_container(path: str | Path) -> dict:
    """A saved schema, pipeline or model file's JSON object; ``IoError``
    when unreadable, ``SchemaError`` when no JSON object."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data)
    except ValueError as exc:
        raise SchemaError(f"{path}: not a JSON container: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: not a JSON container: top level is not an object")
    return doc


def make_dir(path: Path) -> Path:
    """``path``, created with its parents if missing; ``IoError`` when it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc
    return path


def read_text(path: str | Path) -> str:
    """The text of ``path``; ``IoError`` when it cannot be read or decoded."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; ``IoError`` when the file cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``; ``IoError`` when the file cannot be written."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(path: str | Path, doc, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` as JSON with sorted keys, as ``read_container`` reads it."""
    write_text(path, json.dumps(doc, indent=indent, sort_keys=True))


@contextmanager
def malformed(what: str):
    """Raise a missing key or wrongly typed value in a saved ``what`` as ``SchemaError``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed {what}: {type(exc).__name__} {exc}") from exc


@dataclass(frozen=True)
class CategoricalDomain:
    """Finite, sorted label set.  Codes are 0-based positions, which keeps
    encodings deterministic across runs and platforms."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not (isinstance(self.labels, (list, tuple))
                and all(isinstance(label, str) for label in self.labels)):
            raise SchemaError(f"categorical domain labels must be strings, got {self.labels!r}")
        ordered = tuple(sorted(self.labels))
        if not ordered:
            raise SchemaError("categorical domain needs at least one label")
        if len(set(ordered)) != len(ordered):
            raise SchemaError("categorical domain labels must be unique")
        if {MISSING_MARKER, UNKNOWN_MARKER} & set(ordered):
            raise SchemaError(f"labels {MISSING_MARKER!r} and {UNKNOWN_MARKER!r} are reserved")
        object.__setattr__(self, "labels", ordered)

    def code_of(self, label: str) -> int:
        if label == MISSING_MARKER:
            return MISSING_CODE
        try:
            return self.labels.index(label)
        except ValueError:
            return UNKNOWN_CODE

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NumericDomain:
    """Closed interval [lo, hi] of realizable values, learned from
    training data at schema-build time.  Attack feasibility clamps to it."""

    lo: float
    hi: float

    def __post_init__(self):
        if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                   for b in (self.lo, self.hi)):
            raise SchemaError(f"numeric domain bounds must be numbers: {self.lo!r}, {self.hi!r}")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SchemaError("numeric domain bounds must be finite")
        if self.lo > self.hi:
            raise SchemaError(f"numeric domain requires lo <= hi, got [{self.lo}, {self.hi}]")

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
        if not isinstance(self.name, str):
            raise SchemaError(f"feature name must be a string, got {self.name!r}")
        if not isinstance(self.environment_dependent, bool):
            raise SchemaError(f"{self.name}: environment_dependent must be true or false, "
                              f"got {self.environment_dependent!r}")
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

    Ordering is stable across save/load; positions in this order index
    the columns of every dataset matrix, and the feasible sets and
    marginals too.
    """

    features: tuple[FeatureDescriptor, ...]
    version: int = 1
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.version) is not int:
            raise SchemaError(f"schema version must be an integer, got {self.version!r}")
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

    @property
    def numerical_positions(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.kind == NUMERICAL)

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
        # each value reaches its constructor, which checks it, as the JSON holds it
        with malformed("feature schema"):
            unknown = sorted(set(doc) - {"version", "features"})
            if unknown:
                raise SchemaError(f"malformed feature schema: unknown keys {unknown}")
            feats = []
            for entry in doc["features"]:
                raw_domain = entry["domain"]
                domain_type = CategoricalDomain if "labels" in raw_domain else NumericDomain
                feats.append(FeatureDescriptor(**{**entry, "domain": domain_type(**raw_domain)}))
            return FeatureSchema(features=tuple(feats), version=doc["version"])

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @staticmethod
    def load(path: str | Path) -> "FeatureSchema":
        return FeatureSchema.from_json_dict(read_container(path))


class LabeledDataset:
    """Schema-conforming rows with class labels.

    Stored as one read-only float64 ``matrix`` whose columns are the schema
    positions, the representation every detector consumes.  A categorical
    cell holds its code as an exact small integer: codes index the
    descriptor's sorted domain, and ``MISSING_CODE`` / ``UNKNOWN_CODE`` mark
    absent and novel categories.  A missing numerical cell is NaN.
    """

    def __init__(self, schema: FeatureSchema, matrix: np.ndarray, labels: Sequence[ClassLabel]):
        matrix = np.array(matrix, dtype=np.float64, order="C").reshape(len(labels), len(schema))
        matrix.flags.writeable = False
        self.schema = schema
        self.matrix = matrix
        self.labels = tuple(labels)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def attacks(self) -> np.ndarray:
        """A read-only bool per row: true for each row not labeled ``NORMAL``."""
        mask = np.array([lab is not ClassLabel.NORMAL for lab in self.labels], dtype=bool)
        mask.flags.writeable = False
        return mask

    def subset(self, mask: np.ndarray) -> "LabeledDataset":
        mask = np.asarray(mask)
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return LabeledDataset(self.schema, self.matrix[idx], [self.labels[i] for i in idx])

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
        return LabeledDataset(schema, np.concatenate([p.matrix for p in parts]), labels)
