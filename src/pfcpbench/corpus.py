"""Dataset ingestion, split construction, and a synthetic PFCP-feature corpus.

The synthetic generator produces benign control-plane traffic plus the five
attack classes, each satisfying its compliance predicates by construction
(out-of-pool TEIDs for restoration abuse, message type 50 floods, type 54
deletions, type 52 modifications with forwarding disabled, and PDN-type-0
session faults).  Attack rows additionally shift the attacker-controllable
accounting fields (timing, volumes, lengths, TTL) outside the benign
envelope, which is what one-class detectors key on.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import GuidelineViolation, IoError, SchemaError
from .seeding import rng_for
from .traffic import (
    ATTACK_LABELS,
    CATEGORICAL,
    MISSING_CODE,
    MISSING_MARKER,
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    parse_label,
    write_json,
)

logger = logging.getLogger(__name__)

DEFAULT_LABEL_COLUMN = "Label"
UNKNOWN_MARKER = "__unknown__"


def default_schema() -> FeatureSchema:
    """Schema of the synthetic corpus: tshark-style dotted fields.

    Numeric domains are protocol-plausible ranges; the preprocessing
    pipeline re-learns tighter, training-observed domains for its output
    schema.
    """
    cat = lambda name, proto, env, labels: FeatureDescriptor(
        name, CATEGORICAL, proto, env, CategoricalDomain(tuple(labels))
    )
    num = lambda name, proto, env, lo, hi: FeatureDescriptor(
        name, "numerical", proto, env, NumericDomain(lo, hi)
    )
    features = (
        # Environment-dependent fields: dropped by the pipeline.
        cat("ip.src", "ip", True, ("10.45.0.2", "10.45.0.3", "10.45.0.4", "10.45.0.5")),
        cat("ip.dst", "ip", True, ("10.45.0.1", "10.45.0.10")),
        num("udp.srcport", "udp", True, 0, 65535),
        num("udp.dstport", "udp", True, 0, 65535),
        num("frame.time_epoch", "meta", True, 0.0, 4.0e9),
        # Non-control-plane layer: dropped by protocol filtering.
        num("tcp.flags", "tcp", False, 0, 255),
        # Control-plane fields.
        cat("ip.dsfield.dscp", "ip", False, ("0", "10", "46")),
        num("ip.ttl", "ip", False, 0, 255),
        num("ip.len", "ip", False, 0, 65535),
        num("udp.length", "udp", False, 0, 65535),
        cat("pfcp.msg_type", "pfcp", False, ("1", "2", "50", "51", "52", "53", "54", "55")),
        cat("pfcp.flags", "pfcp", False, ("32", "33", "36")),
        cat("pfcp.s", "pfcp", False, ("0", "1")),
        cat("pfcp.pdn_type", "pfcp", False, ("0", "1", "2")),
        cat("pfcp.apply_action.forw", "pfcp", False, ("0", "1")),
        num("pfcp.length", "pfcp", False, 0, 65535),
        num("pfcp.seqno", "pfcp", False, 0, 16777215),
        num("pfcp.seid", "pfcp", False, 0, 4294967295),
        num("pfcp.f_teid.teid", "pfcp", False, 0, 4294967295),
        num("pfcp.ie_len", "pfcp", False, 0, 65535),
        num("pfcp.duration_measurement", "pfcp", False, 0, 1.0e7),
        num("pfcp.recovery_time_stamp", "pfcp", False, 0, 4294967295),
        num("pfcp.volume_measurement.tovol", "pfcp", False, 0, 1.0e12),
        num("pfcp.volume_measurement.dlvol", "pfcp", False, 0, 1.0e12),
    )
    return FeatureSchema(features=features, version=1)


# Benign category frequencies.  The rare codes double as the protected
# fingerprints of the attack tools, so their rarity sets how much anomaly
# score an attacker cannot hide.
BENIGN_MSG_TYPE_PROBS = {
    "1": 0.340,
    "2": 0.330,
    "50": 0.0005,
    "51": 0.160,
    "52": 0.0010,
    "53": 0.100,
    "54": 0.0006,
    "55": 0.0679,
}
BENIGN_FLAGS_PROBS = {"32": 0.700, "33": 0.0009, "36": 0.2991}
BENIGN_S_PROBS = {"0": 0.62, "1": 0.38}
BENIGN_PDN_PROBS = {"0": 0.003, "1": 0.932, "2": 0.065}
BENIGN_FORW_PROBS = {"0": 0.03, "1": 0.97}
BENIGN_DSCP_PROBS = {"0": 0.75, "10": 0.15, "46": 0.10}

TEID_POOL_MAX = 65536  # 1024 * 4 * 16: upper bound of the legitimate pool

# Split sizes of the reference corpus (attack classes appear only in
# validation and test, never in training).
BENCHMARK_SPLIT_COUNTS = {
    "train": {ClassLabel.NORMAL: 21341},
    "validation": {
        ClassLabel.NORMAL: 4731,
        ClassLabel.RESTORATION_TEID: 13,
        ClassLabel.FLOOD: 1039,
        ClassLabel.DELETION: 7,
        ClassLabel.MODIFICATION: 16,
        ClassLabel.PDN0_FAULT: 10,
    },
    "test": {
        ClassLabel.NORMAL: 4732,
        ClassLabel.RESTORATION_TEID: 22,
        ClassLabel.FLOOD: 1026,
        ClassLabel.DELETION: 13,
        ClassLabel.MODIFICATION: 12,
        ClassLabel.PDN0_FAULT: 12,
    },
}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator."""

    n_benign: int
    seed: int = 42
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.n_benign < 0:
            raise SchemaError("sample counts must be >= 0")
        if self.noise_scale <= 0:
            raise SchemaError("noise_scale must be > 0")


def _choice(rng: np.random.Generator, probs: Mapping[str, float], n: int) -> np.ndarray:
    labels = sorted(probs)
    p = np.array([probs[k] for k in labels], dtype=float)
    return rng.choice(np.array(labels, dtype=object), size=n, p=p / p.sum())

def _truncnorm(rng, n, center, sd, lo, hi, scale=1.0, integer=False):
    vals = np.clip(rng.normal(center, sd * scale, size=n), lo, hi)
    return np.rint(vals) if integer else vals


def _assemble(
    schema: FeatureSchema, columns: Mapping[str, np.ndarray], labels: Sequence[ClassLabel]
) -> LabeledDataset:
    M = np.empty((len(labels), len(schema)))
    for j, f in enumerate(schema.features):
        col = columns.get(f.name)
        if col is None:
            M[:, j] = MISSING_CODE if f.kind == CATEGORICAL else np.nan
        elif f.kind == CATEGORICAL:
            lookup = {lab: i for i, lab in enumerate(f.domain.labels)}
            M[:, j] = [lookup[str(v)] for v in col]
        else:
            M[:, j] = col
    return LabeledDataset(schema, M, labels)


def synth_benign(cfg: SynthConfig, schema: FeatureSchema) -> LabeledDataset:
    """Benign PFCP-like vectors.

    Numerics are truncated normals (or uniforms over pools) whose spread
    scales with ``cfg.noise_scale``; lengths and volumes are internally
    correlated so that regression-based imputation has signal to exploit.
    """
    n = cfg.n_benign
    s = cfg.noise_scale
    rng = lambda name: rng_for(cfg.seed, "benign", name)
    pfcp_len = _truncnorm(rng("pfcp.length"), n, 92, 16, 48, 160, s)
    tovol = np.clip(np.exp(rng("tovol").normal(10.2, 0.55 * s, size=n)), 800, 600000)
    columns = {
        "ip.src": _choice(rng("ip.src"), {"10.45.0.2": 0.4, "10.45.0.3": 0.3, "10.45.0.4": 0.2, "10.45.0.5": 0.1}, n),
        "ip.dst": _choice(rng("ip.dst"), {"10.45.0.1": 0.9, "10.45.0.10": 0.1}, n),
        "udp.srcport": rng("udp.srcport").integers(32768, 61000, size=n).astype(float),
        "udp.dstport": np.full(n, 8805.0),
        "frame.time_epoch": rng("time").uniform(1.70e9, 1.70e9 + 3600, size=n),
        "ip.dsfield.dscp": _choice(rng("dscp"), BENIGN_DSCP_PROBS, n),
        "ip.ttl": _truncnorm(rng("ip.ttl"), n, 62, 1.8, 56, 68, s, integer=True),
        "ip.len": pfcp_len + 36 + rng("ip.len").normal(0, 2 * s, size=n),
        "udp.length": pfcp_len + 8,
        "pfcp.msg_type": _choice(rng("msg_type"), BENIGN_MSG_TYPE_PROBS, n),
        "pfcp.flags": _choice(rng("flags"), BENIGN_FLAGS_PROBS, n),
        "pfcp.s": _choice(rng("s"), BENIGN_S_PROBS, n),
        "pfcp.pdn_type": _choice(rng("pdn"), BENIGN_PDN_PROBS, n),
        "pfcp.apply_action.forw": _choice(rng("forw"), BENIGN_FORW_PROBS, n),
        "pfcp.length": pfcp_len,
        "pfcp.seqno": _truncnorm(rng("seqno"), n, 12000, 5000, 1, 30000, s, integer=True),
        "pfcp.seid": rng("seid").integers(1, 50001, size=n).astype(float),
        "pfcp.f_teid.teid": rng("teid").integers(1024, TEID_POOL_MAX + 1, size=n).astype(float),
        "pfcp.ie_len": _truncnorm(rng("ie_len"), n, 64, 11, 24, 120, s, integer=True),
        "pfcp.duration_measurement": _truncnorm(rng("duration"), n, 110, 55, 1, 600, s),
        "pfcp.recovery_time_stamp": _truncnorm(rng("recovery"), n, 3.9e9, 60, 3.9e9 - 240, 3.9e9 + 240, s),
        "pfcp.volume_measurement.tovol": tovol,
        "pfcp.volume_measurement.dlvol": tovol * rng("dlvol").uniform(0.45, 0.75, size=n),
    }
    return _assemble(schema, columns, [ClassLabel.NORMAL] * n)


def synth_attack(
    kind: ClassLabel, n: int, seed: int, schema: FeatureSchema, noise_scale: float = 1.0
) -> LabeledDataset:
    """Attack rows of one class, compliant with that class's predicates.

    Controllable accounting fields take tool-typical values outside the
    benign envelope (zero durations and volumes, low TTL, short crafted
    lengths, high sequence numbers); protected fields carry the class
    fingerprint.
    """
    if kind is ClassLabel.NORMAL:
        raise SchemaError("synth_attack requires an attack class")
    s = noise_scale
    rng = lambda name: rng_for(seed, "attack", kind.value, name)
    base_len = {
        ClassLabel.RESTORATION_TEID: 40,
        ClassLabel.FLOOD: 50,
        ClassLabel.DELETION: 54,  # deletion requests carry a short fixed IE set
        ClassLabel.MODIFICATION: 68,
        ClassLabel.PDN0_FAULT: 62,
    }[kind]
    pfcp_len = _truncnorm(rng("pfcp.length"), n, base_len, 1.5, base_len - 6, base_len + 6, s)
    columns = {
        # Spoofed endpoint data: drawn from the benign pools.
        "ip.src": _choice(rng("ip.src"), {"10.45.0.2": 0.5, "10.45.0.5": 0.5}, n),
        "ip.dst": _choice(rng("ip.dst"), {"10.45.0.1": 1.0}, n),
        "udp.srcport": rng("udp.srcport").integers(32768, 61000, size=n).astype(float),
        "udp.dstport": np.full(n, 8805.0),
        "frame.time_epoch": rng("time").uniform(1.70e9, 1.70e9 + 3600, size=n),
        "ip.dsfield.dscp": np.full(n, "0", dtype=object),
        "ip.ttl": _truncnorm(rng("ip.ttl"), n, 48, 1.0, 46, 50, s, integer=True),
        "ip.len": pfcp_len + 36 + rng("ip.len").normal(0, 2 * s, size=n),
        "udp.length": pfcp_len + 8,
        "pfcp.flags": np.full(n, "33", dtype=object),
        "pfcp.s": np.full(n, "1", dtype=object),
        "pfcp.pdn_type": np.full(n, "1", dtype=object),
        "pfcp.apply_action.forw": np.full(n, "1", dtype=object),
        "pfcp.length": pfcp_len,
        "pfcp.seqno": rng("seqno").integers(35000, 64001, size=n).astype(float),
        "pfcp.seid": rng("seid").integers(1, 50001, size=n).astype(float),
        "pfcp.f_teid.teid": rng("teid").integers(1024, TEID_POOL_MAX + 1, size=n).astype(float),
        "pfcp.ie_len": rng("ie_len").integers(8, 17, size=n).astype(float),
        "pfcp.duration_measurement": np.zeros(n),
        "pfcp.recovery_time_stamp": 3.9e9 - 5000 + rng("recovery").normal(0, 100 * s, size=n),
        "pfcp.volume_measurement.tovol": np.zeros(n),
        "pfcp.volume_measurement.dlvol": np.zeros(n),
    }
    if kind is ClassLabel.RESTORATION_TEID:
        columns["pfcp.msg_type"] = np.full(n, "1", dtype=object)
        columns["pfcp.f_teid.teid"] = rng("teid.out").integers(
            TEID_POOL_MAX + 4096, 16_000_000, size=n
        ).astype(float)
    elif kind is ClassLabel.FLOOD:
        columns["pfcp.msg_type"] = np.full(n, "50", dtype=object)
    elif kind is ClassLabel.DELETION:
        columns["pfcp.msg_type"] = np.full(n, "54", dtype=object)
    elif kind is ClassLabel.MODIFICATION:
        columns["pfcp.msg_type"] = np.full(n, "52", dtype=object)
        columns["pfcp.apply_action.forw"] = np.full(n, "0", dtype=object)
        columns["pfcp.flags"] = np.full(n, "36", dtype=object)
    elif kind is ClassLabel.PDN0_FAULT:
        columns["pfcp.msg_type"] = np.full(n, "51", dtype=object)
        columns["pfcp.pdn_type"] = np.full(n, "0", dtype=object)
    return _assemble(schema, columns, [kind] * n)


def synth_corpus(
    counts: Mapping[ClassLabel, int], seed: int, schema: FeatureSchema, noise_scale: float = 1.0
) -> LabeledDataset:
    """One dataset mixing benign rows and any requested attack classes."""
    parts = []
    cfg = SynthConfig(
        n_benign=counts.get(ClassLabel.NORMAL, 0), seed=seed, noise_scale=noise_scale
    )
    parts.append(synth_benign(cfg, schema))
    for kind in ATTACK_LABELS:
        n = counts.get(kind, 0)
        if n > 0:
            parts.append(synth_attack(kind, n, seed, schema, noise_scale))
    return LabeledDataset.concat(parts)


def synth_benchmark_splits(
    seed: int, schema: FeatureSchema | None = None, scale: float = 1.0, noise_scale: float = 1.0
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Train / validation / test splits at reference proportions.

    ``scale`` shrinks every class count proportionally (attack classes are
    floored at one row) for desk-scale runs.
    """
    if schema is None:
        schema = default_schema()

    def scaled(counts: Mapping[ClassLabel, int]) -> dict[ClassLabel, int]:
        return {
            k: (max(1, int(round(v * scale))) if v else 0) for k, v in counts.items()
        }

    out = []
    for split_name, counts in BENCHMARK_SPLIT_COUNTS.items():
        out.append(
            synth_corpus(scaled(counts), rng_for(seed, "split", split_name).integers(2**31), schema, noise_scale)
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    label_column: str | None = DEFAULT_LABEL_COLUMN,
) -> LabeledDataset:
    """Load a tshark-export style CSV against ``schema``.

    Empty cells are missing values.  Columns absent from the schema are
    ignored with a warning; schema features absent from the header load as
    all-missing.  Rows are labeled from ``label_column`` when present,
    Normal otherwise.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(text.splitlines())
    header = reader.fieldnames or []
    schema_names = set(schema.names)
    matched = [h for h in header if h in schema_names]
    if not matched:
        raise SchemaError(f"{path}: no header column matches the schema")
    extra = [h for h in header if h not in schema_names and h != label_column]
    if extra:
        logger.warning("%s: ignoring %d non-schema columns: %s", path, len(extra), extra)

    # a cell of a column absent from the header reads as empty
    parsers = [
        (f.name, f.domain.code_of if f.kind == CATEGORICAL else _parse_real)
        for f in schema.features
    ]
    rows: list[list[float]] = []
    labels: list[ClassLabel] = []
    for record in reader:
        rows.append([parse(record.get(name) or MISSING_MARKER) for name, parse in parsers])
        raw_label = (record.get(label_column) or "") if label_column else ""
        labels.append(parse_label(raw_label) if raw_label.strip() else ClassLabel.NORMAL)
    return LabeledDataset(schema, rows, labels)


def _parse_real(cell: str) -> float:
    """A numerical cell; an empty or unparsable one is missing (NaN)."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def save_csv(ds: LabeledDataset, path: str | Path, seed: int | None = None) -> None:
    """Write a dataset back to the ingest CSV format plus a JSON manifest."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(ds.schema.names) + [DEFAULT_LABEL_COLUMN])
            for values, label in zip(ds.matrix.tolist(), ds.labels):
                row = []
                for f, v in zip(ds.schema.features, values):
                    if f.kind != CATEGORICAL:
                        row.append(MISSING_MARKER if math.isnan(v) else repr(v))
                    elif v < 0:
                        row.append(MISSING_MARKER if v == MISSING_CODE else UNKNOWN_MARKER)
                    else:
                        row.append(f.domain.label_of(int(v)))
                row.append(label.value)
                writer.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    doc = {
        "rows": len(ds),
        "class_counts": {k.value: v for k, v in class_distribution(ds).items()},
        "schema_version": ds.schema.version,
    }
    if seed is not None:
        doc["seed"] = seed
    write_json(str(path) + ".manifest.json", doc, indent=2)


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitSource:
    path: str
    include: tuple[ClassLabel, ...] | None = None  # None admits every class
    label_column: str | None = DEFAULT_LABEL_COLUMN


@dataclass(frozen=True)
class SplitSpec:
    train_sources: tuple[SplitSource, ...]
    val_sources: tuple[SplitSource, ...]
    test_sources: tuple[SplitSource, ...]

    def __post_init__(self):
        for src in self.train_sources:
            if src.include is not None and tuple(src.include) != (ClassLabel.NORMAL,):
                raise GuidelineViolation(
                    "GT4", f"train source {src.path} admits non-benign labels"
                )


def _load_sources(sources: Sequence[SplitSource], schema: FeatureSchema) -> LabeledDataset:
    parts = []
    for src in sources:
        ds = load_csv(src.path, schema, label_column=src.label_column)
        if src.include is not None:
            keep = set(src.include)
            mask = np.array([lab in keep for lab in ds.labels], dtype=bool)
            ds = ds.subset(mask)
        parts.append(ds)
    if not parts:
        return LabeledDataset(schema, np.empty((0, len(schema))), [])
    return LabeledDataset.concat(parts)


def build_splits(
    spec: SplitSpec, schema: FeatureSchema
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Materialize train/validation/test from CSV sources.

    Training must be benign-only (anomaly-agnostic training); rows seen in
    an earlier split are dropped from later ones so the three splits stay
    pairwise disjoint by row content (the bytes of each matrix row).
    """
    train = _load_sources(spec.train_sources, schema)
    bad = [lab for lab in train.labels if lab is not ClassLabel.NORMAL]
    if bad:
        raise GuidelineViolation(
            "GT4", f"{len(bad)} attack rows routed to the training split"
        )
    validation = _load_sources(spec.val_sources, schema)
    test = _load_sources(spec.test_sources, schema)

    seen = {row.tobytes() for row in train.matrix}
    validation = _drop_seen(validation, seen, "validation")
    seen.update(row.tobytes() for row in validation.matrix)
    test = _drop_seen(test, seen, "test")

    if not any(lab is not ClassLabel.NORMAL for lab in validation.labels):
        logger.warning(
            "validation split is benign-only; ensemble training will fail downstream"
        )
    return train, validation, test


def _drop_seen(ds: LabeledDataset, seen: set, name: str) -> LabeledDataset:
    mask = np.array([row.tobytes() not in seen for row in ds.matrix], dtype=bool)
    dropped = int((~mask).sum())
    if dropped:
        logger.warning("%s split: dropped %d rows already present in earlier splits", name, dropped)
        return ds.subset(mask)
    return ds


def class_distribution(ds: LabeledDataset) -> dict[ClassLabel, int]:
    """Row count per class, zero-filled over the full enumeration."""
    counts = {label: 0 for label in ClassLabel}
    for lab in ds.labels:
        counts[lab] += 1
    assert sum(counts.values()) == len(ds)
    return counts
