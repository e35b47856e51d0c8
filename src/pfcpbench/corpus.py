"""Dataset ingestion, split construction, and a synthetic PFCP-feature corpus.

One generator, ``synth_rows``, draws benign control-plane traffic and the
five attack classes.  Attack rows satisfy their class's compliance
predicates by construction (out-of-pool TEIDs for restoration abuse, message
type 50 floods, type 54 deletions, type 52 modifications with forwarding
disabled, and PDN-type-0 session faults), and shift the
attacker-controllable accounting fields (timing, volumes, lengths, TTL)
outside the benign envelope, which is what one-class detectors key on.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GuidelineViolation, IoError, SchemaError
from .seeding import rng_for
from .traffic import (
    CATEGORICAL,
    MISSING_CODE,
    MISSING_MARKER,
    UNKNOWN_CODE,
    UNKNOWN_MARKER,
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    parse_label,
    read_text,
    write_json,
)

logger = logging.getLogger(__name__)

DEFAULT_LABEL_COLUMN = "Label"

# Benign label frequencies of each categorical field, with the RNG stream
# that draws it; a table's labels are its field's domain in default_schema().
# The rare codes double as the protected fingerprints of the attack tools, so
# their rarity sets how much anomaly score an attacker cannot hide.
BENIGN_LABELS = {
    "ip.src": ("ip.src", {"10.45.0.2": 0.4, "10.45.0.3": 0.3, "10.45.0.4": 0.2, "10.45.0.5": 0.1}),
    "ip.dst": ("ip.dst", {"10.45.0.1": 0.9, "10.45.0.10": 0.1}),
    "ip.dsfield.dscp": ("dscp", {"0": 0.75, "10": 0.15, "46": 0.10}),
    "pfcp.msg_type": ("msg_type", {"1": 0.340, "2": 0.330, "50": 0.0005, "51": 0.160,
                                   "52": 0.0010, "53": 0.100, "54": 0.0006, "55": 0.0679}),
    "pfcp.flags": ("flags", {"32": 0.700, "33": 0.0009, "36": 0.2991}),
    "pfcp.s": ("s", {"0": 0.62, "1": 0.38}),
    "pfcp.pdn_type": ("pdn", {"0": 0.003, "1": 0.932, "2": 0.065}),
    "pfcp.apply_action.forw": ("forw", {"0": 0.03, "1": 0.97}),
}


def default_schema() -> FeatureSchema:
    """Schema of the synthetic corpus: tshark-style dotted fields.

    Numeric domains are protocol-plausible ranges; the preprocessing
    pipeline re-learns tighter, training-observed domains for its output
    schema.
    """
    cat = lambda name, proto, env: FeatureDescriptor(
        name, CATEGORICAL, proto, env, CategoricalDomain(tuple(BENIGN_LABELS[name][1]))
    )
    num = lambda name, proto, env, lo, hi: FeatureDescriptor(
        name, "numerical", proto, env, NumericDomain(lo, hi)
    )
    features = (
        # Environment-dependent fields: dropped by the pipeline.
        cat("ip.src", "ip", True),
        cat("ip.dst", "ip", True),
        num("udp.srcport", "udp", True, 0, 65535),
        num("udp.dstport", "udp", True, 0, 65535),
        num("frame.time_epoch", "meta", True, 0.0, 4.0e9),
        # Non-control-plane layer: dropped by protocol filtering.
        num("tcp.flags", "tcp", False, 0, 255),
        # Control-plane fields.
        cat("ip.dsfield.dscp", "ip", False),
        num("ip.ttl", "ip", False, 0, 255),
        num("ip.len", "ip", False, 0, 65535),
        num("udp.length", "udp", False, 0, 65535),
        cat("pfcp.msg_type", "pfcp", False),
        cat("pfcp.flags", "pfcp", False),
        cat("pfcp.s", "pfcp", False),
        cat("pfcp.pdn_type", "pfcp", False),
        cat("pfcp.apply_action.forw", "pfcp", False),
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


TEID_POOL_MAX = 65536  # 1024 * 4 * 16: upper bound of the legitimate pool
# A TEID's RNG stream and integer range: the legitimate pool, and the range
# restoration abuse draws from beyond it.
_IN_POOL = ("teid", 1024, TEID_POOL_MAX + 1)
_OUT_OF_POOL = ("teid.out", TEID_POOL_MAX + 4096, 16_000_000)

# Attack tools spoof their endpoints from the benign pools.
_SPOOFED_ENDPOINTS = {
    "ip.src": ("ip.src", {"10.45.0.2": 0.5, "10.45.0.5": 0.5}),
    "ip.dst": ("ip.dst", {"10.45.0.1": 1.0}),
}
# The codes every attack tool writes.
_TOOL_CODES = {"ip.dsfield.dscp": "0", "pfcp.flags": "33", "pfcp.s": "1", "pfcp.pdn_type": "1",
               "pfcp.apply_action.forw": "1"}


class _Tool(NamedTuple):
    length: int  # base PFCP length
    codes: dict[str, str]  # the class fingerprint, written over _TOOL_CODES
    teid: tuple[str, int, int] = _IN_POOL


_TOOLS = {
    ClassLabel.RESTORATION_TEID: _Tool(40, {"pfcp.msg_type": "1"}, _OUT_OF_POOL),
    ClassLabel.FLOOD: _Tool(50, {"pfcp.msg_type": "50"}),
    # deletion requests carry a short fixed IE set
    ClassLabel.DELETION: _Tool(54, {"pfcp.msg_type": "54"}),
    ClassLabel.MODIFICATION: _Tool(68, {"pfcp.msg_type": "52", "pfcp.apply_action.forw": "0",
                                        "pfcp.flags": "36"}),
    ClassLabel.PDN0_FAULT: _Tool(62, {"pfcp.msg_type": "51", "pfcp.pdn_type": "0"}),
}

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


def _choice(rng: np.random.Generator, probs: Mapping[str, float], n: int) -> np.ndarray:
    labels = sorted(probs)
    p = np.array([probs[k] for k in labels], dtype=float)
    return rng.choice(np.array(labels, dtype=object), size=n, p=p / p.sum())

def _truncnorm(rng, n, center, sd, lo, hi, scale=1.0, integer=False):
    vals = np.clip(rng.normal(center, sd * scale, size=n), lo, hi)
    return np.rint(vals) if integer else vals


def _session(rng, n, s, length, labels, teid=_IN_POOL) -> dict[str, np.ndarray]:
    """The columns both recipes draw alike: each categorical field of
    ``labels`` from its frequencies, then the endpoint, length, SEID and TEID
    columns, where ``length`` is the PFCP length's (center, sd, lo, hi)."""
    pfcp_len = _truncnorm(rng("pfcp.length"), n, *length, s)
    stream, lo, hi = teid
    return {
        **{name: _choice(rng(key), probs, n) for name, (key, probs) in labels.items()},
        "udp.srcport": rng("udp.srcport").integers(32768, 61000, size=n).astype(float),
        "udp.dstport": np.full(n, 8805.0),
        "frame.time_epoch": rng("time").uniform(1.70e9, 1.70e9 + 3600, size=n),
        "ip.len": pfcp_len + 36 + rng("ip.len").normal(0, 2 * s, size=n),
        "udp.length": pfcp_len + 8,
        "pfcp.length": pfcp_len,
        "pfcp.seid": rng("seid").integers(1, 50001, size=n).astype(float),
        "pfcp.f_teid.teid": rng(stream).integers(lo, hi, size=n).astype(float),
    }


def synth_rows(
    kind: ClassLabel, n: int, seed: int, schema: FeatureSchema, noise_scale: float = 1.0
) -> LabeledDataset:
    """``n`` synthetic rows of class ``kind``; each column draws from its own
    RNG stream, named by ``seed``, the class and the column.

    Benign numerics are truncated normals (or uniforms over pools) whose
    spread scales with ``noise_scale``; lengths and volumes are internally
    correlated so that regression-based imputation has signal to exploit.
    Attack rows carry their tool's class fingerprint in the protected
    fields, and tool-typical values outside the benign envelope in the
    controllable accounting fields (zero durations and volumes, low TTL,
    short crafted lengths, high sequence numbers).
    """
    s = noise_scale
    if kind is ClassLabel.NORMAL:
        rng = lambda name: rng_for(seed, "benign", name)
        tovol = np.clip(np.exp(rng("tovol").normal(10.2, 0.55 * s, size=n)), 800, 600000)
        columns = {
            **_session(rng, n, s, (92, 16, 48, 160), BENIGN_LABELS),
            "ip.ttl": _truncnorm(rng("ip.ttl"), n, 62, 1.8, 56, 68, s, integer=True),
            "pfcp.seqno": _truncnorm(rng("seqno"), n, 12000, 5000, 1, 30000, s, integer=True),
            "pfcp.ie_len": _truncnorm(rng("ie_len"), n, 64, 11, 24, 120, s, integer=True),
            "pfcp.duration_measurement": _truncnorm(rng("duration"), n, 110, 55, 1, 600, s),
            "pfcp.recovery_time_stamp": _truncnorm(
                rng("recovery"), n, 3.9e9, 60, 3.9e9 - 240, 3.9e9 + 240, s
            ),
            "pfcp.volume_measurement.tovol": tovol,
            "pfcp.volume_measurement.dlvol": tovol * rng("dlvol").uniform(0.45, 0.75, size=n),
        }
    else:
        tool = _TOOLS[kind]
        rng = lambda name: rng_for(seed, "attack", kind.value, name)
        length = (tool.length, 1.5, tool.length - 6, tool.length + 6)
        columns = {
            **_session(rng, n, s, length, _SPOOFED_ENDPOINTS, tool.teid),
            **{name: np.full(n, code, dtype=object)
               for name, code in {**_TOOL_CODES, **tool.codes}.items()},
            "ip.ttl": _truncnorm(rng("ip.ttl"), n, 48, 1.0, 46, 50, s, integer=True),
            "pfcp.seqno": rng("seqno").integers(35000, 64001, size=n).astype(float),
            "pfcp.ie_len": rng("ie_len").integers(8, 17, size=n).astype(float),
            "pfcp.duration_measurement": np.zeros(n),
            "pfcp.recovery_time_stamp": 3.9e9 - 5000 + rng("recovery").normal(0, 100 * s, size=n),
            "pfcp.volume_measurement.tovol": np.zeros(n),
            "pfcp.volume_measurement.dlvol": np.zeros(n),
        }
    M = np.empty((n, len(schema)))
    for j, f in enumerate(schema.features):
        col = columns.get(f.name)
        if col is None:
            M[:, j] = MISSING_CODE if f.kind == CATEGORICAL else np.nan
        elif f.kind == CATEGORICAL:
            lookup = {lab: i for i, lab in enumerate(f.domain.labels)}
            try:
                M[:, j] = [lookup[v] for v in col]
            except KeyError as exc:
                raise SchemaError(f"{f.name}: the schema's domain lacks the label "
                                  f"{exc.args[0]!r}, which the generator draws") from None
        else:
            M[:, j] = col
    return LabeledDataset(schema, M, [kind] * n)


def synth_benchmark_splits(
    seed: int, schema: FeatureSchema | None = None, scale: float = 1.0, noise_scale: float = 1.0
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Train / validation / test splits at reference proportions.

    ``scale`` shrinks every class count proportionally (attack classes are
    floored at one row) for desk-scale runs.
    """
    if schema is None:
        schema = default_schema()
    out = []
    for split_name, counts in BENCHMARK_SPLIT_COUNTS.items():
        split_seed = rng_for(seed, "split", split_name).integers(2**31)
        sizes = {kind: max(1, int(round(count * scale))) for kind, count in counts.items()}
        out.append(LabeledDataset.concat([
            synth_rows(kind, sizes[kind], split_seed, schema, noise_scale)
            for kind in ClassLabel if kind in sizes
        ]))
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    label_column: str | None = DEFAULT_LABEL_COLUMN,
) -> LabeledDataset:
    """Load a tshark-export style CSV against ``schema``.

    Empty cells are missing values, and so are the absent cells of a short
    row.  Columns absent from the schema are ignored with a warning; schema
    features absent from the header load as all-missing.  A header that
    names a column twice, or a row with more cells than the header, is a
    ``SchemaError``.  Rows are labeled from ``label_column`` when present,
    Normal otherwise.  A leading byte order mark, as spreadsheets write
    one, is not part of the first column's name.
    """
    path = Path(path)
    reader = csv.reader(read_text(path).removeprefix("\ufeff").splitlines())
    header = next(reader, [])
    repeats = sorted({h for h in header if header.count(h) > 1})
    if repeats:
        raise SchemaError(f"{path}: header names {repeats} more than once")
    schema_names = set(schema.names)
    matched = [h for h in header if h in schema_names]
    if not matched:
        raise SchemaError(f"{path}: no header column matches the schema")
    extra = [h for h in header if h not in schema_names and h != label_column]
    if extra:
        logger.warning("%s: ignoring %d non-schema columns: %s", path, len(extra), extra)

    # Each row is padded with empty cells to one past the header, and a
    # column absent from the header reads that last, empty cell.
    width = len(header)
    position = {name: i for i, name in enumerate(header)}
    parsers = [(position.get(f.name, width), _cell_parser(f)) for f in schema.features]
    label_at = position.get(label_column, width) if label_column else width
    labels_read: dict[str, ClassLabel] = {}  # each label cell's class, parsed once
    rows: list[list[float]] = []
    labels: list[ClassLabel] = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) > width:
            raise SchemaError(f"{path}: line {reader.line_num} has {len(cells)} cells, "
                              f"the header {width}")
        cells.extend([MISSING_MARKER] * (width + 1 - len(cells)))
        rows.append([parse(cells[at]) for at, parse in parsers])
        raw_label = cells[label_at]
        label = labels_read.get(raw_label)
        if label is None:
            label = labels_read[raw_label] = (
                parse_label(raw_label) if raw_label.strip() else ClassLabel.NORMAL
            )
        labels.append(label)
    return LabeledDataset(schema, rows, labels)


def _cell_parser(f: FeatureDescriptor) -> Callable[[str], float]:
    """The code or value of a cell of feature ``f``, as ``code_of`` and
    ``_parse_real`` give it: an empty cell is missing."""
    if f.kind != CATEGORICAL:
        return _parse_real
    codes = {label: code for code, label in enumerate(f.domain.labels)}
    codes[MISSING_MARKER] = MISSING_CODE
    return lambda cell: codes.get(cell, UNKNOWN_CODE)


# No IP, UDP or PFCP field is wider than 64 bits, and a larger magnitude
# overflows the detectors' squares and products.
MAX_CELL_MAGNITUDE = 2.0**64


def _parse_real(cell: str) -> float:
    """A numerical cell; an empty, unparsable or non-finite one is missing
    (NaN), and so is one whose magnitude exceeds ``MAX_CELL_MAGNITUDE``."""
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    # NaN and both infinities fail the comparison too
    return value if -MAX_CELL_MAGNITUDE <= value <= MAX_CELL_MAGNITUDE else math.nan


# Rows that save_csv formats at once: the strings of a block, not the
# floats of the whole split, are what it holds in memory.
SAVE_BLOCK_ROWS = 128


def _cell_format(f: FeatureDescriptor) -> Callable[[list[float]], list[str]]:
    """The cells of a column of feature ``f``: a number's ``repr``, a code's
    label, and an empty cell for a missing value; a categorical cell that is
    neither a code of the domain nor ``MISSING_CODE`` is ``UNKNOWN_MARKER``."""
    if f.kind != CATEGORICAL:
        return lambda column: [MISSING_MARKER if v != v else repr(v) for v in column]
    cells = {float(code): label for code, label in enumerate(f.domain.labels)}
    cells[float(MISSING_CODE)] = MISSING_MARKER
    return lambda column: [cells.get(v, UNKNOWN_MARKER) for v in column]


def save_csv(ds: LabeledDataset, path: str | Path, seed: int | None = None) -> None:
    """Write a dataset back to the ingest CSV format plus a JSON manifest."""
    path = Path(path)
    formats = [_cell_format(f) for f in ds.schema.features]
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(ds.schema.names) + [DEFAULT_LABEL_COLUMN])
            for start in range(0, len(ds), SAVE_BLOCK_ROWS):
                block = ds.matrix[start:start + SAVE_BLOCK_ROWS]
                columns = [fmt(column) for fmt, column in zip(formats, block.T.tolist())]
                columns.append([label.value for label in ds.labels[start:start + len(block)]])
                writer.writerows(zip(*columns))
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
    bad = int(train.attacks.sum())
    if bad:
        raise GuidelineViolation("GT4", f"{bad} attack rows routed to the training split")
    validation = _load_sources(spec.val_sources, schema)
    test = _load_sources(spec.test_sources, schema)

    seen = {row.tobytes() for row in train.matrix}
    validation = _drop_seen(validation, seen, "validation")
    seen.update(row.tobytes() for row in validation.matrix)
    test = _drop_seen(test, seen, "test")

    if not validation.attacks.any():
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
