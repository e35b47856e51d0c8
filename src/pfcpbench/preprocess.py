"""Security-aware preprocessing pipeline.

Fitting composes five steps on the benign training split and freezes all
learned state:

1. drop environment-dependent fields (addresses, ports, deployment
   identifiers, absolute timestamps),
2. restrict to control-plane traffic (rows and feature columns),
3. drop uninformative columns (constant, all-missing, exact duplicates),
4. impute missing values (categorical mode; numerical round-robin linear
   regression with median fallback),
5. robust-scale numerical features by median and interquartile range
   (optional, kept as an explicit toggle so both settings can be compared).

``transform`` then applies the frozen state to any split without ever
updating it.
"""

from __future__ import annotations

import fnmatch
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GuidelineViolation, PipelineError, SchemaError
from .traffic import (
    CATEGORICAL,
    CONTROL_PLANE_PROTOCOLS,
    MISSING_CODE,
    UNKNOWN_CODE,
    ClassLabel,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    malformed,
    read_container,
    write_json,
)

logger = logging.getLogger(__name__)

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

IMPUTER_MAX_ROUNDS = 10
IMPUTER_TOL = 1e-3
# Container tag; bumped whenever the saved pipeline state changes layout.
PIPELINE_FORMAT = "pfcpbench-pipeline-v2"


def _missing_mask(ds: LabeledDataset) -> np.ndarray:
    """Missing cells: ``MISSING_CODE`` in a categorical column, NaN in a
    numerical one."""
    categorical = np.array([f.kind == CATEGORICAL for f in ds.schema.features], dtype=bool)
    return np.where(categorical, ds.matrix == MISSING_CODE, np.isnan(ds.matrix))


def _drop_reported(
    ds: LabeledDataset, report: dict[str, str]
) -> tuple[LabeledDataset, dict[str, str]]:
    """``ds`` without the columns ``report`` names (order preserved), and the report."""
    columns = [j for j, name in enumerate(ds.schema.names) if name not in report]
    schema = FeatureSchema(tuple(ds.schema.features[j] for j in columns), ds.schema.version)
    return LabeledDataset(schema, ds.matrix[:, columns], ds.labels), report


def drop_environment_features(
    ds: LabeledDataset, patterns: Sequence[str] = DEFAULT_GT1_PATTERNS
) -> tuple[LabeledDataset, dict[str, str]]:
    """Remove fields flagged environment-dependent or matching the blocklist."""
    return _drop_reported(ds, {
        f.name: "GT1" for f in ds.schema.features
        if f.environment_dependent or any(fnmatch.fnmatch(f.name, pat) for pat in patterns)
    })


def filter_control_plane(ds: LabeledDataset) -> tuple[LabeledDataset, dict[str, str]]:
    """Drop non-control-plane feature columns and rows.

    A row is considered non-control-plane content when it carries values
    only in TCP/ICMP-layer fields and none in UDP/PFCP fields.
    """
    missing = _missing_mask(ds)

    def layer_present(protocols: tuple[str, ...]) -> np.ndarray:
        columns = [j for j, f in enumerate(ds.schema.features) if f.protocol in protocols]
        return (~missing[:, columns]).any(axis=1)

    dropped = layer_present(("tcp", "icmp")) & ~layer_present(("udp", "pfcp"))
    if dropped.any():
        logger.info("GT2: dropped %d non-control-plane rows", int(dropped.sum()))
        ds = ds.subset(~dropped)
    return _drop_reported(ds, {
        f.name: "GT2" for f in ds.schema.features if f.protocol not in CONTROL_PLANE_PROTOCOLS
    })


def drop_uninformative(ds: LabeledDataset) -> tuple[LabeledDataset, dict[str, str]]:
    """Remove constant, all-missing, and exact-duplicate columns."""
    report: dict[str, str] = {}
    missing = _missing_mask(ds)
    kept_columns: list[tuple[str, str, np.ndarray]] = []  # (kind, name, raw column)
    for j, f in enumerate(ds.schema.features):
        col = ds.matrix[:, j]
        observed = col[~missing[:, j]]
        if len(ds) and observed.size == 0:
            report[f.name] = "GT3:all-missing"
            continue
        if len(ds) and observed.size == len(ds) and np.unique(observed).size <= 1:
            report[f.name] = "GT3:constant"
            continue
        duplicate_of = None
        for kind, name, other in kept_columns:
            if kind == f.kind and np.array_equal(col, other, equal_nan=True):
                duplicate_of = name
                break
        if duplicate_of is not None:
            report[f.name] = f"GT3:duplicate-of-{duplicate_of}"
            continue
        kept_columns.append((f.kind, f.name, col))
    return _drop_reported(ds, report)


# ---------------------------------------------------------------------------
# Imputation


@dataclass(frozen=True)
class ImputerState:
    """Frozen imputation parameters, all learned from the training split.

    ``fill`` holds one value per column in schema order: the training mode
    code of a categorical column (``UNKNOWN_CODE`` when no category was
    observed) or the training median of a numerical one (0 when entirely
    missing).  Numerical features with missing training values additionally
    get round-robin regression coefficients, keyed by name (intercept
    followed by one weight per other numerical feature, in schema order).
    """

    fill: tuple[float, ...]
    regressions: dict[str, tuple[float, ...]]


def fit_imputer(train: LabeledDataset) -> ImputerState:
    missing = _missing_mask(train)
    fill = []
    for j, f in enumerate(train.schema.features):
        observed = train.matrix[~missing[:, j], j]
        if f.kind == CATEGORICAL:
            observed = observed[observed != UNKNOWN_CODE]
            if observed.size == 0:
                logger.warning("%s: no observed training categories, imputing UNKNOWN", f.name)
                fill.append(float(UNKNOWN_CODE))
            else:
                codes, counts = np.unique(observed, return_counts=True)
                fill.append(float(codes[np.argmax(counts)]))  # ties: smallest code wins
        elif observed.size == 0:
            logger.warning("%s: entirely missing in training data, imputing 0", f.name)
            fill.append(0.0)
        else:
            fill.append(float(np.median(observed)))

    num_pos = list(train.schema.numerical_positions)
    num_missing = missing[:, num_pos]
    incomplete = [j for j in range(len(num_pos)) if num_missing[:, j].any()]
    regressions: dict[str, tuple[float, ...]] = {}
    if incomplete and len(num_pos) >= 2:
        # C-ordered, because the regressions' ``others @ coefs`` rounds by layout
        X = np.ascontiguousarray(np.where(missing, fill, train.matrix)[:, num_pos])

        def refit(j: int) -> tuple[float, ...] | None:
            coefs = _fit_column_regression(X, num_missing[:, j], j)
            if coefs is not None:
                regressions[train.schema.features[num_pos[j]].name] = coefs
            return coefs

        _impute_rounds(X, num_missing, incomplete, refit)
    return ImputerState(fill=tuple(fill), regressions=regressions)


def _fit_column_regression(X: np.ndarray, missing: np.ndarray, j: int) -> tuple[float, ...] | None:
    """Least squares of column j on every other column, over observed rows."""
    obs = ~missing
    if obs.sum() < 2:
        return None
    others = np.delete(X[obs], j, axis=1)
    design = np.column_stack([np.ones(obs.sum()), others])
    try:
        coefs, *_ = np.linalg.lstsq(design, X[obs, j], rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coefs)):
        return None
    return tuple(float(c) for c in coefs)


def _predict_column(X: np.ndarray, j: int, coefs: tuple[float, ...]) -> np.ndarray:
    others = np.delete(X, j, axis=1)
    return coefs[0] + others @ np.asarray(coefs[1:])


def _impute_rounds(X: np.ndarray, missing: np.ndarray, columns: list[int], coefs_for) -> None:
    """Round-robin: refill the missing rows of each column in ``columns``
    from its regression on the others (``coefs_for(j)``, None skips it),
    until no refilled value moves by ``IMPUTER_TOL`` or more."""
    for _ in range(IMPUTER_MAX_ROUNDS):
        max_delta = 0.0
        for j in columns:
            coefs = coefs_for(j)
            if coefs is None:
                continue
            predicted = _predict_column(X, j, coefs)
            rows = missing[:, j]
            delta = np.abs(predicted[rows] - X[rows, j])
            if delta.size:
                max_delta = max(max_delta, float(delta.max()))
            X[rows, j] = predicted[rows]
        if max_delta < IMPUTER_TOL:
            break


def apply_imputer(state: ImputerState, ds: LabeledDataset) -> LabeledDataset:
    """Fill every missing entry; output has zero MISSING codes and NaNs."""
    missing = _missing_mask(ds)
    M = np.where(missing, state.fill, ds.matrix)
    num_pos = list(ds.schema.numerical_positions)
    names = [ds.schema.features[pos].name for pos in num_pos]
    pending = [j for j, pos in enumerate(num_pos)
               if names[j] in state.regressions and missing[:, pos].any()]
    if pending:
        X = np.ascontiguousarray(M[:, num_pos])
        _impute_rounds(X, missing[:, num_pos], pending, lambda j: state.regressions[names[j]])
        M[:, num_pos] = X
    return LabeledDataset(ds.schema, M, ds.labels)


# ---------------------------------------------------------------------------
# Robust scaling


@dataclass(frozen=True)
class ScalerState:
    """One (center, scale) pair per column in schema order: (0, 1) for a
    categorical column, so its codes pass through, and the median and IQR
    (linear-interpolation quantiles) of a numerical one, with scale 1 when
    the IQR is degenerate."""

    center: tuple[float, ...]
    scale: tuple[float, ...]


def fit_scaler(train: LabeledDataset) -> ScalerState:
    center, scale = [], []
    for f, col in zip(train.schema.features, train.matrix.T):
        if f.kind == CATEGORICAL:
            center.append(0.0)
            scale.append(1.0)
            continue
        if np.isnan(col).any():
            raise PipelineError(f"{f.name}: scaler fitted before imputation")
        med, q1, q3 = (float(np.quantile(col, q)) for q in (0.5, 0.25, 0.75))
        if q3 <= q1:
            logger.info("%s: degenerate IQR, feature will only be centered", f.name)
        center.append(med)
        scale.append(q3 - q1 if q3 - q1 > 0 else 1.0)
    return ScalerState(center=tuple(center), scale=tuple(scale))


def apply_scaler(state: ScalerState, ds: LabeledDataset) -> LabeledDataset:
    """x -> (x - center) / scale, exact for categorical codes (x - 0) / 1."""
    return LabeledDataset(ds.schema, (ds.matrix - state.center) / state.scale, ds.labels)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineModel:
    """All frozen pipeline state.  The imputer's and the scaler's per-column
    values are in ``output_schema`` order; ``scaler`` is None when scaling
    is off."""

    output_schema: FeatureSchema
    drop_report: dict[str, str]
    imputer: ImputerState
    scaler: ScalerState | None

    def __post_init__(self):
        d = len(self.output_schema)
        lengths = [len(self.imputer.fill)]
        if self.scaler is not None:
            lengths += [len(self.scaler.center), len(self.scaler.scale)]
        if any(n != d for n in lengths):
            raise SchemaError(f"pipeline state has {lengths} values for {d} columns")
        numerical = {self.output_schema.features[pos].name
                     for pos in self.output_schema.numerical_positions}
        for name, coefs in self.imputer.regressions.items():
            if name not in numerical or len(coefs) != len(numerical):
                raise SchemaError(f"pipeline regression for {name!r} does not fit the schema")

    def to_json_dict(self) -> dict:
        return {
            "format": PIPELINE_FORMAT,
            "output_schema": self.output_schema.to_json_dict(),
            "drop_report": dict(self.drop_report),
            "imputer": {
                "fill": list(self.imputer.fill),
                "regressions": {k: list(v) for k, v in self.imputer.regressions.items()},
            },
            "scaler": None if self.scaler is None else {
                "center": list(self.scaler.center), "scale": list(self.scaler.scale)
            },
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PipelineModel":
        if doc.get("format") != PIPELINE_FORMAT:
            raise SchemaError(f"not a {PIPELINE_FORMAT} container: {doc.get('format')!r}")

        def floats(values) -> tuple[float, ...]:
            return tuple(float(x) for x in values)

        with malformed("pipeline model"):
            imputer = doc["imputer"]
            scaler = doc["scaler"]
            return PipelineModel(
                output_schema=FeatureSchema.from_json_dict(doc["output_schema"]),
                drop_report=dict(doc["drop_report"]),
                imputer=ImputerState(
                    fill=floats(imputer["fill"]),
                    regressions={k: floats(v) for k, v in imputer["regressions"].items()},
                ),
                scaler=None if scaler is None else ScalerState(
                    center=floats(scaler["center"]), scale=floats(scaler["scale"])
                ),
            )

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @staticmethod
    def load(path: str | Path) -> "PipelineModel":
        return PipelineModel.from_json_dict(read_container(path)[0])


def fit_pipeline(
    train: LabeledDataset,
    scaling_enabled: bool = True,
    gt1_patterns: Sequence[str] = DEFAULT_GT1_PATTERNS,
) -> PipelineModel:
    """Fit all pipeline state on the benign training split."""
    bad = sum(1 for lab in train.labels if lab is not ClassLabel.NORMAL)
    if bad:
        raise GuidelineViolation("GT4", f"{bad} attack rows in the training split")

    report: dict[str, str] = {}
    ds, rep = drop_environment_features(train, gt1_patterns)
    report.update(rep)
    ds, rep = filter_control_plane(ds)
    report.update(rep)
    if len(ds) == 0:
        raise PipelineError("no benign training rows remain after GT2")
    ds, rep = drop_uninformative(ds)
    report.update(rep)
    if len(ds.schema) == 0:
        raise PipelineError("no features survive preprocessing")

    imputer = fit_imputer(ds)
    ds = apply_imputer(imputer, ds)
    scaler = fit_scaler(ds) if scaling_enabled else None
    if scaler is not None:
        ds = apply_scaler(scaler, ds)

    # The output schema re-learns numerical domains from the transformed
    # training data; attack feasibility clamps candidate values to them.
    low, high = ds.matrix.min(axis=0), ds.matrix.max(axis=0)
    features = tuple(
        f if f.kind == CATEGORICAL else replace(f, domain=NumericDomain(float(lo), float(hi)))
        for f, lo, hi in zip(ds.schema.features, low, high)
    )
    output_schema = FeatureSchema(features=features, version=train.schema.version + 1)
    return PipelineModel(output_schema, report, imputer, scaler)


def transform(model: PipelineModel, ds: LabeledDataset) -> LabeledDataset:
    """Apply the frozen pipeline to any split.

    Deterministic and stateless: the same input always maps to the same
    output and the model is never mutated.
    """
    names = model.output_schema.names
    missing = [n for n in names if n not in ds.schema.names]
    if missing:
        raise SchemaError(f"dataset lacks pipeline features {missing}")
    columns = [ds.schema.position(n) for n in names]
    out = LabeledDataset(model.output_schema, ds.matrix[:, columns], ds.labels)
    out = apply_imputer(model.imputer, out)
    return out if model.scaler is None else apply_scaler(model.scaler, out)
