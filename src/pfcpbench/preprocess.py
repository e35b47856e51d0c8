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
import hashlib
import json
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


def _missing_mask(ds: LabeledDataset) -> np.ndarray:
    """Missing cells: ``MISSING_CODE`` in a categorical column, NaN in a
    numerical one."""
    categorical = np.array([f.kind == CATEGORICAL for f in ds.schema.features], dtype=bool)
    return np.where(categorical, ds.matrix == MISSING_CODE, np.isnan(ds.matrix))


def select_features(ds: LabeledDataset, keep_names: Sequence[str]) -> LabeledDataset:
    """Dataset restricted to ``keep_names`` (original order preserved)."""
    schema = ds.schema.subset(keep_names)
    columns = [ds.schema.position(name) for name in schema.names]
    return LabeledDataset(schema, ds.matrix[:, columns], ds.labels)


def drop_environment_features(
    ds: LabeledDataset, patterns: Sequence[str] = DEFAULT_GT1_PATTERNS
) -> tuple[LabeledDataset, dict[str, str]]:
    """Remove fields flagged environment-dependent or matching the blocklist."""
    report: dict[str, str] = {}
    keep = []
    for f in ds.schema.features:
        blocked = f.environment_dependent or any(
            fnmatch.fnmatch(f.name, pat) for pat in patterns
        )
        if blocked:
            report[f.name] = "GT1"
        else:
            keep.append(f.name)
    return select_features(ds, keep), report


def filter_control_plane(ds: LabeledDataset) -> tuple[LabeledDataset, dict[str, str]]:
    """Drop non-control-plane feature columns and rows.

    A row is considered non-control-plane content when it carries values
    only in TCP/ICMP-layer fields and none in UDP/PFCP fields.
    """
    report: dict[str, str] = {}
    keep = []
    for f in ds.schema.features:
        if f.protocol in CONTROL_PLANE_PROTOCOLS:
            keep.append(f.name)
        else:
            report[f.name] = "GT2"
    missing = _missing_mask(ds)

    def layer_present(protocols: tuple[str, ...]) -> np.ndarray:
        columns = [j for j, f in enumerate(ds.schema.features) if f.protocol in protocols]
        return (~missing[:, columns]).any(axis=1)

    other = layer_present(("tcp", "icmp"))
    control = layer_present(("udp", "pfcp"))
    row_mask = ~(other & ~control)
    dropped_rows = int((~row_mask).sum())
    if dropped_rows:
        logger.info("GT2: dropped %d non-control-plane rows", dropped_rows)
    out = select_features(ds, keep)
    if dropped_rows:
        out = out.subset(row_mask)
    return out, report


def drop_uninformative(ds: LabeledDataset) -> tuple[LabeledDataset, dict[str, str]]:
    """Remove constant, all-missing, and exact-duplicate columns."""
    report: dict[str, str] = {}
    missing = _missing_mask(ds)
    keep = []
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
        keep.append(f.name)
        kept_columns.append((f.kind, f.name, col))
    return select_features(ds, keep), report


# ---------------------------------------------------------------------------
# Imputation


@dataclass(frozen=True)
class ImputerState:
    """Frozen imputation parameters, all learned from the training split.

    ``cat_modes`` maps categorical feature name to the training mode code.
    ``num_medians`` is the per-numerical-feature fallback.  Features with
    missing training values additionally get round-robin regression
    coefficients (intercept followed by one weight per other numerical
    feature, in schema order).
    """

    cat_modes: dict[str, int]
    num_medians: dict[str, float]
    regressions: dict[str, tuple[float, ...]]
    tol: float = 1e-3


def _numeric_block(
    schema: FeatureSchema, M: np.ndarray
) -> tuple[list[int], list[str], np.ndarray]:
    """Numerical positions, their names, and a C-ordered copy of those
    columns of ``M`` (the regressions' ``others @ coefs`` rounds by layout)."""
    positions = list(schema.numerical_positions)
    names = [schema.features[pos].name for pos in positions]
    return positions, names, np.ascontiguousarray(M[:, positions])


def fit_imputer(train: LabeledDataset, tol: float = 1e-3) -> ImputerState:
    missing = _missing_mask(train)
    cat_modes: dict[str, int] = {}
    for pos in train.schema.categorical_positions:
        name = train.schema.features[pos].name
        observed = train.matrix[:, pos][~missing[:, pos]]
        observed = observed[observed != UNKNOWN_CODE]
        if observed.size == 0:
            logger.warning("%s: no observed training categories, imputing UNKNOWN", name)
            cat_modes[name] = UNKNOWN_CODE
            continue
        codes, counts = np.unique(observed, return_counts=True)
        cat_modes[name] = int(codes[np.argmax(counts)])  # ties: smallest code wins

    num_pos, num_names, X = _numeric_block(train.schema, train.matrix)
    num_missing = missing[:, num_pos]
    medians: dict[str, float] = {}
    for j, name in enumerate(num_names):
        observed = X[:, j][~num_missing[:, j]]
        if observed.size == 0:
            logger.warning("%s: entirely missing in training data, imputing 0", name)
            medians[name] = 0.0
        else:
            medians[name] = float(np.median(observed))
        X[num_missing[:, j], j] = medians[name]

    incomplete = [j for j in range(X.shape[1]) if num_missing[:, j].any()]
    regressions: dict[str, tuple[float, ...]] = {}
    if incomplete and X.shape[1] >= 2:

        def refit(j: int) -> tuple[float, ...] | None:
            coefs = _fit_column_regression(X, num_missing[:, j], j)
            if coefs is not None:
                regressions[num_names[j]] = coefs
            return coefs

        _impute_rounds(X, num_missing, incomplete, refit, tol)
    return ImputerState(cat_modes=cat_modes, num_medians=medians, regressions=regressions, tol=tol)


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


def _impute_rounds(
    X: np.ndarray, missing: np.ndarray, columns: list[int], coefs_for, tol: float
) -> None:
    """Round-robin: refill the missing rows of each column in ``columns``
    from its regression on the others (``coefs_for(j)``, None skips it),
    until no refilled value moves by ``tol`` or more."""
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
        if max_delta < tol:
            break


def apply_imputer(state: ImputerState, ds: LabeledDataset) -> LabeledDataset:
    """Fill every missing entry; output has zero MISSING codes and NaNs."""
    M = ds.matrix.copy()
    missing = _missing_mask(ds)
    for pos in ds.schema.categorical_positions:
        name = ds.schema.features[pos].name
        if name not in state.cat_modes:
            raise SchemaError(f"imputer has no state for categorical feature {name!r}")
        M[missing[:, pos], pos] = state.cat_modes[name]

    num_pos, num_names, X = _numeric_block(ds.schema, M)
    missing = missing[:, num_pos]
    for j, name in enumerate(num_names):
        if name not in state.num_medians:
            raise SchemaError(f"imputer has no state for numerical feature {name!r}")
        X[missing[:, j], j] = state.num_medians[name]
    pending = [j for j, name in enumerate(num_names)
               if name in state.regressions and missing[:, j].any()]
    if pending:
        _impute_rounds(X, missing, pending, lambda j: state.regressions[num_names[j]], state.tol)
    M[:, num_pos] = X
    return LabeledDataset(ds.schema, M, ds.labels)


# ---------------------------------------------------------------------------
# Robust scaling


@dataclass(frozen=True)
class ScalerState:
    """Per-numerical-feature (median, q1, q3), linear-interpolation quantiles."""

    stats: dict[str, tuple[float, float, float]]

    def scale_of(self, name: str) -> tuple[float, float]:
        med, q1, q3 = self.stats[name]
        iqr = q3 - q1
        return med, (iqr if iqr > 0 else 1.0)


def fit_scaler(train: LabeledDataset) -> ScalerState:
    stats: dict[str, tuple[float, float, float]] = {}
    for pos in train.schema.numerical_positions:
        name = train.schema.features[pos].name
        col = train.matrix[:, pos]
        if np.isnan(col).any():
            raise PipelineError(f"{name}: scaler fitted before imputation")
        med, q1, q3 = (float(np.quantile(col, q)) for q in (0.5, 0.25, 0.75))
        stats[name] = (med, q1, q3)
        if q3 <= q1:
            logger.info("%s: degenerate IQR, feature will only be centered", name)
    return ScalerState(stats=stats)


def apply_scaler(state: ScalerState, ds: LabeledDataset) -> LabeledDataset:
    """x -> (x - median) / IQR; degenerate features are centered only.
    Categorical codes pass through untouched."""
    M = ds.matrix.copy()
    for pos in ds.schema.numerical_positions:
        name = ds.schema.features[pos].name
        if name not in state.stats:
            raise SchemaError(f"scaler has no state for feature {name!r}")
        med, scale = state.scale_of(name)
        M[:, pos] = (M[:, pos] - med) / scale
    return LabeledDataset(ds.schema, M, ds.labels)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineModel:
    kept_features: tuple[str, ...]
    drop_report: dict[str, str]
    imputer_state: ImputerState
    scaler_state: ScalerState | None
    scaling_enabled: bool
    input_schema: FeatureSchema
    output_schema: FeatureSchema

    def state_hash(self) -> str:
        """Digest of all frozen state; transform must never change it."""
        return hashlib.sha256(
            json.dumps(self.to_json_dict(), sort_keys=True).encode()
        ).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "kept_features": list(self.kept_features),
            "drop_report": dict(sorted(self.drop_report.items())),
            "imputer": {
                "cat_modes": dict(sorted(self.imputer_state.cat_modes.items())),
                "num_medians": dict(sorted(self.imputer_state.num_medians.items())),
                "regressions": {
                    k: list(v) for k, v in sorted(self.imputer_state.regressions.items())
                },
                "tol": self.imputer_state.tol,
            },
            "scaler": None
            if self.scaler_state is None
            else {k: list(v) for k, v in sorted(self.scaler_state.stats.items())},
            "scaling_enabled": self.scaling_enabled,
            "input_schema": self.input_schema.to_json_dict(),
            "output_schema": self.output_schema.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PipelineModel":
        with malformed("pipeline model"):
            imputer = ImputerState(
                cat_modes={k: int(v) for k, v in doc["imputer"]["cat_modes"].items()},
                num_medians={k: float(v) for k, v in doc["imputer"]["num_medians"].items()},
                regressions={
                    k: tuple(float(x) for x in v)
                    for k, v in doc["imputer"]["regressions"].items()
                },
                tol=float(doc["imputer"]["tol"]),
            )
            scaler = None
            if doc["scaler"] is not None:
                scaler = ScalerState(
                    stats={k: tuple(float(x) for x in v) for k, v in doc["scaler"].items()}
                )
            return PipelineModel(
                kept_features=tuple(doc["kept_features"]),
                drop_report=dict(doc["drop_report"]),
                imputer_state=imputer,
                scaler_state=scaler,
                scaling_enabled=bool(doc["scaling_enabled"]),
                input_schema=FeatureSchema.from_json_dict(doc["input_schema"]),
                output_schema=FeatureSchema.from_json_dict(doc["output_schema"]),
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
    tol: float = 1e-3,
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
    ds, rep = drop_uninformative(ds)
    report.update(rep)
    if len(ds.schema) == 0:
        raise PipelineError("no features survive preprocessing")

    imputer = fit_imputer(ds, tol=tol)
    ds = apply_imputer(imputer, ds)
    scaler = fit_scaler(ds) if scaling_enabled else None
    if scaler is not None:
        ds = apply_scaler(scaler, ds)

    # The output schema re-learns numerical domains from the transformed
    # training data; attack feasibility clamps candidate values to them.
    out_features = []
    for f, col in zip(ds.schema.features, ds.matrix.T):
        if f.kind == CATEGORICAL:
            out_features.append(f)
        else:
            out_features.append(
                replace(f, domain=NumericDomain(float(col.min()), float(col.max())))
            )
    output_schema = FeatureSchema(
        features=tuple(out_features), version=train.schema.version + 1
    )
    return PipelineModel(
        kept_features=ds.schema.names,
        drop_report=report,
        imputer_state=imputer,
        scaler_state=scaler,
        scaling_enabled=scaling_enabled,
        input_schema=train.schema,
        output_schema=output_schema,
    )


def transform(model: PipelineModel, ds: LabeledDataset) -> LabeledDataset:
    """Apply the frozen pipeline to any split.

    Deterministic and stateless: the same input always maps to the same
    output and the model is never mutated.
    """
    missing = [n for n in model.kept_features if n not in ds.schema.names]
    if missing:
        raise SchemaError(f"dataset lacks pipeline features {missing}")
    out = select_features(ds, model.kept_features)
    out = apply_imputer(model.imputer_state, out)
    if model.scaling_enabled and model.scaler_state is not None:
        out = apply_scaler(model.scaler_state, out)
    return LabeledDataset(model.output_schema, out.matrix, out.labels)
