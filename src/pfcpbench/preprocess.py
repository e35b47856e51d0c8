"""Security-aware preprocessing pipeline.

Fitting composes four steps on the benign training split and freezes all
learned state:

1. drop non-control-plane rows (GT2's row rule; it reads the raw cells and
   applies to every split),
2. drop columns, each by the first rule that applies: environment-dependent
   fields (GT1: addresses, ports, deployment identifiers, absolute
   timestamps), fields outside the control plane (GT2), then uninformative
   columns (GT3: all-missing, constant, exact duplicates),
3. impute missing values (categorical mode; numerical round-robin linear
   regression with median fallback),
4. robust-scale numerical features by median and interquartile range
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

from .catalog import DEFAULT_GT1_PATTERNS
from .errors import GuidelineViolation, PipelineError, SchemaError
from .traffic import (
    CATEGORICAL,
    CONTROL_PLANE_PROTOCOLS,
    MISSING_CODE,
    UNKNOWN_CODE,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    malformed,
    read_container,
    write_json,
)

logger = logging.getLogger(__name__)

IMPUTER_MAX_ROUNDS = 10
IMPUTER_TOL = 1e-3
# Container tag; bumped whenever the saved pipeline state changes layout.
PIPELINE_FORMAT = "pfcpbench-pipeline-v2"


def _missing_mask(ds: LabeledDataset) -> np.ndarray:
    """Missing cells: ``MISSING_CODE`` in a categorical column, NaN in a
    numerical one."""
    categorical = np.array([f.kind == CATEGORICAL for f in ds.schema.features], dtype=bool)
    return np.where(categorical, ds.matrix == MISSING_CODE, np.isnan(ds.matrix))


def dropped_columns(
    ds: LabeledDataset, patterns: Sequence[str] = DEFAULT_GT1_PATTERNS
) -> dict[str, str]:
    """The columns of ``ds`` that the pipeline drops, each with the first
    rule that applies to it, in schema order:

    1. ``GT1``: flagged environment-dependent, or its name matches one of
       ``patterns`` (case-sensitive on every platform);
    2. ``GT2``: its protocol is outside the control plane;
    3. ``GT3:all-missing``, then ``GT3:constant``;
    4. ``GT3:duplicate-of-<name>``: equal to an earlier kept column of the
       same kind.
    """
    report: dict[str, str] = {}
    missing = _missing_mask(ds)
    kept_columns: list[tuple[str, str, np.ndarray]] = []  # (kind, name, raw column)
    for j, f in enumerate(ds.schema.features):
        col = ds.matrix[:, j]
        observed = col[~missing[:, j]]
        if f.environment_dependent or any(fnmatch.fnmatchcase(f.name, pat) for pat in patterns):
            report[f.name] = "GT1"
        elif f.protocol not in CONTROL_PLANE_PROTOCOLS:
            report[f.name] = "GT2"
        elif len(ds) and observed.size == 0:
            report[f.name] = "GT3:all-missing"
        elif len(ds) and observed.size == len(ds) and np.unique(observed).size <= 1:
            report[f.name] = "GT3:constant"
        else:
            duplicate_of = next((name for kind, name, other in kept_columns
                                 if kind == f.kind and np.array_equal(col, other, equal_nan=True)),
                                None)
            if duplicate_of is None:
                kept_columns.append((f.kind, f.name, col))
            else:
                report[f.name] = f"GT3:duplicate-of-{duplicate_of}"
    return report


def control_plane_rows(ds: LabeledDataset) -> LabeledDataset:
    """``ds`` without its non-control-plane rows (GT2's row rule): rows that
    carry values only in TCP/ICMP-layer fields and none in UDP/PFCP fields."""
    missing = _missing_mask(ds)

    def layer_present(protocols: tuple[str, ...]) -> np.ndarray:
        columns = [j for j, f in enumerate(ds.schema.features) if f.protocol in protocols]
        return (~missing[:, columns]).any(axis=1)

    dropped = layer_present(("tcp", "icmp")) & ~layer_present(("udp", "pfcp"))
    if dropped.any():
        logger.info("GT2: dropped %d non-control-plane rows", int(dropped.sum()))
        ds = ds.subset(~dropped)
    return ds


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
        return PipelineModel.from_json_dict(read_container(path))


def _select(ds: LabeledDataset, schema: FeatureSchema) -> LabeledDataset:
    """The columns of ``ds`` that ``schema`` names, in its order, under ``schema``."""
    missing = [n for n in schema.names if n not in ds.schema.names]
    if missing:
        raise SchemaError(f"dataset lacks pipeline features {missing}")
    columns = [ds.schema.position(n) for n in schema.names]
    return LabeledDataset(schema, ds.matrix[:, columns], ds.labels)


def fit_pipeline(
    train: LabeledDataset,
    scaling_enabled: bool = True,
    gt1_patterns: Sequence[str] = DEFAULT_GT1_PATTERNS,
) -> PipelineModel:
    """Fit all pipeline state on the benign training split."""
    bad = int(train.attacks.sum())
    if bad:
        raise GuidelineViolation("GT4", f"{bad} attack rows in the training split")

    # GT2's row rule reads the raw cells, as ``transform`` reads them
    ds = control_plane_rows(train)
    if len(ds) == 0:
        raise PipelineError("no benign training rows remain after GT2")
    report = dropped_columns(ds, gt1_patterns)
    kept = tuple(f for f in ds.schema.features if f.name not in report)
    if not kept:
        raise PipelineError("no features survive preprocessing")
    ds = _select(ds, FeatureSchema(kept, ds.schema.version))

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
    """Apply the frozen pipeline to any split: GT2's row rule, read from the
    split's own TCP/ICMP and UDP/PFCP cells, then the pipeline's columns,
    imputation and scaling.

    Deterministic and stateless: the same input always maps to the same
    output and the model is never mutated.
    """
    out = apply_imputer(model.imputer, _select(control_plane_rows(ds), model.output_schema))
    return out if model.scaler is None else apply_scaler(model.scaler, out)
