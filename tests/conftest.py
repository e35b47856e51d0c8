"""Shared fixtures: small schemas, the 2-D blob benchmark, and the fitted
synthetic PFCP benchmark reused across unit and acceptance tests."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: spinning BLAS worker threads add
# their CPU time to ``time.process_time`` and make CPU-time bounds depend on
# machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np
import pytest
from hypothesis import settings

from pfcpbench.attack import (
    DEFAULT_COMPLIANCE_RULES,
    AttackConfig,
    estimate_marginals,
    load_feasible_sets,
    run_campaign,
    scale_compliance,
)
from pfcpbench.corpus import synth_benchmark_splits
from pfcpbench.detectors import DetectorConfig, DetectorKind, fit
from pfcpbench.ensemble import PRESETS, fit_ensemble
from pfcpbench.preprocess import fit_pipeline, transform
from pfcpbench.traffic import (
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)

# Every property test draws the same examples on every run and is never
# timed, so tier-1 passes or fails alike on any machine; a test's own
# ``@settings`` inherits both.
settings.register_profile("pfcpbench", derandomize=True, deadline=None)
settings.load_profile("pfcpbench")

BLOB_SEED = 4242
BENCH_SCALE = 0.25
CAMPAIGN_SCALE = 0.5
MASTER_SEED = 42


@pytest.fixture
def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        features=(
            FeatureDescriptor(
                "proto.kind", "categorical", "pfcp", False, CategoricalDomain(("A", "B", "C"))
            ),
            FeatureDescriptor("proto.len", "numerical", "pfcp", False, NumericDomain(0.0, 100.0)),
            FeatureDescriptor("proto.count", "numerical", "pfcp", False, NumericDomain(-5.0, 5.0)),
        )
    )


def numeric_schema(d: int, lo: float = -1e9, hi: float = 1e9) -> FeatureSchema:
    return FeatureSchema(
        features=tuple(
            FeatureDescriptor(f"f{j}", "numerical", "meta", False, NumericDomain(lo, hi))
            for j in range(d)
        )
    )


def numeric_dataset(X: np.ndarray, labels=None) -> LabeledDataset:
    X = np.asarray(X, dtype=float)
    schema = numeric_schema(X.shape[1])
    if labels is None:
        labels = [ClassLabel.NORMAL] * X.shape[0]
    return LabeledDataset(schema, X, labels)


@pytest.fixture(scope="session")
def blob_benchmark():
    """Anisotropic 2-D benign blob plus ten far outliers on a ring that
    avoids both feature axes (so axis-splitting detectors see them too)."""
    rng = np.random.default_rng(BLOB_SEED)
    n = 400
    benign = np.column_stack([rng.normal(0, 5, n), rng.normal(0, 1, n)])
    angles = np.deg2rad(np.linspace(20, 70, 10))
    outliers = np.column_stack([100 * np.cos(angles), 100 * np.sin(angles)])
    train = numeric_dataset(benign)
    queries = np.vstack([benign, outliers])
    labels = np.array([False] * n + [True] * len(outliers))
    return train, queries, labels


@pytest.fixture(scope="session")
def bench():
    """Synthetic PFCP benchmark at desk scale: raw splits, fitted pipeline
    (scaling on), transformed splits, and the detectors plus ensembles the
    acceptance gate needs.  Build time is recorded for the runtime gate."""
    t0 = time.monotonic()
    train, val, test = synth_benchmark_splits(seed=MASTER_SEED, scale=BENCH_SCALE)
    pipeline = fit_pipeline(train, scaling_enabled=True)
    t_train = transform(pipeline, train)
    t_val = transform(pipeline, val)
    t_test = transform(pipeline, test)
    kinds = sorted(
        {k for spec in PRESETS.values() for k in spec.base_kinds} | {DetectorKind.IFOREST},
        key=lambda k: k.value,
    )
    detectors = {
        kind: fit(DetectorConfig(kind=kind), t_train, seed=MASTER_SEED) for kind in kinds
    }
    V = t_val.matrix
    columns = {kind: model.score_batch(V) for kind, model in detectors.items()}
    val_attacks = np.array([lab is not ClassLabel.NORMAL for lab in t_val.labels], dtype=bool)
    ensembles = {
        name: fit_ensemble(
            spec, [detectors[k] for k in spec.base_kinds],
            np.column_stack([columns[k] for k in spec.base_kinds]), val_attacks,
        )
        for name, spec in PRESETS.items()
    }
    return {
        "raw": (train, val, test),
        "pipeline": pipeline,
        "train": t_train,
        "validation": t_val,
        "test": t_test,
        "detectors": detectors,
        "ensembles": ensembles,
        "build_seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def campaign_bench():
    """Scale-0.5 benchmark with HBOS under all three attack algorithms,
    in both scaling settings."""
    t0 = time.monotonic()
    train, val, test = synth_benchmark_splits(seed=MASTER_SEED, scale=CAMPAIGN_SCALE)
    out = {}
    for scaling in (False, True):
        pipeline = fit_pipeline(train, scaling_enabled=scaling)
        t_train = transform(pipeline, train)
        t_test = transform(pipeline, test)
        hbos = fit(DetectorConfig(kind=DetectorKind.HBOS), t_train, seed=MASTER_SEED)
        attacks = t_test.subset(
            np.array([lab is not ClassLabel.NORMAL for lab in t_test.labels], dtype=bool)
        )
        specs = {
            kind: scale_compliance(spec, pipeline)
            for kind, spec in DEFAULT_COMPLIANCE_RULES.items()
        }
        feasible = load_feasible_sets({}, attacks.schema, specs)
        marginals = {kind: estimate_marginals(t_train, f) for kind, f in feasible.items()}
        campaigns = {}
        for algorithm in ("RS", "GA_DE", "GA_ES"):
            cfg = AttackConfig(algorithm=algorithm, seed=MASTER_SEED)
            campaigns[algorithm] = run_campaign(hbos, attacks, feasible, marginals, cfg)
        out[scaling] = {
            "pipeline": pipeline,
            "train": t_train,
            "model": hbos,
            "attacks": attacks,
            "specs": specs,
            "feasible": feasible,
            "campaigns": campaigns,
        }
    out["build_seconds"] = time.monotonic() - t0
    return out
