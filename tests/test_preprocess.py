import csv
import hashlib
import json

import numpy as np
import pytest

from pfcpbench.corpus import (
    SynthConfig,
    default_schema,
    load_csv,
    save_csv,
    synth_benchmark_splits,
    synth_benign,
)
from pfcpbench.errors import GuidelineViolation, PipelineError, SchemaError
from pfcpbench.preprocess import (
    DEFAULT_GT1_PATTERNS,
    PipelineModel,
    apply_imputer,
    apply_scaler,
    drop_environment_features,
    drop_uninformative,
    filter_control_plane,
    fit_imputer,
    fit_pipeline,
    fit_scaler,
    transform,
)
from pfcpbench.traffic import (
    MISSING_CODE,
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)



def make_dataset(columns, n, labels=None, protocols=None, env=None):
    """columns: name -> (kind, values); categorical values are codes."""
    feats = []
    for name, (kind, values) in columns.items():
        proto = (protocols or {}).get(name, "pfcp")
        flagged = (env or {}).get(name, False)
        if kind == "cat":
            feats.append(
                FeatureDescriptor(name, "categorical", proto, flagged, CategoricalDomain(("a", "b", "c")))
            )
        else:
            feats.append(
                FeatureDescriptor(name, "numerical", proto, flagged, NumericDomain(-1e9, 1e9))
            )
    schema = FeatureSchema(features=tuple(feats))
    matrix = np.column_stack([values for _, values in columns.values()])
    return LabeledDataset(schema, matrix, labels or [ClassLabel.NORMAL] * n)


# --- environment fields ------------------------------------------------------


def test_gt1_drops_endpoints():
    schema = default_schema()
    ds = synth_benign(SynthConfig(n_benign=20, seed=1), schema)
    out, report = drop_environment_features(ds)
    for name in ("ip.src", "ip.dst", "udp.srcport", "udp.dstport"):
        assert report[name] == "GT1"
        assert name not in out.schema.names
    assert "pfcp.msg_type" in out.schema.names


def test_gt1_identity_when_clean():
    ds = make_dataset({"pfcp.a": ("num", np.arange(5.0))}, 5)
    out, report = drop_environment_features(ds)
    assert report == {}
    assert out.schema.names == ds.schema.names


def test_gt1_blocklist_is_extensible():
    ds = make_dataset({"pfcp.weird": ("num", np.arange(4.0))}, 4)
    out, report = drop_environment_features(ds, patterns=DEFAULT_GT1_PATTERNS + ("pfcp.weird",))
    assert report == {"pfcp.weird": "GT1"}
    assert len(out.schema) == 0


# --- control plane filtering --------------------------------------------------


def test_gt2_drops_tcp_columns_and_rows():
    n = 4
    ds = make_dataset(
        {
            "tcp.len": ("num", np.array([10.0, np.nan, 11.0, np.nan])),
            "pfcp.len": ("num", np.array([np.nan, 50.0, np.nan, 60.0])),
            "udp.len": ("num", np.array([np.nan, 58.0, np.nan, 68.0])),
        },
        n,
        protocols={"tcp.len": "tcp", "pfcp.len": "pfcp", "udp.len": "udp"},
    )
    out, report = filter_control_plane(ds)
    assert report == {"tcp.len": "GT2"}
    assert "tcp.len" not in out.schema.names
    assert len(out) == 2  # TCP-only rows removed


def test_gt2_identity_for_pure_pfcp():
    ds = make_dataset({"pfcp.a": ("num", np.arange(3.0))}, 3)
    out, report = filter_control_plane(ds)
    assert report == {}
    assert len(out) == 3


# --- uninformative columns -----------------------------------------------------


def test_gt3_constant_and_duplicate_and_all_missing():
    n = 6
    ds = make_dataset(
        {
            "pfcp.const": ("num", np.full(n, 7.0)),
            "pfcp.a": ("num", np.arange(float(n))),
            "pfcp.b": ("num", np.arange(float(n))),  # exact duplicate of a
            "pfcp.gone": ("num", np.full(n, np.nan)),
            "pfcp.keep": ("num", np.array([1.0, 2, 1, 2, 3, 1])),
        },
        n,
    )
    out, report = drop_uninformative(ds)
    assert report["pfcp.const"] == "GT3:constant"
    assert report["pfcp.b"] == "GT3:duplicate-of-pfcp.a"
    assert report["pfcp.gone"] == "GT3:all-missing"
    assert set(out.schema.names) == {"pfcp.a", "pfcp.keep"}


def test_gt3_identity_for_varying_columns():
    ds = make_dataset(
        {"pfcp.a": ("num", np.arange(4.0)), "pfcp.b": ("num", np.arange(4.0) ** 2)}, 4
    )
    out, report = drop_uninformative(ds)
    assert report == {}
    assert out.schema.names == ds.schema.names


# --- imputation -----------------------------------------------------------------


def test_categorical_mode_imputation():
    ds = make_dataset(
        {"pfcp.kind": ("cat", np.array([0, 0, 1, MISSING_CODE]))}, 4
    )
    state = fit_imputer(ds)
    assert state.fill == (0.0,)
    out = apply_imputer(state, ds)
    assert out.matrix[:, 0].tolist() == [0, 0, 1, 0]


def test_regression_imputation_learns_linear_relation():
    # y = 2x exactly on observed pairs; the missing y at x = 3 must come
    # back as 6 (closed-form least squares on the toy pairs)
    x = np.array([0.0, 1.0, 2.0, 4.0, 5.0, 3.0])
    y = np.array([0.0, 2.0, 4.0, 8.0, 10.0, np.nan])
    ds = make_dataset({"pfcp.x": ("num", x), "pfcp.y": ("num", y)}, 6)
    state = fit_imputer(ds)
    out = apply_imputer(state, ds)
    assert out.matrix[5, 1] == pytest.approx(6.0, abs=1e-6)


def test_imputer_identity_without_missing():
    ds = make_dataset({"pfcp.a": ("num", np.arange(5.0))}, 5)
    out = apply_imputer(fit_imputer(ds), ds)
    assert np.array_equal(out.matrix, ds.matrix)


def test_imputer_all_missing_fallback(caplog):
    ds = make_dataset(
        {"pfcp.a": ("num", np.full(3, np.nan)), "pfcp.b": ("num", np.arange(3.0))}, 3
    )
    with caplog.at_level("WARNING"):
        state = fit_imputer(ds)
    assert state.fill == (0.0, 1.0)
    assert any("entirely missing" in r.message for r in caplog.records)


# --- scaling ---------------------------------------------------------------------


def test_scaler_median_iqr_convention():
    # train column [1..5]: median 3, IQR 2, so 5 -> 1.0
    ds = make_dataset({"pfcp.a": ("num", np.array([1.0, 2, 3, 4, 5]))}, 5)
    state = fit_scaler(ds)
    assert (state.center, state.scale) == ((3.0,), (2.0,))
    out = apply_scaler(state, ds)
    assert out.matrix[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_scaler_degenerate_centers_only():
    ds = make_dataset({"pfcp.a": ("num", np.full(5, 4.0))}, 5)
    out = apply_scaler(fit_scaler(ds), ds)
    assert out.matrix[:, 0].tolist() == [0.0] * 5


def test_scaler_leaves_categoricals_untouched():
    ds = make_dataset(
        {"pfcp.kind": ("cat", np.array([0, 1, 2])), "pfcp.a": ("num", np.array([1.0, 2, 3]))}, 3
    )
    out = apply_scaler(fit_scaler(ds), ds)
    assert out.matrix[:, 0].tolist() == [0, 1, 2]
    assert out.matrix[:, 1].tolist() == [-1.0, 0.0, 1.0]


# --- full pipeline ----------------------------------------------------------------


def test_pipeline_requires_benign_training():
    ds = make_dataset({"pfcp.a": ("num", np.arange(4.0))}, 4,
                      labels=[ClassLabel.NORMAL] * 3 + [ClassLabel.FLOOD])
    with pytest.raises(GuidelineViolation) as err:
        fit_pipeline(ds)
    assert err.value.guideline == "GT4"


def test_pipeline_rejects_empty_survivors():
    ds = make_dataset({"ip.src": ("cat", np.array([0, 1, 2]))}, 3, env={"ip.src": True})
    with pytest.raises(PipelineError):
        fit_pipeline(ds)


def test_pipeline_rejects_an_empty_training_split():
    train = synth_benign(SynthConfig(n_benign=50, seed=3), default_schema())
    with pytest.raises(PipelineError, match="no benign training rows"):
        fit_pipeline(train.subset(np.zeros(len(train), dtype=bool)))


def test_pipeline_transform_deterministic_and_stateless():
    schema = default_schema()
    train = synth_benign(SynthConfig(n_benign=300, seed=3), schema)
    other = synth_benign(SynthConfig(n_benign=50, seed=4), schema)
    model = fit_pipeline(train)
    state = model.to_json_dict()
    a = transform(model, other)
    b = transform(model, other)
    assert np.array_equal(a.matrix, b.matrix)
    assert model.to_json_dict() == state


def test_pipeline_output_is_clean_and_normalized():
    schema = default_schema()
    train = synth_benign(SynthConfig(n_benign=501, seed=3), schema)  # odd count
    model = fit_pipeline(train, scaling_enabled=True)
    out = transform(model, train)
    numerical = out.matrix[:, out.schema.numerical_positions]
    assert not np.isnan(numerical).any()
    categorical = np.delete(out.matrix, out.schema.numerical_positions, axis=1)
    assert (categorical != MISSING_CODE).all()
    med = np.quantile(numerical, 0.5, axis=0)
    iqr = np.quantile(numerical, 0.75, axis=0) - np.quantile(numerical, 0.25, axis=0)
    assert np.abs(med).max() < 1e-9
    assert np.abs(iqr - 1.0).max() < 1e-9
    # no environment-dependent name survives
    for name in out.schema.names:
        assert not name.startswith(("ip.src", "ip.dst"))
        assert not name.endswith(("srcport", "dstport"))
        assert "time_epoch" not in name


def test_pipeline_scaling_toggle():
    schema = default_schema()
    train = synth_benign(SynthConfig(n_benign=200, seed=3), schema)
    model = fit_pipeline(train, scaling_enabled=False)
    assert model.scaler is None
    out = transform(model, train)
    out_cols = list(out.schema.numerical_positions)
    src_cols = [train.schema.position(out.schema.names[j]) for j in out_cols]
    assert np.array_equal(out.matrix[:, out_cols], train.matrix[:, src_cols])


def test_pipeline_model_roundtrip(tmp_path):
    schema = default_schema()
    train = synth_benign(SynthConfig(n_benign=120, seed=6), schema)
    model = fit_pipeline(train)
    path = tmp_path / "pipeline.json"
    model.save(path)
    loaded = PipelineModel.load(path)
    assert loaded.to_json_dict() == model.to_json_dict()
    out_a = transform(model, train)
    out_b = transform(loaded, train)
    assert np.array_equal(out_a.matrix, out_b.matrix)


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc: doc["imputer"]["fill"].pop(),
        lambda doc: doc["scaler"]["scale"].append(1.0),
        lambda doc: doc["imputer"]["regressions"].update({"pfcp.msg_type": [0.0]}),
    ],
    ids=["short-fill", "long-scale", "regression-on-categorical"],
)
def test_pipeline_state_must_fit_its_schema(tmp_path, damage):
    train = synth_benign(SynthConfig(n_benign=120, seed=6), default_schema())
    doc = fit_pipeline(train).to_json_dict()
    damage(doc)
    (tmp_path / "pipeline.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="pipeline"):
        PipelineModel.load(tmp_path / "pipeline.json")


# --- imputation golden ---------------------------------------------------------


def _blank_cells(path, rate, seed):
    """Empty about ``rate`` of the feature cells of a saved CSV, in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rng = np.random.default_rng(seed)
    for row in rows[1:]:
        for j in np.flatnonzero(rng.random(len(row) - 1) < rate):
            row[j] = ""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_imputation_path_golden(tmp_path):
    """Pipeline state and transformed output on a corpus with ~8% empty
    cells, so the regression imputer runs both at fit and at transform."""
    train, _, test = synth_benchmark_splits(seed=11, scale=0.05)
    dirty = {}
    for seed, (name, ds) in enumerate((("train", train), ("test", test))):
        save_csv(ds, tmp_path / f"{name}.csv")
        _blank_cells(tmp_path / f"{name}.csv", 0.08, seed)
        dirty[name] = load_csv(tmp_path / f"{name}.csv", train.schema)
    model = fit_pipeline(dirty["train"])
    assert model.imputer.regressions
    state = json.dumps(model.to_json_dict(), sort_keys=True).encode()
    digests = {"pipeline": hashlib.sha256(state).hexdigest()}
    for name, ds in dirty.items():
        save_csv(transform(model, ds), tmp_path / f"out-{name}.csv")
        digests[name] = hashlib.sha256((tmp_path / f"out-{name}.csv").read_bytes()).hexdigest()
    assert digests == {
        "pipeline": "adc3feb5999399b68218d7558d21d4584becbe32492bb53d5b4a82d4a394a2c5",
        "train": "76309adf33e34ee9cf3638859aa64f1e8a6348576a9acaba599cf6f661bc5e25",
        "test": "3309c4a731794f2e3c311ae70fea068af5c694bd56eaee77241bd1db07e11cff",
    }
