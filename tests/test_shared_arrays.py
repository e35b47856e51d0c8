"""Shared state arrays: every state array is written to
``models/<sha256>.<dtype>`` and referenced from its container, so the
training rows that kNN, ABOD, LOF and FeatureBagging keep, and the sorted
columns of COPOD and ECOD, are each stored once."""

import hashlib
import json

import numpy as np
import pytest

from pfcpbench.cli import _trained_models, load_any_model, main
from pfcpbench.corpus import synth_benchmark_splits
from pfcpbench.detectors import DetectorConfig, DetectorKind, fit
from pfcpbench.ensemble import PRESETS, fit_ensemble
from pfcpbench.preprocess import fit_pipeline, transform
from pfcpbench.traffic import ClassLabel

SPLITS = ("train", "validation", "test")
SHARING_KINDS = ("kNN", "ABOD", "LOF", "FeatureBagging", "COPOD", "ECOD")

# Bytes of every file of models/ after training the six sharing kinds at scale
# 0.03 (``shared_runs``): 301,016 with every array a file, 341,286 when only
# the two shared arrays were files and the rest inline base64, and 893,850
# when each container embedded its own base64 copy.  One more copy of either
# 92 kB array passes the ceiling.
MODELS_BYTES_CEILING = 352_000


@pytest.fixture(scope="module")
def saved_catalog(tmp_path_factory):
    """All 12 kinds and 4 presets fitted at scale 0.03 and saved as the train
    command saves them; returns the run directory, the fitted models by
    name, and the preprocessed splits."""
    raw = synth_benchmark_splits(seed=42, scale=0.03)
    pipeline = fit_pipeline(raw[0], scaling_enabled=True)
    splits = {name: transform(pipeline, ds) for name, ds in zip(SPLITS, raw)}
    run_dir = tmp_path_factory.mktemp("catalog")
    models_dir = run_dir / "models"
    models_dir.mkdir()
    fitted = {}
    for kind in DetectorKind:
        model = fit(DetectorConfig(kind=kind), splits["train"], seed=42)
        model.save(models_dir / f"{kind.value}.json")
        fitted[kind.value] = model
    V = splits["validation"]
    attacks = np.array([lab is not ClassLabel.NORMAL for lab in V.labels], dtype=bool)
    for name, spec in PRESETS.items():
        bases = [fitted[kind.value] for kind in spec.base_kinds]
        scores = np.column_stack([base.score_batch(V.matrix) for base in bases])
        model = fit_ensemble(spec, bases, scores, attacks)
        model.save(models_dir / f"{name}.json")
        fitted[name] = model
    return run_dir, fitted, splits


def test_ensembles_loaded_before_their_detectors_share_them(saved_catalog):
    run_dir, _, _ = saved_catalog
    paths = sorted((run_dir / "models").glob("*.json"), key=lambda path: path.stem not in PRESETS)
    assert paths[0].stem in PRESETS
    loaded: dict = {}
    models = {path.stem: load_any_model(path, loaded) for path in paths}
    for name, spec in PRESETS.items():
        for kind, base in zip(spec.base_kinds, models[name].base_models):
            assert base is models[kind.value]


def test_loaded_models_score_every_split_as_the_fitted_ones(saved_catalog):
    run_dir, fitted, splits = saved_catalog
    loaded = dict(_trained_models(run_dir, None))
    assert set(loaded) == set(fitted) and len(loaded) == 16
    for name, model in loaded.items():
        for split in SPLITS:
            X = splits[split].matrix
            assert np.array_equal(model.score_batch(X), fitted[name].score_batch(X)), (name, split)


@pytest.mark.parametrize("target", ["kNN", "COPOD", "HKLIF"])
def test_one_target_loads_cold_with_its_shared_arrays(saved_catalog, target):
    # the attack stage loads its targets alone
    run_dir, fitted, splits = saved_catalog
    ((name, model),) = _trained_models(run_dir, (target,))
    assert name == target
    X = splits["test"].matrix
    assert np.array_equal(model.score_batch(X), fitted[target].score_batch(X))


def test_one_load_reads_each_shared_file_once(saved_catalog):
    run_dir, _, _ = saved_catalog
    models = dict(_trained_models(run_dir, None))
    rows = [models[kind].state["train"] for kind in ("kNN", "ABOD", "LOF", "FeatureBagging")]
    assert all(np.shares_memory(rows[0], other) for other in rows[1:])
    assert np.shares_memory(models["COPOD"].state["sorted"], models["ECOD"].state["sorted"])
    hklif = models["HKLIF"]
    assert all(base is models[base.kind.value] for base in hklif.base_models)


def _referenced_file(models_dir, kind: str, key: str):
    ref = json.loads((models_dir / f"{kind}.json").read_text())["state"][key]
    return models_dir / f"{ref['sha256']}.{ref['dtype'][1:]}"


def _assert_no_two_files_alike(models_dir):
    contents = [p.read_bytes() for p in models_dir.iterdir()]
    assert len(set(contents)) == len(contents)


def test_training_matrix_is_stored_once(saved_catalog):
    run_dir, fitted, splits = saved_catalog
    models_dir = run_dir / "models"
    tables = {
        "train": (splits["train"].matrix, ("kNN", "ABOD", "LOF", "FeatureBagging")),
        "sorted": (fitted["COPOD"].state["sorted"], ("COPOD", "ECOD")),
    }
    for key, (table, kinds) in tables.items():
        raw = table.astype("<f8").tobytes()
        (path,) = {_referenced_file(models_dir, kind, key) for kind in kinds}
        assert path.name == f"{hashlib.sha256(raw).hexdigest()}.f8"
        assert path.read_bytes() == raw
        assert [p.name for p in models_dir.iterdir() if raw in p.read_bytes()] == [path.name]
    _assert_no_two_files_alike(models_dir)
    assert not [p.name for p in models_dir.glob("*.json") if b'"data"' in p.read_bytes()]


def _train_into(tmp_path, tag: str, kinds=SHARING_KINDS):
    config = tmp_path / f"config_{tag}.json"
    config.write_text(json.dumps({
        "seed": 42,
        "out": str(tmp_path / f"runs_{tag}"),
        "corpus": {"synth": {"scale": 0.03}},
        "pipeline": {"scaling": True},
        "detectors": [{"kind": kind} for kind in kinds],
        "ensembles": [],
    }))
    for command in ("preprocess", "train"):
        assert main([command, "--config", str(config)]) == 0
    (run_dir,) = (tmp_path / f"runs_{tag}").glob("run-*")
    return run_dir / "models"


@pytest.fixture(scope="module")
def shared_runs(tmp_path_factory):
    """models/ of the six sharing kinds, trained twice into two out roots."""
    tmp_path = tmp_path_factory.mktemp("shared")
    return _train_into(tmp_path, "a"), _train_into(tmp_path, "b")


def test_shared_files_rerun_byte_identically(shared_runs):
    a, b = shared_runs
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    shared = {_referenced_file(a, kind, "train").name for kind in ("kNN", "ABOD", "LOF",
                                                                   "FeatureBagging")}
    shared |= {_referenced_file(a, kind, "sorted").name for kind in ("COPOD", "ECOD")}
    assert len(shared) == 2
    _assert_no_two_files_alike(a)


def test_models_dir_stays_under_its_byte_ceiling(shared_runs):
    # a container that embeds a shared array again fails here
    total = sum(p.stat().st_size for p in shared_runs[0].glob("*"))
    assert total <= MODELS_BYTES_CEILING, total


def test_retraining_on_other_rows_leaves_no_stale_shared_file(tmp_path):
    models_dir = _train_into(tmp_path, "retrain", kinds=("FeatureBagging",))
    before = _referenced_file(models_dir, "FeatureBagging", "train")
    run_dir = models_dir.parent
    train_csv = run_dir / "preprocessed" / "train.csv"
    lines = train_csv.read_text().splitlines(keepends=True)
    train_csv.write_text("".join(lines[:-1]))
    config = tmp_path / "config_retrain.json"
    assert main(["train", "--config", str(config)]) == 0
    after = _referenced_file(models_dir, "FeatureBagging", "train")
    assert after.name != before.name and not before.exists()
    # every file left is the container or one it references
    state = json.loads((models_dir / "FeatureBagging.json").read_text())["state"]
    assert sorted(p.name for p in models_dir.iterdir()) == sorted(
        ["FeatureBagging.json"]
        + [_referenced_file(models_dir, "FeatureBagging", key).name
           for key, value in state.items() if isinstance(value, dict)]
    )
    assert [name for name, _ in _trained_models(run_dir, None)] == ["FeatureBagging"]
    assert main(["evaluate", "--config", str(config)]) == 0
