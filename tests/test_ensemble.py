import hashlib
import json

import numpy as np
import pytest

from pfcpbench.cli import load_any_model
from pfcpbench.detectors import DetectorConfig, DetectorKind, fit
from pfcpbench.ensemble import (
    PRESETS,
    EnsembleSpec,
    _rbf,
    fit_ensemble,
)
from pfcpbench.errors import FitError, SchemaError
from pfcpbench.traffic import ClassLabel

from conftest import numeric_dataset


def test_preset_catalog():
    assert set(PRESETS) == {"HKAIP", "HKGIP", "HKLIP", "HKLIF"}
    for name in ("HKAIP", "HKGIP", "HKLIP"):
        assert PRESETS[name].C == 10.0 and PRESETS[name].gamma == 10.0
        assert len(PRESETS[name].base_kinds) == 5
        assert PRESETS[name].base_kinds[0] is DetectorKind.HBOS
        assert PRESETS[name].base_kinds[1] is DetectorKind.KNN
    assert PRESETS["HKLIF"].C == 100.0 and PRESETS["HKLIF"].gamma == 100.0
    assert PRESETS["HKLIF"].base_kinds[-1] is DetectorKind.FEATURE_BAGGING


def test_spec_validation():
    with pytest.raises(SchemaError):
        EnsembleSpec("x", (), C=1.0, gamma=1.0)
    with pytest.raises(SchemaError):
        EnsembleSpec("x", (DetectorKind.HBOS, DetectorKind.HBOS), C=1.0, gamma=1.0)
    with pytest.raises(SchemaError):
        EnsembleSpec("x", (DetectorKind.HBOS,), C=-1.0, gamma=1.0)


def _toy_setting(seed=0, n_val_benign=40, n_val_attack=15):
    rng = np.random.default_rng(seed)
    train = numeric_dataset(rng.normal(size=(120, 3)))
    benign = rng.normal(size=(n_val_benign, 3))
    attacks = rng.normal(size=(n_val_attack, 3)) + 12.0
    X = np.vstack([benign, attacks])
    labels = [ClassLabel.NORMAL] * n_val_benign + [ClassLabel.FLOOD] * n_val_attack
    validation = numeric_dataset(X, labels=labels)
    spec = EnsembleSpec("toy", (DetectorKind.HBOS, DetectorKind.KNN), C=10.0, gamma=10.0)
    bases = [fit(DetectorConfig(kind=k), train, seed=1) for k in spec.base_kinds]
    return spec, bases, train, validation


def _base_scores(bases, ds):
    """Validation score columns, one per base in listed order."""
    X = ds.to_matrix()
    return np.column_stack([model.score_batch(X) for model in bases])


def _fit(spec, bases, validation, seed):
    return fit_ensemble(spec, bases, validation, _base_scores(bases, validation), seed=seed)


def test_fit_ensemble_rejects_misshapen_base_scores():
    spec, bases, train, validation = _toy_setting()
    S = _base_scores(bases, validation)
    for bad in (S[:, :1], S[1:], S.ravel()):
        with pytest.raises(SchemaError, match="base scores have shape"):
            fit_ensemble(spec, bases, validation, bad, seed=1)


def test_preset_column_order_matches_base_listing(bench):
    # an ensemble's score is its margin over its bases' columns in listed order
    spec = PRESETS["HKAIP"]
    model = bench["ensembles"]["HKAIP"]
    assert tuple(m.kind for m in model.base_models) == spec.base_kinds
    X = bench["validation"].to_matrix()
    S = np.column_stack([bench["detectors"][k].score_batch(X) for k in spec.base_kinds])
    assert S.shape[1] == 5
    assert np.array_equal(model.score_batch(X), model.margin(S))


def test_separable_clouds_reach_perfect_training_accuracy():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation, 7)
    assert model.train_accuracy == 1.0


def test_kernel_self_similarity_is_one():
    rng = np.random.default_rng(2)
    U = rng.normal(size=(10, 4))
    K = _rbf(U, U, gamma=3.0)
    assert np.allclose(np.diag(K), 1.0)


def test_vanishing_gamma_degenerates_to_majority_class():
    # gamma -> 0 makes the kernel constant: the margin collapses to one
    # sign, so every decision lands on the majority (benign) side
    rng = np.random.default_rng(3)
    train = numeric_dataset(rng.normal(size=(60, 2)))
    benign = rng.normal(size=(8, 2))
    attacks = rng.normal(size=(2, 2)) + 9.0
    validation = numeric_dataset(
        np.vstack([benign, attacks]),
        labels=[ClassLabel.NORMAL] * 8 + [ClassLabel.FLOOD] * 2,
    )
    spec = EnsembleSpec("flat", (DetectorKind.KNN,), C=1.0, gamma=1e-9)
    bases = [fit(DetectorConfig(kind=DetectorKind.KNN), train, seed=1)]
    model = _fit(spec, bases, validation, 1)
    margins = model.score_batch(validation.to_matrix())
    decisions = margins > model.tau
    assert decisions.sum() in (0, len(decisions))
    assert not decisions.any()  # majority class is benign


def test_decision_boundary_is_strict():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation, 7)
    S = _base_scores(bases, validation)
    margin = model.margin(S[:1])[0]
    model.tau = margin
    assert (model.margin(S[:1]) > model.tau)[0] == np.False_


def test_single_class_validation_rejected():
    spec, bases, train, _ = _toy_setting()
    rng = np.random.default_rng(4)
    benign_only = numeric_dataset(rng.normal(size=(10, 3)))
    with pytest.raises(FitError):
        _fit(spec, bases, benign_only, 1)


def test_base_model_order_enforced():
    spec, bases, train, validation = _toy_setting()
    with pytest.raises(SchemaError):
        _fit(spec, list(reversed(bases)), validation, 1)


def test_refit_determinism():
    spec, bases, train, validation = _toy_setting()
    a = _fit(spec, bases, validation, 5)
    b = _fit(spec, bases, validation, 5)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.abs(a.dual_coef - b.dual_coef).max() < 1e-9


def test_base_permutation_leaves_decisions_unchanged():
    # permuting base order (spec and models together) and refitting gives
    # identical decisions: the kernel is coordinate-permutation invariant
    spec, bases, train, validation = _toy_setting()
    forward = _fit(spec, bases, validation, 5)
    spec_rev = EnsembleSpec("toy-rev", tuple(reversed(spec.base_kinds)), C=spec.C, gamma=spec.gamma)
    backward = _fit(spec_rev, list(reversed(bases)), validation, 5)
    X = validation.to_matrix()
    assert np.array_equal(
        forward.score_batch(X) > forward.tau, backward.score_batch(X) > backward.tau
    )


def test_margin_is_locally_lipschitz():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation, 5)
    S = _base_scores(bases, validation)
    base = model.margin(S)
    bumped = S.copy()
    bumped[:, 0] += 1e-9
    assert np.abs(model.margin(bumped) - base).max() < 1e-6


def _saved_ensemble(tmp_path):
    """A fitted toy ensemble saved with its bases next to it."""
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation, 5)
    for base in bases:
        base.save(tmp_path / f"{base.kind.value}.json")
    path = tmp_path / "ens.json"
    model.save(path)
    return model, path, validation


def test_ensemble_serialization_roundtrip(tmp_path):
    model, path, validation = _saved_ensemble(tmp_path)
    loaded = load_any_model(path)
    X = validation.to_matrix()
    assert np.array_equal(loaded.score_batch(X), model.score_batch(X))
    assert loaded.spec == model.spec


def test_ensemble_embedding_a_v1_detector_is_rejected(tmp_path):
    _, path, _ = _saved_ensemble(tmp_path)
    base = tmp_path / "HBOS.json"
    doc = json.loads(base.read_text())
    doc["format"] = "pfcpbench-detector-v1"
    base.write_text(json.dumps(doc))
    # record the rewritten base's hash, so only its format is wrong
    ensemble = json.loads(path.read_text())
    ensemble["bases"][0]["sha256"] = hashlib.sha256(base.read_bytes()).hexdigest()
    path.write_text(json.dumps(ensemble))
    with pytest.raises(SchemaError, match="pfcpbench-detector-v1"):
        load_any_model(path)
