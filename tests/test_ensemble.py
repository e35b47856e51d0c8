import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfcpbench import ensemble as ens_mod
from pfcpbench.cli import load_any_model
from pfcpbench.detectors import DetectorConfig, DetectorKind, fit
from pfcpbench.ensemble import (
    PRESETS,
    SOLVER_MAX_PASSES,
    SOLVER_TOL,
    EnsembleSpec,
    _dual_coordinate_ascent,
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
    X = ds.matrix
    return np.column_stack([model.score_batch(X) for model in bases])


def _attacks(ds):
    """Whether each row of ``ds`` is an attack."""
    return np.array([lab is not ClassLabel.NORMAL for lab in ds.labels], dtype=bool)


def _fit(spec, bases, validation):
    return fit_ensemble(spec, bases, _base_scores(bases, validation), _attacks(validation))


def test_fit_ensemble_rejects_misshapen_base_scores():
    spec, bases, train, validation = _toy_setting()
    S = _base_scores(bases, validation)
    for bad in (S[:, :1], S[1:], S.ravel()):
        with pytest.raises(SchemaError, match="base scores have shape"):
            fit_ensemble(spec, bases, bad, _attacks(validation))


def test_preset_column_order_matches_base_listing(bench):
    # an ensemble's score is its margin over its bases' columns in listed order
    spec = PRESETS["HKAIP"]
    model = bench["ensembles"]["HKAIP"]
    assert tuple(m.kind for m in model.base_models) == spec.base_kinds
    X = bench["validation"].matrix
    S = np.column_stack([bench["detectors"][k].score_batch(X) for k in spec.base_kinds])
    assert S.shape[1] == 5
    assert np.array_equal(model.score_batch(X), model.margin(S))


def test_separable_clouds_reach_perfect_training_accuracy():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation)
    flagged = model.margin(_base_scores(bases, validation)) > model.tau
    assert np.array_equal(flagged, _attacks(validation))


@pytest.mark.xfail(strict=True, reason=(
    "the solver marks every coordinate active again after a pass whose largest step is below "
    "SOLVER_TOL; the next full pass shrinks some out again, so all(active) never holds at a "
    "pass's end and every fit runs SOLVER_MAX_PASSES"))
def test_solver_stops_once_a_full_pass_moves_every_alpha_less_than_tol(monkeypatch):
    # a full pass around pass 60 already moves no alpha by SOLVER_TOL, so a
    # budget of 100 or 200 passes must give the same alphas
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 12.0])
    y = np.r_[-np.ones(40), np.ones(40)]
    K = _rbf(X, X, gamma=1.0)
    alphas = []
    for passes in (100, 200):
        monkeypatch.setattr(ens_mod, "SOLVER_MAX_PASSES", passes)
        alphas.append(_dual_coordinate_ascent(K, y, C=10.0))
    assert np.array_equal(*alphas)


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
    model = _fit(spec, bases, validation)
    margins = model.score_batch(validation.matrix)
    decisions = margins > model.tau
    assert decisions.sum() in (0, len(decisions))
    assert not decisions.any()  # majority class is benign


def test_decision_boundary_is_strict():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation)
    S = _base_scores(bases, validation)
    margin = model.margin(S[:1])[0]
    model.tau = margin
    assert (model.margin(S[:1]) > model.tau)[0] == np.False_


def test_single_class_validation_rejected():
    spec, bases, train, _ = _toy_setting()
    rng = np.random.default_rng(4)
    benign_only = numeric_dataset(rng.normal(size=(10, 3)))
    with pytest.raises(FitError):
        _fit(spec, bases, benign_only)


def test_base_model_order_enforced():
    spec, bases, train, validation = _toy_setting()
    with pytest.raises(SchemaError):
        _fit(spec, list(reversed(bases)), validation)


def test_refit_determinism():
    spec, bases, train, validation = _toy_setting()
    a = _fit(spec, bases, validation)
    b = _fit(spec, bases, validation)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.abs(a.dual_coef - b.dual_coef).max() < 1e-9


def reference_dual_coordinate_ascent(K, y, C, trace):
    """An earlier form of the solver, on numpy arrays, kept as it was but
    for ``trace``, which records the passes made, the re-check passes and
    whether the tolerance was met."""
    n = len(y)
    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    diag = np.clip(np.diag(K), 1e-12, None)
    active = np.ones(n, dtype=bool)
    trace.update(passes=0, rechecks=0, converged=False)
    for sweep in range(SOLVER_MAX_PASSES):
        trace["passes"] += 1
        max_step = 0.0
        for i in np.flatnonzero(active):
            gradient = y[i] * f[i] - 1.0
            if (alpha[i] == 0.0 and gradient > SOLVER_TOL) or (
                alpha[i] == C and gradient < -SOLVER_TOL
            ):
                active[i] = False
                continue
            new_alpha = min(max(alpha[i] - gradient / diag[i], 0.0), C)
            step = new_alpha - alpha[i]
            if step != 0.0:
                f += step * y[i] * K[:, i]
                alpha[i] = new_alpha
                max_step = max(max_step, abs(step))
        if max_step < SOLVER_TOL:
            if active.all():
                trace["converged"] = True
                break
            active[:] = True  # optimality must hold on the full set
            trace["rechecks"] += 1
    return alpha


@pytest.mark.parametrize(
    "case, seed, C, gamma",
    [("C-binds", 0, 0.5, 1.0), ("recheck-then-converge", 7, 10.0, 10.0),
     ("out-of-passes", 0, 1000.0, 0.01), ("converges", 0, 100.0, 100.0)],
)
def test_solver_matches_reference_loop(case, seed, C, gamma):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(60, 3))
    y = np.where(rng.random(60) < 0.3, 1.0, -1.0)
    K = _rbf(Z, Z, gamma)
    trace = {}
    want = reference_dual_coordinate_ascent(K, y, C, trace)
    got = _dual_coordinate_ascent(K, y, C)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert {
        "C-binds": (want == C).any() and trace["rechecks"] > 0,
        "recheck-then-converge": trace["rechecks"] > 0 and trace["converged"],
        "out-of-passes": trace["passes"] == SOLVER_MAX_PASSES and not trace["converged"],
        "converges": trace["converged"] and trace["rechecks"] == 0,
    }[case]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_solver_matches_reference_loop_on_preset_kernels(bench, name):
    spec = PRESETS[name]
    validation = bench["validation"]
    S = np.column_stack([bench["detectors"][k].score_batch(validation.matrix) for k in spec.base_kinds])
    Z = (S - S.mean(axis=0)) / np.maximum(S.std(axis=0), 1e-12)
    y = np.array([1.0 if lab is not ClassLabel.NORMAL else -1.0 for lab in validation.labels])
    K = _rbf(Z, Z, spec.gamma)
    want = reference_dual_coordinate_ascent(K, y, spec.C, {})
    assert np.array_equal(_dual_coordinate_ascent(K, y, spec.C), want)


def test_base_permutation_leaves_decisions_unchanged():
    # permuting base order (spec and models together) and refitting gives
    # identical decisions: the kernel is coordinate-permutation invariant
    spec, bases, train, validation = _toy_setting()
    forward = _fit(spec, bases, validation)
    spec_rev = EnsembleSpec("toy-rev", tuple(reversed(spec.base_kinds)), C=spec.C, gamma=spec.gamma)
    backward = _fit(spec_rev, list(reversed(bases)), validation)
    X = validation.matrix
    assert np.array_equal(
        forward.score_batch(X) > forward.tau, backward.score_batch(X) > backward.tau
    )


def test_margin_is_locally_lipschitz():
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation)
    S = _base_scores(bases, validation)
    base = model.margin(S)
    bumped = S.copy()
    bumped[:, 0] += 1e-9
    assert np.abs(model.margin(bumped) - base).max() < 1e-6


def _saved_ensemble(tmp_path):
    """A fitted toy ensemble saved with its bases next to it."""
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation)
    for base in bases:
        base.save(tmp_path / f"{base.kind.value}.json")
    path = tmp_path / "ens.json"
    model.save(path)
    return model, path, validation


def test_ensemble_serialization_roundtrip(tmp_path):
    model, path, validation = _saved_ensemble(tmp_path)
    loaded = load_any_model(path)
    X = validation.matrix
    assert np.array_equal(loaded.score_batch(X), model.score_batch(X))
    assert loaded.spec == model.spec


def test_ensemble_saves_without_its_bases_and_loads_once_they_are_beside_it(tmp_path):
    spec, bases, train, validation = _toy_setting()
    model = _fit(spec, bases, validation)
    path = tmp_path / "ens.json"
    model.save(path)
    assert [p.name for p in tmp_path.glob("*.json")] == ["ens.json"]
    for base in bases:
        base.save(tmp_path / f"{base.kind.value}.json")
        # the sha256 the ensemble names a base by is the one its container records
        assert json.loads((tmp_path / f"{base.kind.value}.json").read_text())["sha256"] == base.digest
    X = validation.matrix
    assert np.array_equal(load_any_model(path).score_batch(X), model.score_batch(X))


def test_saved_containers_hold_only_what_loading_reads(tmp_path):
    # a field that nothing reads back must not creep into a container
    _, path, validation = _saved_ensemble(tmp_path)
    detector = json.loads((tmp_path / "HBOS.json").read_text())
    # "sha256" is the container's own digest, which loading checks
    assert set(detector) == {"format", "kind", "params", "contamination", "tau", "d", "state",
                             "sha256"}
    assert detector["d"] == validation.matrix.shape[1]
    assert set(json.loads(path.read_text())) == {
        "format", "name", "C", "gamma", "score_mean", "score_sd", "support_vectors",
        "dual_coef", "bases", "sha256",
    }


def test_ensemble_embedding_a_v1_detector_is_rejected(tmp_path):
    _, path, _ = _saved_ensemble(tmp_path)
    base = tmp_path / "HBOS.json"
    doc = json.loads(base.read_text())
    doc["format"] = "pfcpbench-detector-v1"
    # the base keeps its recorded sha256, so only its format is wrong
    base.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="pfcpbench-detector-v1"):
        load_any_model(path)


@pytest.fixture(scope="module")
def saved_containers(tmp_path_factory):
    """The toy ensemble saved with its bases, and an IForest (int state
    values) beside them; returns the directory and the fitted models by
    container name."""
    directory = tmp_path_factory.mktemp("containers")
    model, path, validation = _saved_ensemble(directory)
    fitted = {path.name: model, **{f"{b.kind.value}.json": b for b in model.base_models}}
    iforest = fit(DetectorConfig(kind=DetectorKind.IFOREST, params={"trees": 5}),
                  _toy_setting()[2], seed=1)
    iforest.save(directory / "IForest.json")
    fitted["IForest.json"] = iforest
    return directory, fitted, validation.matrix


def _value_paths(value, path=()):
    """The path to every value inside the JSON ``value``, below its root."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _value_paths(item, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=200)
@given(data=st.data())
def test_replacing_one_value_of_a_container_fails_or_changes_nothing(saved_containers, data):
    directory, fitted, X = saved_containers
    name = data.draw(st.sampled_from(sorted(fitted)))
    target = directory / name
    original = target.read_bytes()
    doc = json.loads(original)
    where = data.draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = data.draw(JSON_VALUES)
    target.write_text(json.dumps(doc, sort_keys=True))
    try:
        loaded = load_any_model(target)
    except SchemaError:
        return
    finally:
        target.write_bytes(original)
    assert loaded.tau == fitted[name].tau
    assert np.array_equal(loaded.score_batch(X), fitted[name].score_batch(X))


def test_container_that_no_longer_hashes_to_its_digest_is_rejected(tmp_path):
    _saved_ensemble(tmp_path)
    for name, key in (("HBOS.json", "tau"), ("ens.json", "gamma")):
        doc = json.loads((tmp_path / name).read_text())
        doc[key] += 1.0
        (tmp_path / name).write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(SchemaError, match="does not hash to its recorded sha256"):
            load_any_model(tmp_path / name)
