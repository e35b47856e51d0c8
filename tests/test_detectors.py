import itertools
import math

import numpy as np
import pytest

from pfcpbench.cli import load_any_model
from pfcpbench.detectors import (
    DetectorConfig,
    DetectorKind,
    calibrate_threshold,
    fit,
    grid_search,
)
from pfcpbench.detectors.common import CHUNK_ROWS, EPS
from pfcpbench.detectors.density import _avg_path
from pfcpbench.errors import FitError, GridSearchError, GuidelineViolation, SchemaError
from pfcpbench.evaluate import auc, threshold_metrics
from pfcpbench.seeding import rng_for
from pfcpbench.traffic import ClassLabel

from conftest import numeric_dataset

RANDOMIZED = (
    DetectorKind.IFOREST,
    DetectorKind.LODA,
    DetectorKind.INNE,
    DetectorKind.FEATURE_BAGGING,
)


# --- brute-force oracles (independent loop implementations) -------------------


def brute_knn(train: np.ndarray, q: np.ndarray, k: int) -> float:
    dists = sorted(math.dist(q, t) for t in train)
    return dists[k - 1]


def brute_lof(train: np.ndarray, queries: np.ndarray, k: int) -> list[float]:
    n = len(train)

    def dist(a, b):
        return math.dist(a, b)

    kdist = []
    neighbors = []
    for i in range(n):
        ds = sorted(dist(train[i], train[j]) for j in range(n) if j != i)
        kd = ds[k - 1]
        kdist.append(kd)
        neighbors.append([j for j in range(n) if j != i and dist(train[i], train[j]) <= kd])
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], dist(train[i], train[j])) for j in neighbors[i]]
        lrd.append(1.0 / (sum(reach) / len(reach)))
    out = []
    for q in queries:
        ds = sorted(dist(q, t) for t in train)
        kd = ds[k - 1]
        nq = [j for j in range(n) if dist(q, train[j]) <= kd]
        reach = [max(kdist[j], dist(q, train[j])) for j in nq]
        lrd_q = 1.0 / (sum(reach) / len(reach))
        out.append(sum(lrd[j] for j in nq) / len(nq) / lrd_q)
    return out


def test_knn_and_lof_match_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(8, 65))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(6, n - 1)))
        X = rng.normal(size=(n, d))
        Q = rng.normal(size=(10, d))
        train = numeric_dataset(X)
        knn = fit(DetectorConfig(kind=DetectorKind.KNN, params={"k": k}), train)
        got = knn.score_batch(Q)
        want = [brute_knn(X, q, k) for q in Q]
        assert np.abs(got - np.array(want)).max() < 1e-9
        lof = fit(DetectorConfig(kind=DetectorKind.LOF, params={"k": k}), train)
        got = lof.score_batch(Q)
        want = brute_lof(X, Q, k)
        assert np.abs(got - np.array(want)).max() < 1e-9


# --- spec'd spot checks --------------------------------------------------------


def test_knn_trivial_examples():
    train = numeric_dataset(np.array([[0.0], [10.0]]))
    model = fit(DetectorConfig(kind=DetectorKind.KNN, params={"k": 1}), train)
    s = model.score_batch(np.array([[5.0], [0.0]]))
    assert s[0] == pytest.approx(5.0)
    assert s[1] == 0.0


def test_knn_monotone_along_ray():
    rng = np.random.default_rng(2)
    train = numeric_dataset(rng.normal(size=(30, 3)))
    model = fit(DetectorConfig(kind=DetectorKind.KNN), train)
    origin = train.numerical[0]
    direction = np.array([1.0, 0.5, -0.25])
    direction /= np.linalg.norm(direction)
    scores = model.score_batch(origin + np.linspace(5, 50, 12)[:, None] * direction)
    assert np.all(np.diff(scores) >= -1e-12)


def _loop_histogram_heights(values, lo, hi, bins):
    if hi <= lo:
        return np.array([float(len(values))])
    idx = np.floor((values - lo) / (hi - lo) * bins).astype(int)
    idx = np.clip(idx, 0, bins - 1)
    return np.bincount(idx, minlength=bins).astype(float)


def _loop_histogram_lookup(queries, lo, hi, heights):
    bins = len(heights)
    if hi <= lo:
        return np.where(queries == lo, heights[0], 0.0)
    with np.errstate(invalid="ignore"):  # NaN and inf queries end outside the range
        idx = np.floor((queries - lo) / (hi - lo) * bins).astype(int)
    inside = (queries >= lo) & (queries <= hi)
    idx = np.clip(idx, 0, bins - 1)
    return np.where(inside, heights[idx], 0.0)


def loop_hbos(X: np.ndarray, Q: np.ndarray, bins: int) -> np.ndarray:
    """HBOS as one histogram per feature, scored feature by feature."""
    total = np.zeros(Q.shape[0])
    for j in range(X.shape[1]):
        lo, hi = float(X[:, j].min()), float(X[:, j].max())
        counts = _loop_histogram_heights(X[:, j], lo, hi, bins)
        h = _loop_histogram_lookup(Q[:, j], lo, hi, counts / counts.max())
        total += -np.log(h + EPS)
    return total


def loop_loda(X: np.ndarray, Q: np.ndarray, W: np.ndarray, bins: int) -> np.ndarray:
    """LODA given its projections, one projection histogram at a time."""
    Z, Zq = X @ W.T, Q @ W.T
    total = np.zeros(Q.shape[0])
    for i in range(W.shape[0]):
        lo, hi = float(Z[:, i].min()), float(Z[:, i].max())
        counts = _loop_histogram_heights(Z[:, i], lo, hi, bins)
        mass = _loop_histogram_lookup(Zq[:, i], lo, hi, counts / X.shape[0])
        total += -np.log(mass + EPS)
    return total / W.shape[0]


def _histogram_edge_case_data(seed: int):
    """Training columns that are continuous, integer-valued (values on bin
    edges) and constant, with queries at lo, hi, every bin edge, beyond both
    ends and off the constant."""
    rng = np.random.default_rng(seed)
    n = 60
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 20, size=n).astype(float),
        np.full(n, 3.5),
        rng.exponential(size=n),
        np.zeros(n),
        rng.integers(-2, 3, size=n).astype(float),
    ])
    lo, hi = X.min(axis=0), X.max(axis=0)
    rows = [X, lo[None], hi[None], lo[None] - 1.0, hi[None] + 1.0,
            lo[None] - 1e-9, hi[None] + 1e-9, (lo + 1e-3)[None], (hi + 7.0)[None]]
    for t in np.linspace(0.0, 1.0, 41):
        rows.append((lo + t * (hi - lo))[None])
    rows.append(rng.normal(scale=10.0, size=(30, X.shape[1])))
    return X, np.vstack(rows)


@pytest.mark.parametrize("bins", [1, 5, 10, 20])
@pytest.mark.parametrize("columns", [slice(None), [2, 4]], ids=["mixed", "constant"])
def test_hbos_and_loda_match_per_feature_loop(bins, columns):
    X, Q = _histogram_edge_case_data(bins)
    X, Q = X[:, columns], Q[:, columns]
    train = numeric_dataset(X)
    hbos = fit(DetectorConfig(kind=DetectorKind.HBOS, params={"bins": bins}), train)
    assert np.array_equal(hbos.score_batch(Q), loop_hbos(X, Q, bins))
    odd = np.tile([np.inf, -np.inf, np.nan], (1, 2))[:, : X.shape[1]]
    assert np.array_equal(hbos.score_batch(odd), loop_hbos(X, odd, bins))
    loda = fit(
        DetectorConfig(kind=DetectorKind.LODA, params={"bins": bins, "projections": 25}), train
    )
    W = loda.state["W"]
    assert np.array_equal(loda.score_batch(Q), loop_loda(X, Q, W, bins))
    batch = hbos.score_batch(Q)
    for i in (0, 60, 61, 62, 63, 64, len(Q) - 1):
        row = Q[i : i + 1]
        assert hbos.score_batch(row)[0] == batch[i]
        # a projection of one row can round differently from the same row's
        # projection in a batch, so LODA is checked row by row against the loop
        assert loda.score_batch(row)[0] == loop_loda(X, row, W, bins)[0]


def test_hbos_single_bin_scores_near_zero():
    train = numeric_dataset(np.linspace(0, 1, 50)[:, None])
    model = fit(DetectorConfig(kind=DetectorKind.HBOS, params={"bins": 1}), train)
    s = model.score_batch(np.array([[0.0], [0.3], [1.0], [2.0]]))
    assert np.all(np.abs(s[:3]) < 1e-5)  # log(1/(1+eps))
    assert s[3] > 10  # out of range hits the floor


def test_gmm_single_component_monotone_in_distance():
    rng = np.random.default_rng(3)
    X = rng.normal(0.0, 1.0, size=(400, 1))
    model = fit(DetectorConfig(kind=DetectorKind.GMM, params={"components": 1}), numeric_dataset(X))
    mean = X.mean()
    # closed form: -log N(x | mu, sigma^2) grows in |x - mu|
    qs = mean + np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    scores = model.score_batch(qs[:, None])
    assert np.all(np.diff(scores) > 0)
    sigma2 = X.var()
    expected = 0.5 * math.log(2 * math.pi * sigma2) + (qs[-1] - mean) ** 2 / (2 * sigma2)
    assert scores[-1] == pytest.approx(float(expected), rel=1e-2)


def test_iforest_scores_bounded():
    rng = np.random.default_rng(4)
    train = numeric_dataset(rng.normal(size=(200, 4)))
    model = fit(DetectorConfig(kind=DetectorKind.IFOREST), train)
    Q = rng.uniform(-50, 50, size=(500, 4))
    s = model.score_batch(Q)
    assert (s > 0).all() and (s <= 1).all()


# --- IForest: the recursive nested-dict forest the flat node arrays replaced ---


def _recursive_grow(X, idx, depth, limit, rng):
    if depth >= limit or len(idx) <= 1:
        return {"size": len(idx)}
    sub = X[idx]
    varying = np.flatnonzero(sub.max(axis=0) - sub.min(axis=0) > 0)
    if varying.size == 0:
        return {"size": len(idx)}
    feat = int(rng.choice(varying))
    threshold = float(rng.uniform(float(sub[:, feat].min()), float(sub[:, feat].max())))
    left_mask = sub[:, feat] < threshold
    return {
        "feature": feat,
        "threshold": threshold,
        "left": _recursive_grow(X, idx[left_mask], depth + 1, limit, rng),
        "right": _recursive_grow(X, idx[~left_mask], depth + 1, limit, rng),
    }


def _recursive_paths(node, Q, idx, depth, out):
    if "size" in node:
        out[idx] = depth + _avg_path(node["size"])
        return
    go_left = Q[idx, node["feature"]] < node["threshold"]
    _recursive_paths(node["left"], Q, idx[go_left], depth + 1, out)
    _recursive_paths(node["right"], Q, idx[~go_left], depth + 1, out)


def recursive_iforest(X, trees, subsample, rng):
    """The forest grown tree by tree as nested dicts, in the same RNG order."""
    n = X.shape[0]
    psi = min(subsample, n)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    forest = [
        _recursive_grow(X, rng.choice(n, size=psi, replace=False), 0, limit, rng)
        for _ in range(trees)
    ]
    return forest, psi


def recursive_iforest_scores(forest, psi, Q):
    paths, buf = np.zeros(Q.shape[0]), np.empty(Q.shape[0])
    for tree in forest:
        _recursive_paths(tree, Q, np.arange(Q.shape[0]), 0, buf)
        paths += buf
    return np.power(2.0, -(paths / len(forest)) / _avg_path(psi))


def _split_points(node):
    if "size" not in node:
        yield node["feature"], node["threshold"]
        yield from _split_points(node["left"])
        yield from _split_points(node["right"])


@pytest.mark.parametrize("trees, subsample", [(1, 2), (30, 64), (100, 256)])
def test_iforest_matches_recursive_tree_walk(trees, subsample):
    rng = np.random.default_rng(trees)
    n = 300
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 5, size=n).astype(float),
        np.full(n, 2.5),  # constant: never split on
        rng.exponential(size=n),
    ])
    params = {"trees": trees, "subsample": subsample}
    model = fit(DetectorConfig(kind=DetectorKind.IFOREST, params=params), numeric_dataset(X), seed=11)
    forest, psi = recursive_iforest(X, trees, subsample, rng_for(11, "detector", "IForest"))
    # queries: a batch crossing a chunk boundary, the constant column moved
    # off its value, and every split threshold hit exactly
    batch = rng.normal(scale=3.0, size=(CHUNK_ROWS + 37, X.shape[1]))
    off_constant = X[:40].copy()
    off_constant[:, 2] = np.linspace(-10.0, 10.0, 40)
    at_split = []
    for feat, threshold in itertools.islice(
        (p for tree in forest for p in _split_points(tree)), 400
    ):
        row = X[len(at_split) % n].copy()
        row[feat] = threshold
        at_split.append(row)
    for Q in (X, batch, off_constant, np.array(at_split)):
        expected = recursive_iforest_scores(forest, psi, Q)
        assert np.array_equal(model.score_batch(Q), expected)
        for i in range(0, len(Q), 7):
            assert model.score_batch(Q[i : i + 1])[0] == expected[i]


def test_pca_all_components_reconstructs_training_points():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    model = fit(
        DetectorConfig(kind=DetectorKind.PCA, params={"variance_fraction": 1.0}),
        numeric_dataset(X),
    )
    s = model.score_batch(X)
    assert np.abs(s).max() < 1e-18


def test_decision_is_strictly_above_threshold():
    train = numeric_dataset(np.arange(20.0)[:, None])
    model = fit(DetectorConfig(kind=DetectorKind.KNN, params={"k": 1}), train)
    model.tau = 3.0
    scores = model.score_batch(np.array([[19.0 + 3.0], [19.0 + 4.0], [19.0 + 2.0]]))
    assert scores[0] == model.tau
    # score == tau is not anomalous
    assert (scores > model.tau).tolist() == [False, True, False]


def test_calibrate_threshold_quantile():
    scores = np.arange(1.0, 101.0)
    assert calibrate_threshold(scores, 0.01) == pytest.approx(99.01)
    # contamination -> 0 pushes tau to the max training score
    assert calibrate_threshold(scores, 1e-9) == pytest.approx(100.0)
    assert calibrate_threshold(np.full(10, 7.0), 0.1) == 7.0


def test_fit_rejects_attack_rows():
    ds = numeric_dataset(np.arange(10.0)[:, None], labels=[ClassLabel.FLOOD] * 10)
    with pytest.raises(GuidelineViolation):
        fit(DetectorConfig(kind=DetectorKind.HBOS), ds)


def test_fit_rejects_tiny_training_sets():
    ds = numeric_dataset(np.arange(3.0)[:, None])
    with pytest.raises(FitError):
        fit(DetectorConfig(kind=DetectorKind.KNN, params={"k": 5}), ds)
    with pytest.raises(FitError, match="at least one tree"):
        fit(DetectorConfig(kind=DetectorKind.IFOREST, params={"trees": 0}), ds)


def test_score_dimension_mismatch():
    train = numeric_dataset(np.arange(10.0)[:, None])
    model = fit(DetectorConfig(kind=DetectorKind.HBOS), train)
    with pytest.raises(SchemaError):
        model.score_batch(np.zeros((2, 3)))


def test_config_validates_params():
    with pytest.raises(SchemaError):
        DetectorConfig(kind=DetectorKind.HBOS, params={"bogus": 1})
    with pytest.raises(SchemaError):
        DetectorConfig(kind=DetectorKind.HBOS, contamination=0.7)


# --- invariance and determinism -------------------------------------------------


@pytest.mark.parametrize(
    "kind",
    [DetectorKind.KNN, DetectorKind.LOF, DetectorKind.ABOD, DetectorKind.GMM, DetectorKind.PCA],
)
def test_translation_invariance(kind):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    Q = rng.normal(size=(15, 3)) * 3
    shift = np.array([100.0, -50.0, 1000.0])
    a = fit(DetectorConfig(kind=kind), numeric_dataset(X), seed=9).score_batch(Q)
    b = fit(DetectorConfig(kind=kind), numeric_dataset(X + shift), seed=9).score_batch(Q + shift)
    assert np.abs(a - b).max() < 1e-6


@pytest.mark.parametrize("kind", RANDOMIZED)
def test_randomized_detectors_are_seed_deterministic(kind):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 4))
    Q = rng.normal(size=(20, 4))
    train = numeric_dataset(X)
    a = fit(DetectorConfig(kind=kind), train, seed=123).score_batch(Q)
    b = fit(DetectorConfig(kind=kind), train, seed=123).score_batch(Q)
    c = fit(DetectorConfig(kind=kind), train, seed=124).score_batch(Q)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", list(DetectorKind))
def test_separation_sanity_on_blob(blob_benchmark, kind):
    train, queries, labels = blob_benchmark
    model = fit(DetectorConfig(kind=kind), train, seed=42)
    assert auc(model.score_batch(queries), labels) == 1.0


@pytest.mark.parametrize("kind", list(DetectorKind))
def test_model_serialization_roundtrip(tmp_path, blob_benchmark, kind):
    train, queries, _ = blob_benchmark
    model = fit(DetectorConfig(kind=kind), train, seed=42)
    path = tmp_path / f"{kind.value}.json"
    model.save(path)
    loaded = load_any_model(path)
    assert loaded.tau == model.tau
    assert np.array_equal(loaded.score_batch(queries), model.score_batch(queries))
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# --- grid search -----------------------------------------------------------------


def _labeled_validation(benign: np.ndarray, attacks: np.ndarray):
    X = np.vstack([benign, attacks])
    labels = [ClassLabel.NORMAL] * len(benign) + [ClassLabel.FLOOD] * len(attacks)
    return numeric_dataset(X, labels=labels)


def test_grid_search_single_point():
    rng = np.random.default_rng(8)
    train = numeric_dataset(rng.normal(size=(50, 2)))
    validation = _labeled_validation(rng.normal(size=(20, 2)), rng.normal(size=(5, 2)) + 30)
    best, log = grid_search(DetectorKind.KNN, {"k": [3]}, train, validation)
    assert best.params["k"] == 3
    assert len(log) == 1


def test_grid_search_requires_labels():
    rng = np.random.default_rng(9)
    train = numeric_dataset(rng.normal(size=(50, 2)))
    benign_only = numeric_dataset(rng.normal(size=(10, 2)))
    with pytest.raises(GridSearchError):
        grid_search(DetectorKind.KNN, {"k": [1, 3]}, train, benign_only)


def test_grid_search_tie_breaks_lexicographically():
    rng = np.random.default_rng(10)
    train_X = rng.normal(size=(60, 2))
    train = numeric_dataset(train_X)
    # benign validation duplicates central training points (scores far
    # below every threshold); attacks are remote: perfect F1 for every k
    central = train_X[np.argsort(np.linalg.norm(train_X, axis=1))[:25]]
    validation = _labeled_validation(central, rng.normal(size=(6, 2)) + 1000)
    best, log = grid_search(DetectorKind.KNN, {"k": [5, 1, 3]}, train, validation)
    assert all(entry["f1"] == 1.0 for entry in log)
    assert best.params["k"] == 1


def test_grid_search_prefers_small_k_for_singleton_outliers():
    # benign traffic lives at 20 repeated locations (3 copies each);
    # attacks sit 0.5 away from one location.  At k=1 train scores are all
    # zero, attacks score 0.5; at k=5 the threshold reaches the location
    # spacing and the attacks hide below it.
    locations = np.array([[10.0 * i, 0.0] for i in range(20)])
    train_X = np.repeat(locations, 3, axis=0)
    train = numeric_dataset(train_X)
    benign_val = locations.copy()
    attack_val = np.array([[30.5, 0.0], [70.5, 0.0], [110.5, 0.0], [150.5, 0.0]])
    validation = _labeled_validation(benign_val, attack_val)

    # brute-force the expected winner with an independent kNN + F1 check
    def f1_for(k):
        train_scores = sorted(brute_knn(train_X, q, k) for q in train_X)
        tau = float(np.quantile(train_scores, 1.0 - 0.02))
        val_scores = np.array(
            [brute_knn(train_X, q, k) for q in np.vstack([benign_val, attack_val])]
        )
        y = np.array([False] * len(benign_val) + [True] * len(attack_val))
        return threshold_metrics(val_scores, y, tau).f1

    expect = {k: f1_for(k) for k in (1, 5)}
    assert expect[1] == 1.0 and expect[1] > expect[5]
    best, _ = grid_search(DetectorKind.KNN, {"k": [1, 5]}, train, validation)
    assert best.params["k"] == 1
