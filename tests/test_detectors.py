import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from pfcpbench.cli import load_any_model
from pfcpbench.corpus import synth_benchmark_splits
from pfcpbench.detectors import (
    DetectorConfig,
    DetectorKind,
    calibrate_threshold,
    fit,
    grid_search,
)
from pfcpbench.detectors import density
from pfcpbench.detectors.common import (
    ABOF_EPS,
    BLOCK_ROWS,
    CHUNK_ROWS,
    DENSITY_EPS,
    EPS,
    distances,
    iter_chunks,
    nearest,
    sq_distances,
)
from pfcpbench.detectors.density import INNE_BLOCK_ROWS, _avg_path
from pfcpbench.detectors.geometric import score_abod
from pfcpbench.ensemble import PRESETS, fit_ensemble
from pfcpbench.errors import FitError, GridSearchError, GuidelineViolation, SchemaError
from pfcpbench.evaluate import auc, threshold_metrics
from pfcpbench.preprocess import fit_pipeline, transform
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


def one_row_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` one row of A per product, both operands C-contiguous: the
    product a detector's score gives each row, in any batch."""
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    return np.vstack([A[i : i + 1] @ B for i in range(len(A))])


def brute_knn(train: np.ndarray, q: np.ndarray, k: int) -> float:
    dists = sorted(math.dist(q, t) for t in train)
    return dists[k - 1]


def brute_lof_in_sample(train: np.ndarray, k: int):
    """Per training row: k-distance, local reachability density and in-sample
    factor, each over the neighbours other than the row itself."""
    n = len(train)
    dist = math.dist
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
    factors = [sum(lrd[j] for j in neighbors[i]) / len(neighbors[i]) / lrd[i] for i in range(n)]
    return kdist, lrd, factors


def brute_lof(train: np.ndarray, queries: np.ndarray, k: int) -> list[float]:
    n = len(train)
    dist = math.dist
    kdist, lrd, _ = brute_lof_in_sample(train, k)
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


def test_lof_matches_brute_force_on_distance_ties():
    # Integer grid points with duplicated rows: many rows and queries have
    # their (k+1)-th neighbour exactly as far as their k-th, so the neighbour
    # set grows past k, in fit and in scoring.  Each point has at most one
    # duplicate and k >= 2, so no k-distance is 0.
    rng = np.random.default_rng(11)
    k = 3
    grid = rng.choice(6, size=(30, 2)).astype(float)
    grid = np.unique(grid, axis=0)
    X = np.vstack([grid, grid[:8]])
    Q = np.vstack([rng.choice(7, size=(12, 2)).astype(float), grid[:3], grid[-2:]])

    def tied(rows, exclude_self):
        count = 0
        for i, q in enumerate(rows):
            ds = sorted(
                math.dist(q, t) for j, t in enumerate(X) if not (exclude_self and j == i)
            )
            count += ds[k] == ds[k - 1]
        return count

    assert tied(X, True) > 0 and tied(Q, False) > 0
    lof = fit(DetectorConfig(kind=DetectorKind.LOF, params={"k": k}), numeric_dataset(X))
    got = lof.score_batch(Q)
    assert np.abs(got - np.array(brute_lof(X, Q, k))).max() < 1e-9
    _, lrd, _ = brute_lof_in_sample(X, k)
    assert np.abs(lof.state["train_lrd"] - np.array(lrd)).max() < 1e-9
    assert np.abs(lof.score_batch(X) - np.array(brute_lof(X, X, k))).max() < 1e-9


def test_feature_bagging_matches_member_loop():
    # Reference: each member's LOF by brute force on its own columns,
    # z-normalized by the mean and sd of its in-sample factors, averaged.
    rng = np.random.default_rng(12)
    k = 4
    X = rng.normal(size=(40, 5))
    Q = np.vstack([rng.normal(size=(10, 5)) * 2, X[:3]])
    model = fit(
        DetectorConfig(kind=DetectorKind.FEATURE_BAGGING, params={"bag_count": 4, "k": k}),
        numeric_dataset(X),
        seed=5,
    )
    state = model.state
    assert state["features"].shape == (4, 5) and state["train_kdist"].shape == (4, 40)
    want = np.zeros(len(Q))
    for mask, member_mean, member_sd in zip(state["features"], state["mean"], state["sd"]):
        feats = [j for j in range(5) if mask[j]]  # the member's columns, ascending
        _, _, factors = brute_lof_in_sample(X[:, feats], k)
        mean, sd = np.mean(factors), max(np.std(factors), 1e-12)
        assert member_mean == pytest.approx(mean, rel=1e-12)
        assert member_sd == pytest.approx(sd, rel=1e-9)
        want += (np.array(brute_lof(X[:, feats], Q[:, feats], k)) - mean) / sd
    want /= len(state["features"])
    assert np.abs(model.score_batch(Q) - want).max() < 1e-9


def loop_tail_scores(X: np.ndarray, Q: np.ndarray, floor: float) -> list[float]:
    """COPOD / ECOD (Li et al. 2020, 2022) per query: the largest of the
    left-tail, right-tail and skewness-chosen-tail sums of -log empirical
    tail probabilities, each floored at ``floor``."""
    n, d = X.shape
    columns = [X[:, j].tolist() for j in range(d)]
    skews = []
    for col in columns:
        mu = sum(col) / n
        m2 = sum((v - mu) ** 2 for v in col) / n
        m3 = sum((v - mu) ** 3 for v in col) / n
        skews.append(m3 / m2**1.5 if m2 > 0 else 0.0)
    out = []
    for q in Q.tolist():
        left = right = chosen = 0.0
        for col, skew, value in zip(columns, skews, q):
            p_left = max(sum(v <= value for v in col) / n, floor)
            p_right = max(sum(v >= value for v in col) / n, floor)
            left -= math.log(p_left)
            right -= math.log(p_right)
            chosen -= math.log(p_left if skew < 0 else p_right)
        out.append(max(left, right, chosen))
    return out


@pytest.mark.parametrize("kind", [DetectorKind.COPOD, DetectorKind.ECOD])
def test_copod_and_ecod_match_tail_probability_loop(kind):
    rng = np.random.default_rng(13)
    n = 60
    X = np.column_stack([
        rng.exponential(size=n),  # right-skewed
        -rng.exponential(size=n),  # left-skewed
        rng.integers(0, 4, size=n).astype(float),  # ties with the queries below
        np.full(n, 1.5),  # constant: no skew, right tail
    ])
    Q = np.vstack([
        rng.normal(scale=2.0, size=(20, 4)),
        X[:10],  # every value equals a training value
        [[-50.0, 50.0, -1.0, 1.5], [50.0, -50.0, 9.0, 2.0]],  # beyond every training value
    ])
    model = fit(DetectorConfig(kind=kind), numeric_dataset(X))
    floor = EPS if kind is DetectorKind.COPOD else 1.0 / n
    assert np.abs(model.score_batch(Q) - np.array(loop_tail_scores(X, Q, floor))).max() < 1e-9


def loop_inne(X: np.ndarray, Q: np.ndarray, members: int, psi: int, rng) -> list[float]:
    """iNNE (Bandaragoda et al. 2018), member by member in the same RNG
    order: each sampled center's radius is the distance to its nearest other
    center; a query inside some hypersphere scores 1 - radius(nn of c) /
    radius(c) for the smallest covering c, and 1 when none covers it; the
    score is the mean over members."""
    totals = [0.0] * len(Q)
    for _ in range(members):
        centers = X[rng.choice(len(X), size=psi, replace=False)].tolist()
        radii, nn = [], []
        for i, c in enumerate(centers):
            others = [(math.dist(c, o), j) for j, o in enumerate(centers) if j != i]
            radius, j = min(others)
            radii.append(radius)
            nn.append(j)
        for qi, q in enumerate(Q.tolist()):
            best = None
            for i, c in enumerate(centers):
                if math.dist(q, c) <= radii[i] and (best is None or radii[i] < radii[best]):
                    best = i
            totals[qi] += 1.0 if best is None else 1.0 - radii[nn[best]] / radii[best]
    return [total / members for total in totals]


@pytest.mark.parametrize("grid", [False, True], ids=["continuous", "integer-grid"])
def test_inne_matches_hypersphere_loop(grid):
    rng = np.random.default_rng(14)
    if grid:
        # distinct integer points: distances are exact, so many queries lie
        # exactly on a sphere and many radii tie
        X = np.unique(rng.integers(0, 6, size=(120, 3)), axis=0).astype(float)
        Q = rng.integers(-2, 8, size=(60, 3)).astype(float)
    else:
        X = rng.normal(size=(80, 3))
        # queries mostly near the training data, some far outside every sphere
        Q = np.vstack([rng.normal(scale=0.8, size=(30, 3)), rng.normal(scale=6.0, size=(10, 3))])
    params = {"members": 25, "sample_size": 8}
    model = fit(DetectorConfig(kind=DetectorKind.INNE, params=params), numeric_dataset(X), seed=3)
    want = loop_inne(X, Q, 25, 8, rng_for(3, "detector", "INNE"))
    got = model.score_batch(Q)
    assert np.abs(got - np.array(want)).max() < 1e-9
    assert 0.0 < (got < 1.0).mean() < 1.0  # some queries covered, some not


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
    origin = train.matrix[0]
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
    Z, Zq = one_row_products(X, W.T), one_row_products(Q, W.T)
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


def test_gmm_whose_covariance_no_ridge_repairs_is_a_fit_error():
    # [a, 2a, noise] with a near 1e9: the covariance is singular, and its
    # scale dwarfs every ridge, so no Cholesky factor exists
    rng = np.random.default_rng(5)
    a = rng.uniform(1e9, 2e9, size=200)
    X = np.column_stack([a, 2.0 * a, rng.normal(size=200)])
    config = DetectorConfig(kind=DetectorKind.GMM, params={"components": 1})
    with pytest.raises(FitError, match=r"GMM: covariance not positive definite .* ridge of 10\b"):
        fit(config, numeric_dataset(X))


def direct_gmm_scores(state: dict, Q: np.ndarray) -> list[float]:
    """-log of the mixture density at each row, summed over the components
    with the explicit inverse and determinant of each covariance L L^T."""
    out = []
    for q in Q:
        density = 0.0
        for mean, L, log_weight in zip(state["means"], state["chols"], state["log_weights"]):
            cov = L @ L.T
            diff = q - mean
            maha = diff @ np.linalg.inv(cov) @ diff
            norm = math.sqrt((2.0 * math.pi) ** len(q) * np.linalg.det(cov))
            density += math.exp(log_weight) * math.exp(-0.5 * maha) / norm
        out.append(-math.log(density))
    return out


@pytest.mark.parametrize("components", [1, 3])
def test_gmm_matches_direct_density_sum(components):
    rng = np.random.default_rng(8)
    centers = np.array([[0.0, 0.0, 0.0], [4.0, -1.0, 2.0], [-3.0, 3.0, 1.0]])
    X = centers[np.arange(300) % 3] + rng.normal(size=(300, 3)) @ np.diag([1.0, 0.5, 2.0])
    model = fit(
        DetectorConfig(kind=DetectorKind.GMM, params={"components": components}),
        numeric_dataset(X), seed=5,
    )
    Q = np.vstack([X[:20], rng.normal(scale=4.0, size=(20, 3))])
    scores = model.score_batch(Q)
    assert scores.tolist() == pytest.approx(direct_gmm_scores(model.state, Q), rel=1e-9)


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


# --- reference copies of earlier loop implementations: the current code must
# give the same bits.  Each is kept as it was, not as it would be written now.


def _reference_grow_tree(X, idx, depth, limit, rng, nodes):
    node = len(nodes)
    nodes.append((0, -np.inf, node, depth + _avg_path(len(idx))))  # a leaf unless split
    if depth >= limit or len(idx) <= 1:
        return node
    sub = X[idx]
    spans = sub.max(axis=0) - sub.min(axis=0)
    varying = np.flatnonzero(spans > 0)
    if varying.size == 0:
        return node
    feat = int(rng.choice(varying))
    lo, hi = float(sub[:, feat].min()), float(sub[:, feat].max())
    threshold = float(rng.uniform(lo, hi))
    left_mask = sub[:, feat] < threshold
    _reference_grow_tree(X, idx[left_mask], depth + 1, limit, rng, nodes)
    right = _reference_grow_tree(X, idx[~left_mask], depth + 1, limit, rng, nodes)
    nodes[node] = (feat, threshold, right, 0.0)
    return node


def reference_fit_iforest(X, params, rng):
    n = X.shape[0]
    trees = int(params["trees"])
    psi = min(int(params["subsample"]), n)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    nodes: list = []
    roots = [
        _reference_grow_tree(X, rng.choice(n, size=psi, replace=False), 0, limit, rng, nodes)
        for _ in range(trees)
    ]
    feature, threshold, right, leaf_path = zip(*nodes)
    return {
        "roots": np.array(roots, dtype=np.int64),
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "right": np.array(right, dtype=np.int64),
        "leaf_path": np.array(leaf_path),
        "depth": limit,
        "psi": psi,
    }


def reference_score_abod(state, Q):
    train, k = state["train"], state["k"]
    out = np.empty(Q.shape[0])
    spare = min(k + 8, train.shape[0])
    for a, b in iter_chunks(Q.shape[0], 256):
        near, near_d2 = nearest(sq_distances(Q[a:b], train), spare)
        for i, cand, cand_d2 in zip(range(a, b), near, near_d2):
            apart = cand_d2 > ABOF_EPS
            usable, norms2 = cand[apart][:k], cand_d2[apart][:k]
            if len(usable) < 2:
                out[i] = -np.log(ABOF_EPS)
                continue
            diffs = train[usable] - Q[i]
            dots = diffs @ diffs.T
            quot = dots / np.outer(norms2, norms2)
            iu = np.triu_indices(len(usable), k=1)
            out[i] = -np.log(np.var(quot[iu]) + ABOF_EPS)
    return out


def reference_score_inne(state, Q):
    total = np.zeros(Q.shape[0])
    for centers, radii, nn_radii in zip(state["centers"], state["radii"], state["nn_radii"]):
        d = distances(Q, centers)
        inside = d <= radii[None, :]
        best = np.where(inside, radii[None, :], np.inf).argmin(axis=1)
        covered = inside.any(axis=1)
        ratio = nn_radii[best] / np.maximum(radii[best], DENSITY_EPS)
        total += np.where(covered, 1.0 - ratio, 1.0)
    return total / len(state["radii"])


def assert_same_state(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, key
            assert np.array_equal(got[key], value), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


def _iforest_cases(pfcp_train):
    rng = np.random.default_rng(8)
    normal = rng.normal(size=(300, 5))
    constant = normal.copy()
    constant[:, [1, 3]] = 2.5  # two columns never split on
    duplicated = np.repeat(rng.integers(0, 3, size=(40, 3)).astype(float), 7, axis=0)
    return {
        "pfcp": (pfcp_train, {"trees": 100, "subsample": 256}),
        "constant-columns": (constant, {"trees": 30, "subsample": 64}),
        "all-constant": (np.full((50, 3), -1.25), {"trees": 5, "subsample": 16}),
        "duplicate-rows": (duplicated, {"trees": 30, "subsample": 128}),
        "n-below-subsample": (normal[:90], {"trees": 20, "subsample": 256}),
        "n-2": (normal[:2], {"trees": 10, "subsample": 256}),
        "n-2-equal": (np.ones((2, 4)), {"trees": 3, "subsample": 256}),
    }


@pytest.mark.parametrize(
    "case",
    ["pfcp", "constant-columns", "all-constant", "duplicate-rows", "n-below-subsample", "n-2",
     "n-2-equal"],
)
@pytest.mark.parametrize("seed", [0, 7, 42, 1234])
def test_iforest_fit_matches_reference_loop(pfcp_edge_rows, case, seed):
    X, params = _iforest_cases(pfcp_edge_rows[0].matrix)[case]
    got = density.fit_iforest(X, params, np.random.default_rng(seed))
    assert_same_state(got, reference_fit_iforest(X, params, np.random.default_rng(seed)))


def _abod_cases(pfcp_edge_rows):
    rng = np.random.default_rng(6)
    base = rng.normal(size=(40, 3))
    # rows 0-2 coincide, and so do rows 3-4: a query at them has
    # coincident training neighbours, and spare ones to take their place
    train = np.vstack([np.repeat(base[:1], 3, axis=0), np.repeat(base[1:2], 2, axis=0), base[2:]])
    Q = np.vstack([train, rng.normal(size=(300, 3)), base[:2] + 1e-9])
    # one distinct row among copies: a query at the copies keeps 1 usable
    # neighbour
    lonely = np.vstack([np.zeros((6, 2)), [[1.0, 1.0]]])
    lonely_q = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, -0.5], [0.0, 1e-7]])
    # each query row of "repeats" is in its training set this many times:
    # with k = 5 and k + 8 = 13 spares, r copies leave min(k, 13 - r) usable
    # neighbours, so every count from k down to 0 is met, and k + 9 = 14
    # copies fill all 13 spares
    queries = rng.normal(size=(22, 3))
    copies = np.repeat(queries, np.repeat([0, 1, 2, 4, 5, 9, 10, 11, 12, 13, 14], 2), axis=0)
    train_pfcp, edge = pfcp_edge_rows
    return {
        "coincident": (train, Q, 5),
        "few-usable": (lonely, lonely_q, 5),
        "all-coincident": (np.zeros((4, 2)), np.array([[0.0, 0.0], [1.0, 0.0]]), 3),
        "pfcp": (train_pfcp.matrix, np.vstack([train_pfcp.matrix, edge]), 10),
        "repeats": (np.vstack([copies, rng.normal(size=(40, 3))]), queries, 5),
    }


def test_abod_repeats_case_meets_every_usable_count(pfcp_edge_rows):
    train, Q, k = _abod_cases(pfcp_edge_rows)["repeats"]
    counts = set()
    for q in Q:
        d2 = np.sort(((train - q) ** 2).sum(axis=1))[: k + 8]
        counts.add(min(k, int((d2 > ABOF_EPS).sum())))
    assert counts == set(range(k + 1))


@pytest.mark.parametrize("case", ["coincident", "few-usable", "all-coincident", "pfcp", "repeats"])
def test_abod_matches_reference_loop(pfcp_edge_rows, case):
    train, Q, k = _abod_cases(pfcp_edge_rows)[case]
    state = density.fit_knn(train, {"k": k}, None)
    got, want = score_abod(state, Q), reference_score_abod(state, Q)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if case == "few-usable":
        assert want[0] == -np.log(ABOF_EPS)  # the floor: under 2 usable neighbours


def _inne_cases(pfcp_edge_rows):
    rng = np.random.default_rng(15)
    train_pfcp, edge = pfcp_edge_rows
    # distinct integer points: many radii are equal, so the first-index rule
    # on a tie decides which center covers a query
    grid = np.unique(rng.integers(0, 5, size=(80, 3)), axis=0).astype(float)
    # four points, each many times over: most members sample two equal
    # centers, whose radius 0 is floored at DENSITY_EPS
    repeated = np.repeat(rng.normal(size=(4, 3)), 30, axis=0)
    # 41 columns: a row block's product rounds differently from the same
    # rows inside the whole product, and the training rows sit on spheres
    wide = rng.normal(size=(300, 41))
    return {
        "pfcp": (train_pfcp.matrix, edge),
        "integer-grid": (grid, rng.integers(-1, 6, size=(90, 3)).astype(float)),
        "coincident-centers": (repeated, np.vstack([repeated[::30], rng.normal(size=(40, 3))])),
        "41-columns": (wide, np.vstack([wide, rng.normal(size=(100, 41))])),
    }


@pytest.mark.parametrize("members, sample_size", [(1, 2), (1, 8), (200, 2), (200, 8)])
@pytest.mark.parametrize("case", ["pfcp", "integer-grid", "coincident-centers", "41-columns"])
def test_inne_matches_reference_loop(pfcp_edge_rows, case, members, sample_size):
    X, Q = _inne_cases(pfcp_edge_rows)[case]
    state = density.fit_inne(X, {"members": members, "sample_size": sample_size},
                             np.random.default_rng(members + sample_size))
    if case == "coincident-centers" and members == 200:
        assert (state["radii"] == 0).any()
    Q = np.resize(Q, (CHUNK_ROWS + 37, Q.shape[1]))  # the rows over again
    for rows in (0, 1, INNE_BLOCK_ROWS - 1, INNE_BLOCK_ROWS, INNE_BLOCK_ROWS + 1, len(Q)):
        got, want = density.score_inne(state, Q[:rows]), reference_score_inne(state, Q[:rows])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rows


def brute_abod(train: np.ndarray, queries: np.ndarray, k: int) -> list[float]:
    """ABOF over the first k training rows, by squared distance, that are
    farther than ABOF_EPS: the population variance over their pairs of
    <q-a, q-b> / (|q-a|^2 |q-b|^2), then -log(var + ABOF_EPS)."""
    out = []
    for q in queries:
        d2 = [sum((qj - tj) ** 2 for qj, tj in zip(q, t)) for t in train]
        order = sorted(range(len(train)), key=lambda j: d2[j])  # stable
        near = [j for j in order if d2[j] > ABOF_EPS][:k]
        quots = []
        for x in range(len(near)):
            for y in range(x + 1, len(near)):
                a, b = train[near[x]], train[near[y]]
                dot = sum((qj - aj) * (qj - bj) for qj, aj, bj in zip(q, a, b))
                quots.append(dot / (d2[near[x]] * d2[near[y]]))
        if len(near) < 2:
            out.append(-math.log(ABOF_EPS))
            continue
        mean = sum(quots) / len(quots)
        var = sum((v - mean) ** 2 for v in quots) / len(quots)
        out.append(-math.log(var + ABOF_EPS))
    return out


def test_abod_matches_brute_force():
    # continuous rows, no distance tie at any query's k-th usable neighbour;
    # queries at training rows (coincident neighbours, dropped) and at
    # rows repeated up to 3 times, within the detector's 8 spare neighbours
    rng = np.random.default_rng(12)
    for trial in range(12):
        n = int(rng.integers(12, 60))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(10, n - 4)))
        X = rng.normal(size=(n, d))
        X = np.vstack([X, np.repeat(X[:2], [2, 1], axis=0)])
        Q = np.vstack([X[: n // 2], rng.normal(scale=1.5, size=(20, d))])
        model = fit(DetectorConfig(kind=DetectorKind.ABOD, params={"k": k}), numeric_dataset(X))
        np.testing.assert_allclose(model.score_batch(Q), brute_abod(X, Q, k), rtol=1e-9)


# --- the distance kernels work on a chunk a block of rows at a time; they
# must give the bits of the whole-chunk expressions, kept here as they were
# but for the product, which is made one row at a time


def reference_sq_distances(A, B):
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
    sq -= 2.0 * one_row_products(A, B.T)
    return np.maximum(sq, 0.0, out=sq)


def reference_nearest(d, take):
    idx = np.argpartition(d, take - 1, axis=1)[:, :take]
    nd = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(nd, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(nd, order, axis=1)


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, CHUNK_ROWS + 37])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("data", ["integer-grid", "continuous"])
def test_blocked_distance_kernels_match_whole_chunk_expressions(rows, order, data):
    # integer cells on a 4-value grid make many distances equal, so the
    # selection's tie order is pinned; F order is how FeatureBagging's
    # X[:, feats] reaches the kernels
    rng = np.random.default_rng(rows)
    if data == "integer-grid":
        A, B = rng.integers(0, 4, size=(rows, 5)), rng.integers(0, 4, size=(300, 5))
    else:
        A, B = rng.normal(size=(rows, 5)), rng.normal(size=(300, 5))
    A, B = (np.asarray(M, dtype=float, order=order) for M in (A, B))
    want = reference_sq_distances(A, B)
    assert sq_distances(A, B).tobytes() == want.tobytes()
    assert distances(A, B).tobytes() == np.sqrt(want).tobytes()
    d = np.asarray(np.sqrt(want), order=order)
    for take in (1, 11, B.shape[0]):
        for got, ref in zip(nearest(d, take), reference_nearest(d, take)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _traced_peak(f, *args) -> int:
    """Peak bytes numpy and Python allocate while ``f(*args)`` runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "kind", [DetectorKind.KNN, DetectorKind.LOF, DetectorKind.FEATURE_BAGGING], ids=str
)
def test_neighbour_scoring_holds_one_distance_chunk_at_a_time(kind):
    # past the first chunk, the previous chunk's distances must be freed
    # before the next are built, and each chunk must be one array
    rng = np.random.default_rng(9)
    model = fit(DetectorConfig(kind=kind), numeric_dataset(rng.normal(size=(700, 6))), seed=1)
    Q = rng.normal(size=(CHUNK_ROWS + 300, 6))
    assert _traced_peak(model.score_batch, Q) <= 1.25 * 8 * CHUNK_ROWS * 700


def test_lof_in_sample_holds_one_distance_chunk_at_a_time():
    X = np.random.default_rng(10).normal(size=(CHUNK_ROWS + 700, 6))
    assert _traced_peak(density.lof_in_sample, X, 10) <= 1.25 * 8 * CHUNK_ROWS * len(X)


def test_inne_scoring_holds_one_row_block_at_a_time():
    # each block of query rows is scored against every member and freed
    # before the next, so four times the rows peak no higher, bar the output
    rng = np.random.default_rng(11)
    model = fit(DetectorConfig(kind=DetectorKind.INNE), numeric_dataset(rng.normal(size=(700, 6))),
                seed=1)
    Q = rng.normal(size=(4 * CHUNK_ROWS, 6))
    one = _traced_peak(model.score_batch, Q[:CHUNK_ROWS])
    assert _traced_peak(model.score_batch, Q) <= 1.1 * one


def test_pca_all_components_reconstructs_training_points():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    model = fit(
        DetectorConfig(kind=DetectorKind.PCA, params={"variance_fraction": 1.0}),
        numeric_dataset(X),
    )
    s = model.score_batch(X)
    assert np.abs(s).max() < 1e-18


def test_pca_scores_the_squared_distance_to_the_training_plane():
    # training rows on the affine plane c + a*u + b*v: two components keep
    # all their variance, and a query's residual is its offset along the
    # plane's normal
    rng = np.random.default_rng(8)
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    v = np.array([2.0, 1.0, -2.0]) / 3.0
    normal = np.cross(u, v)
    c = np.array([4.0, -1.0, 0.5])
    X = c + np.outer(rng.normal(0, 3, 60), u) + np.outer(rng.normal(0, 1, 60), v)
    model = fit(
        DetectorConfig(kind=DetectorKind.PCA, params={"variance_fraction": 0.99}),
        numeric_dataset(X),
    )
    assert model.state["components"].shape == (2, 3)
    Q = np.vstack([X[:5], rng.normal(0, 5, size=(20, 3))])
    want = ((Q - c) @ normal) ** 2
    assert np.abs(model.score_batch(Q) - want).max() < 1e-9


def test_pca_on_identical_rows_scores_the_squared_distance_to_their_mean():
    c = np.array([2.5, -1.0, 4.0])
    model = fit(DetectorConfig(kind=DetectorKind.PCA), numeric_dataset(np.tile(c, (10, 1))))
    assert model.state["components"].shape == (0, 3)
    Q = np.random.default_rng(9).normal(0, 3, size=(15, 3))
    assert np.array_equal(model.score_batch(Q), ((Q - c) ** 2).sum(axis=1))


def _copod_and_ecod(X):
    return [fit(DetectorConfig(kind=kind), numeric_dataset(X))
            for kind in (DetectorKind.COPOD, DetectorKind.ECOD)]


def test_copod_and_ecod_score_every_training_row_alike():
    # a training row's tail probabilities are at least 1/n, above both
    # floors (EPS and 1/n), so the two scores and thresholds are equal
    rng = np.random.default_rng(10)
    X = np.column_stack([rng.exponential(size=300), rng.integers(0, 3, size=300)])
    copod, ecod = _copod_and_ecod(X)
    assert np.array_equal(copod.score_batch(X), ecod.score_batch(X))
    assert copod.tau == ecod.tau
    # so does any row inside every column's training range
    inside = np.column_stack([rng.uniform(X[:, 0].min(), X[:, 0].max(), 50),
                              rng.uniform(0, 2, 50)])
    assert np.array_equal(copod.score_batch(inside), ecod.score_batch(inside))


def test_copod_and_ecod_differ_only_outside_a_column_training_range():
    # beyond a column's range the tail probability is 0: COPOD floors it at
    # EPS, ECOD at 1/n, so COPOD adds log(1/EPS) where ECOD adds log(n)
    X = np.column_stack([np.arange(1.0, 101.0), np.arange(100.0, 0.0, -1.0)])
    copod, ecod = _copod_and_ecod(X)
    Q = np.array([[0.0, 50.0], [50.0, 101.0], [-5.0, 200.0]])
    c, e = copod.score_batch(Q), ecod.score_batch(Q)
    assert (c > e).all()
    assert np.allclose(c[:2] - e[:2], math.log(1 / EPS) - math.log(100))


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
    with pytest.raises(FitError, match="trees must be an integer of at least 1"):
        fit(DetectorConfig(kind=DetectorKind.IFOREST, params={"trees": 0}), ds)


@pytest.mark.parametrize(
    "kind, name", [(DetectorKind.IFOREST, "subsample"), (DetectorKind.INNE, "sample_size")]
)
def test_fit_rejects_single_row_subsamples(kind, name):
    # one sampled row has no spread: IForest's path norm and INNE's radii divide 0 by 0
    ds = numeric_dataset(np.arange(20.0).reshape(10, 2))
    with pytest.raises(FitError, match=f"{name} must be an integer of at least 2, got 1"):
        fit(DetectorConfig(kind=kind, params={name: 1}), ds)
    fit(DetectorConfig(kind=kind, params={name: 2}), ds)


@pytest.mark.parametrize(
    "kind, params",
    [
        (DetectorKind.KNN, {"k": 0}),
        (DetectorKind.HBOS, {"bins": "x"}),
        (DetectorKind.HBOS, {"bins": True}),
        (DetectorKind.GMM, {"components": 2.0}),
        (DetectorKind.PCA, {"variance_fraction": 0}),
        (DetectorKind.PCA, {"variance_fraction": 1.5}),
        # the training rows have d = 2 features
        (DetectorKind.FEATURE_BAGGING, {"subset_range": "x"}),
        (DetectorKind.FEATURE_BAGGING, {"subset_range": [2, 1]}),
        (DetectorKind.FEATURE_BAGGING, {"subset_range": [1]}),
        (DetectorKind.FEATURE_BAGGING, {"subset_range": [3, 4]}),
        (DetectorKind.FEATURE_BAGGING, {"subset_range": [0, 2]}),
        (DetectorKind.FEATURE_BAGGING, {"subset_range": [True, 2]}),
    ],
    ids=["k-zero", "bins-string", "bins-bool", "components-float", "variance-zero",
         "variance-above-one", "subset-string", "subset-reversed", "subset-one-bound",
         "subset-above-d", "subset-zero", "subset-bool"],
)
def test_fit_rejects_bad_hyperparameter_values(kind, params):
    ds = numeric_dataset(np.arange(40.0).reshape(20, 2))
    (name,) = params
    with pytest.raises(FitError, match=name):
        fit(DetectorConfig(kind=kind, params=params), ds)


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
    for value in ("x", None, True):
        with pytest.raises(SchemaError, match="contamination must be a number"):
            DetectorConfig(kind=DetectorKind.HBOS, contamination=value)


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


@pytest.fixture(scope="module")
def pfcp_splits():
    """The scaled PFCP train, validation and test splits."""
    train, validation, test = synth_benchmark_splits(seed=42, scale=0.05)
    pipeline = fit_pipeline(train, scaling_enabled=True)
    return tuple(transform(pipeline, split) for split in (train, validation, test))


@pytest.fixture(scope="module")
def pfcp_edge_rows(pfcp_splits):
    """Scaled PFCP training split, and query rows at the places where a
    last-bit difference would change a score: the training minima and
    maxima (also the training rows that attain them), HBOS's bin edges,
    midpoints, values outside the training range, test rows, and test rows
    with some cells moved onto those values."""
    train, _, test = pfcp_splits
    T, rows = train.matrix, test.matrix
    rng = np.random.default_rng(5)
    lo, hi = T.min(axis=0), T.max(axis=0)
    span = hi - lo
    bins = DetectorConfig(kind=DetectorKind.HBOS).params["bins"]
    special = np.stack(
        [lo, hi, (lo + hi) / 2, lo - span - 1, hi + span + 1]
        + [lo + span * (k / bins) for k in range(bins + 1)]
    )
    attaining = T[np.unique(np.concatenate([T.argmin(axis=0), T.argmax(axis=0)]))]
    pairs = rng.integers(len(T), size=(30, 2))
    midpoints = (T[pairs[:, 0]] + T[pairs[:, 1]]) / 2
    mixed = rows[rng.integers(len(rows), size=40)]
    moved = rng.random(mixed.shape) < 0.3
    mixed[moved] = special[rng.integers(len(special), size=mixed.shape), np.arange(T.shape[1])][moved]
    return train, np.vstack([special, attaining, midpoints, rows[:60], mixed])


@pytest.mark.parametrize("kind, params", [
    *(pytest.param(kind, {}, id=str(kind)) for kind in DetectorKind),
    # the gmm-evasion workload's GMM, beside the default four components
    pytest.param(DetectorKind.GMM, {"components": 1}, id="DetectorKind.GMM-components=1"),
    *(pytest.param(name, None, id=name) for name in PRESETS),
])
def test_row_invariant_kinds_score_a_row_alike_in_any_batch(pfcp_splits, pfcp_edge_rows, kind,
                                                            params):
    # the attack scores a round's candidates in one call, so each row's
    # score must not depend on the rows sharing its call; a preset's bases
    # are fitted on the same split
    train, validation, _ = pfcp_splits
    Q = pfcp_edge_rows[1]
    if kind in PRESETS:
        spec = PRESETS[kind]
        bases = [fit(DetectorConfig(kind=base), train, seed=42) for base in spec.base_kinds]
        scores = np.column_stack([base.score_batch(validation.matrix) for base in bases])
        model = fit_ensemble(spec, bases, scores, validation.attacks)
    else:
        model = fit(DetectorConfig(kind=kind, params=params), train, seed=42)
    full = model.score_batch(Q)
    alone = np.concatenate([model.score_batch(Q[i : i + 1]) for i in range(len(Q))])
    assert alone.tobytes() == full.tobytes()
    assert model.score_batch(np.asfortranarray(Q)).tobytes() == full.tobytes()
    rng = np.random.default_rng(3)
    order = rng.permutation(len(Q))
    cuts = np.sort(rng.choice(np.arange(1, len(Q)), size=6, replace=False))
    shuffled = np.empty_like(full)
    for part in np.split(order, cuts):
        shuffled[part] = model.score_batch(Q[part])
    assert shuffled.tobytes() == full.tobytes()


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


def _drop_last_key(state):
    del state[sorted(state)[-1]]  # "train" for kNN and ABOD, "train_lrd" for FeatureBagging


def _add_key(state):
    state["unread"] = 1


@pytest.mark.parametrize("edit", [_drop_last_key, _add_key], ids=["missing", "extra"])
@pytest.mark.parametrize("kind", list(DetectorKind))
def test_container_whose_state_keys_are_not_its_kinds_is_rejected(tmp_path, blob_benchmark,
                                                                    kind, edit):
    train, _, _ = blob_benchmark
    path = tmp_path / f"{kind.value}.json"
    fit(DetectorConfig(kind=kind), train, seed=42).save(path)
    doc = json.loads(path.read_text())
    edit(doc["state"])
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="state must hold exactly"):
        load_any_model(path)


@pytest.mark.parametrize("d", [0, -1, 2.0, "2", None, True])
def test_container_with_a_bad_row_width_is_rejected(tmp_path, d):
    train = numeric_dataset(np.arange(20.0).reshape(10, 2))
    path = tmp_path / "HBOS.json"
    fit(DetectorConfig(kind=DetectorKind.HBOS), train).save(path)
    doc = json.loads(path.read_text())
    doc["d"] = d
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="malformed detector container: .*d must be"):
        load_any_model(path)


@pytest.mark.parametrize("kind", list(DetectorKind))
def test_fitted_state_holds_only_arrays_and_ints(blob_benchmark, kind):
    # a flat state is what the container codec stores: no nested dicts or lists
    train, _, _ = blob_benchmark
    state = fit(DetectorConfig(kind=kind), train, seed=42).state
    assert all(isinstance(v, np.ndarray) or type(v) is int for v in state.values()), state


def test_pca_on_constant_rows_saves_an_empty_array_and_scores_alike(tmp_path):
    train = numeric_dataset(np.full((10, 3), 2.5))
    model = fit(DetectorConfig(kind=DetectorKind.PCA), train)
    assert model.state["components"].shape == (0, 3)
    path = tmp_path / "PCA.json"
    model.save(path)
    assert [p.stat().st_size for p in tmp_path.iterdir() if p.suffix == ".f8"].count(0) == 1
    loaded = load_any_model(path)
    assert loaded.state["components"].shape == (0, 3)
    Q = np.array([[2.5, 2.5, 2.5], [0.0, 1.0, -3.0]])
    assert np.array_equal(loaded.score_batch(Q), model.score_batch(Q))


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
    assert best.config.params["k"] == 3
    assert len(log) == 1


def test_grid_search_fits_each_point_over_the_fixed_params():
    rng = np.random.default_rng(8)
    train = numeric_dataset(rng.normal(size=(50, 2)))
    validation = _labeled_validation(rng.normal(size=(20, 2)), rng.normal(size=(5, 2)) + 30)
    best, log = grid_search(DetectorKind.HBOS, {"contamination": [0.01, 0.02]}, train, validation,
                            params={"bins": 7})
    assert best.config.params["bins"] == 7
    assert [entry["params"] for entry in log] == [{"contamination": 0.01}, {"contamination": 0.02}]
    # where a key is in both, the grid's value wins
    best, _ = grid_search(DetectorKind.HBOS, {"bins": [5]}, train, validation, params={"bins": 7})
    assert best.config.params["bins"] == 5


def test_grid_search_requires_labels():
    rng = np.random.default_rng(9)
    train = numeric_dataset(rng.normal(size=(50, 2)))
    benign_only = numeric_dataset(rng.normal(size=(10, 2)))
    with pytest.raises(GridSearchError):
        grid_search(DetectorKind.KNN, {"k": [1, 3]}, train, benign_only)


@pytest.mark.parametrize("grid", [{"k": 3}, {"k": []}, {"k": "35"}])
def test_grid_search_rejects_values_that_are_not_a_non_empty_list(grid):
    rng = np.random.default_rng(9)
    train = numeric_dataset(rng.normal(size=(50, 2)))
    validation = _labeled_validation(rng.normal(size=(20, 2)), rng.normal(size=(5, 2)) + 30)
    with pytest.raises(GridSearchError, match="non-empty list"):
        grid_search(DetectorKind.KNN, grid, train, validation)


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
    assert best.config.params["k"] == 1


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
    assert best.config.params["k"] == 1
