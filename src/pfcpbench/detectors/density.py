"""Density and isolation detectors."""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .common import (
    DENSITY_EPS,
    EPS,
    histogram_lookup,
    histogram_table,
    iter_chunks,
    kth_smallest,
    sq_distances,
)

# --------------------------------------------------------------------------
# kNN: distance to the k-th nearest training point (self-inclusive, so a
# training point scores 0 at k=1).


def fit_knn(X: np.ndarray, params: dict, rng) -> dict:
    return {"train": X.copy(), "k": int(params["k"])}


def score_knn(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    out = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0]):
        d = np.sqrt(sq_distances(Q[a:b], train))
        out[a:b] = kth_smallest(d, k)
    return out


# --------------------------------------------------------------------------
# LOF: ratio of neighbor local reachability density to the query's own.


def _topk_neighbors(d: np.ndarray, k: int):
    """Sorted top-(k+1) neighbor slice of one distance chunk.

    Returns (idx, nd, kdist, tied): indices and distances of the k+1
    nearest columns, the per-row k-distance, and a mask of rows whose
    neighbor set extends past k because of distance ties.
    """
    take = min(k + 1, d.shape[1])
    idx = np.argpartition(d, take - 1, axis=1)[:, :take]
    nd = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(nd, axis=1, kind="stable")
    nd = np.take_along_axis(nd, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    kdist = nd[:, k - 1]
    tied = nd[:, k] <= kdist if take > k else np.zeros(d.shape[0], dtype=bool)
    return idx, nd, kdist, tied


def fit_lof(X: np.ndarray, params: dict, rng) -> dict:
    """One pass over the training pairwise distances yields each point's
    k-distance and cached neighbor slice; local reachability densities and
    in-sample factors follow from the cache.  Neighbor sets exclude the
    point itself and include distance ties."""
    k = int(params["k"])
    n = X.shape[0]
    kdist = np.empty(n)
    nn_idx = np.empty((n, min(k + 1, n - 1)), dtype=np.int64)
    nn_dist = np.empty_like(nn_idx, dtype=np.float64)
    tied = np.zeros(n, dtype=bool)
    for a, b in iter_chunks(n):
        d = np.sqrt(sq_distances(X[a:b], X))
        d[np.arange(b - a), np.arange(a, b)] = np.inf  # self is not a neighbor
        idx, nd, kd, td = _topk_neighbors(d, k)
        kdist[a:b] = kd
        nn_idx[a:b] = idx[:, : nn_idx.shape[1]]
        nn_dist[a:b] = nd[:, : nn_idx.shape[1]]
        tied[a:b] = td

    def reach_mean_of(rows_idx, rows_nd):
        return np.maximum(kdist[rows_idx], rows_nd).mean(axis=1)

    reach_mean = np.empty(n)
    fast = ~tied
    reach_mean[fast] = reach_mean_of(nn_idx[fast, :k], nn_dist[fast, :k])
    for i in np.flatnonzero(tied):  # ties re-expand against the full set
        d = np.sqrt(sq_distances(X[i : i + 1], X))[0]
        d[i] = np.inf
        member = d <= kdist[i]
        reach_mean[i] = np.maximum(kdist[member], d[member]).mean()
    lrd = 1.0 / np.maximum(reach_mean, DENSITY_EPS)

    # In-sample factors: mean neighbor lrd over own lrd.
    lof_train = np.empty(n)
    lof_train[fast] = lrd[nn_idx[fast, :k]].mean(axis=1) / lrd[fast]
    for i in np.flatnonzero(tied):
        d = np.sqrt(sq_distances(X[i : i + 1], X))[0]
        d[i] = np.inf
        member = d <= kdist[i]
        lof_train[i] = lrd[member].mean() / lrd[i]
    return {
        "train": X.copy(),
        "k": k,
        "train_kdist": kdist,
        "train_lrd": lrd,
        "train_lof": lof_train,
    }


def score_lof(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    kdist_t, lrd_t = state["train_kdist"], state["train_lrd"]
    out = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0]):
        d = np.sqrt(sq_distances(Q[a:b], train))
        idx, nd, kdist_q, tied = _topk_neighbors(d, k)
        fast = ~tied
        lrd_q = np.empty(b - a)
        lrd_mean = np.empty(b - a)
        if fast.any():
            nn = idx[fast, :k]
            reach = np.maximum(kdist_t[nn], nd[fast, :k]).mean(axis=1)
            lrd_q[fast] = 1.0 / np.maximum(reach, DENSITY_EPS)
            lrd_mean[fast] = lrd_t[nn].mean(axis=1)
        for i in np.flatnonzero(tied):
            member = d[i] <= kdist_q[i]
            reach = np.maximum(kdist_t[member], d[i, member]).mean()
            lrd_q[i] = 1.0 / max(reach, DENSITY_EPS)
            lrd_mean[i] = lrd_t[member].mean()
        out[a:b] = lrd_mean / lrd_q
    return out


# --------------------------------------------------------------------------
# Isolation forest.


def _harmonic(n: int) -> float:
    return math.log(n) + 0.5772156649015329


def _avg_path(m: int) -> float:
    """Expected unsuccessful-search path length in a BST of m points."""
    if m <= 1:
        return 0.0
    if m == 2:
        return 1.0
    return 2.0 * _harmonic(m - 1) - 2.0 * (m - 1) / m


def _grow_tree(X: np.ndarray, idx: np.ndarray, depth: int, limit: int, rng, nodes: list) -> int:
    """Append the subtree over rows ``idx`` to ``nodes`` in pre-order, as
    (feature, threshold, right, leaf_path) rows; return its root's index.
    An internal node's left child is the next node.  A leaf's threshold is
    -inf, so every row goes right, to the leaf itself; it carries depth +
    c(size)."""
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
    _grow_tree(X, idx[left_mask], depth + 1, limit, rng, nodes)
    right = _grow_tree(X, idx[~left_mask], depth + 1, limit, rng, nodes)
    nodes[node] = (feat, threshold, right, 0.0)
    return node


def fit_iforest(X: np.ndarray, params: dict, rng) -> dict:
    """Trees as one set of pre-order node arrays; ``roots`` holds each
    tree's root and ``depth`` the walk length that reaches every leaf."""
    n = X.shape[0]
    trees = int(params["trees"])
    if trees < 1:
        raise FitError(f"IForest needs at least one tree, got {trees}")
    psi = min(int(params["subsample"]), n)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    nodes: list = []
    roots = [
        _grow_tree(X, rng.choice(n, size=psi, replace=False), 0, limit, rng, nodes)
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


def score_iforest(state: dict, Q: np.ndarray) -> np.ndarray:
    """Walk every tree at once, one gather per level."""
    roots, feature, threshold = state["roots"], state["feature"], state["threshold"]
    right = state["right"]
    paths = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0]):
        q = Q[a:b]
        node = np.broadcast_to(roots, (b - a, roots.size))
        for _ in range(state["depth"]):
            go_left = np.take_along_axis(q, feature[node], axis=1) < threshold[node]
            node = np.where(go_left, node + 1, right[node])
        # trees summed left to right, as a running sum over trees would
        paths[a:b] = state["leaf_path"][node].cumsum(axis=1)[:, -1]
    mean_path = paths / roots.size
    return np.power(2.0, -mean_path / _avg_path(state["psi"]))


# --------------------------------------------------------------------------
# LODA: sparse random projections with one-dimensional histograms.


def fit_loda(X: np.ndarray, params: dict, rng) -> dict:
    r = int(params["projections"])
    bins = int(params["bins"])
    d = X.shape[1]
    nnz = max(1, math.ceil(math.sqrt(d)))
    W = np.zeros((r, d))
    for i in range(r):
        feats = rng.choice(d, size=min(nnz, d), replace=False)
        W[i, feats] = rng.normal(size=len(feats))
    Z = X @ W.T
    lo, hi = Z.min(axis=0), Z.max(axis=0)
    masses = histogram_table(Z, lo, hi, bins) / X.shape[0]
    return {"W": W, "lo": lo, "hi": hi, "masses": masses}


def score_loda(state: dict, Q: np.ndarray) -> np.ndarray:
    Z = Q @ state["W"].T
    mass = histogram_lookup(Z, state["lo"], state["hi"], state["masses"])
    # projections summed left to right, as in score_hbos
    return (-np.log(mass + EPS)).cumsum(axis=1)[:, -1] / state["W"].shape[0]


# --------------------------------------------------------------------------
# INNE: hyperspheres around random subsamples; radius is the within-sample
# nearest-neighbor distance, score 1 when a query escapes every sphere.


def fit_inne(X: np.ndarray, params: dict, rng) -> dict:
    n = X.shape[0]
    t = int(params["members"])
    psi = min(int(params["sample_size"]), n)
    members = []
    for _ in range(t):
        idx = rng.choice(n, size=psi, replace=False)
        centers = X[idx]
        d = np.sqrt(sq_distances(centers, centers))
        np.fill_diagonal(d, np.inf)
        nn = d.argmin(axis=1)
        radii = d[np.arange(psi), nn]
        members.append({"centers": centers, "radii": radii, "nn_radii": radii[nn]})
    return {"members": members}


def score_inne(state: dict, Q: np.ndarray) -> np.ndarray:
    total = np.zeros(Q.shape[0])
    for member in state["members"]:
        d = np.sqrt(sq_distances(Q, member["centers"]))
        inside = d <= member["radii"][None, :]
        radii = np.where(inside, member["radii"][None, :], np.inf)
        best = radii.argmin(axis=1)
        covered = inside.any(axis=1)
        ratio = member["nn_radii"][best] / np.maximum(member["radii"][best], DENSITY_EPS)
        total += np.where(covered, 1.0 - ratio, 1.0)
    return total / len(state["members"])
