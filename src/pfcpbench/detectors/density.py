"""Density and isolation detectors."""

from __future__ import annotations

import math

import numpy as np

from .common import (
    DENSITY_EPS,
    EPS,
    distances,
    histogram_lookup,
    histogram_table,
    iter_chunks,
    nearest,
    row_matmul,
)

# --------------------------------------------------------------------------
# kNN: distance to the k-th nearest training point (self-inclusive, so a
# training point scores 0 at k=1).


def fit_knn(X: np.ndarray, params: dict, rng) -> dict:
    """The whole fitted state of kNN, and of ABOD too: the rows and k."""
    return {"train": X.copy(), "k": int(params["k"])}


def score_knn(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    out = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0]):
        d = distances(Q[a:b], train)
        out[a:b] = nearest(d, k)[1][:, k - 1]
        del d  # one chunk's distances alive at a time
    return out


# --------------------------------------------------------------------------
# LOF: ratio of neighbor local reachability density to the query's own.
# A row's neighbors are every column within its k-distance, so a distance
# tie can make the set larger than k.


def _neighborhoods(d: np.ndarray, k: int):
    """Each row's k-distance and neighbors in the distance chunk ``d``.

    Returns (kdist, nn, nd, ties): the k-th smallest distance, the columns
    and distances of the k nearest, and, for each row whose neighbor set
    grows past k through a tie, its row mapped to the columns and distances
    of every member (``d <= kdist``).  Members are read from ``d`` itself,
    so the column that sets the k-distance is always one of them.
    """
    take = min(k + 1, d.shape[1])
    nn, nd = nearest(d, take)
    kdist = nd[:, k - 1]
    ties = {}
    if take > k:
        for i in np.flatnonzero(nd[:, k] <= kdist):
            member = np.flatnonzero(d[i] <= kdist[i])
            ties[i] = (member, d[i, member])
    return kdist, nn[:, :k], nd[:, :k], ties


def _neighbor_mean(f, nn: np.ndarray, nd: np.ndarray, ties: dict) -> np.ndarray:
    """Per row, the mean of ``f(columns, distances)`` over its neighbors."""
    out = f(nn, nd).mean(axis=1)
    for i, (member, dist) in ties.items():
        out[i] = f(member, dist).mean()
    return out


def _lrd(kdist_t: np.ndarray, nn: np.ndarray, nd: np.ndarray, ties: dict) -> np.ndarray:
    """Local reachability density: the inverse of the mean reach distance,
    max(neighbor's k-distance, distance to it), over each row's neighbors."""
    reach = _neighbor_mean(lambda cols, dist: np.maximum(kdist_t[cols], dist), nn, nd, ties)
    return 1.0 / np.maximum(reach, DENSITY_EPS)


def _mean_lrd(lrd_t: np.ndarray, nn: np.ndarray, nd: np.ndarray, ties: dict) -> np.ndarray:
    """Mean local reachability density of each row's neighbors."""
    return _neighbor_mean(lambda cols, _: lrd_t[cols], nn, nd, ties)


def lof_in_sample(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-distances, local reachability densities and in-sample factors of
    the rows of X, each over its neighbors other than itself, from one pass
    over the pairwise distances."""
    n = X.shape[0]
    kdist = np.empty(n)
    nn = np.empty((n, k), dtype=np.int64)
    nd = np.empty((n, k))
    ties = {}
    for a, b in iter_chunks(n):
        d = distances(X[a:b], X)
        d[np.arange(b - a), np.arange(a, b)] = np.inf  # self is not a neighbor
        kdist[a:b], nn[a:b], nd[a:b], chunk_ties = _neighborhoods(d, k)
        del d  # one chunk's distances alive at a time
        ties.update((a + i, hood) for i, hood in chunk_ties.items())
    lrd = _lrd(kdist, nn, nd, ties)
    return kdist, lrd, _mean_lrd(lrd, nn, nd, ties) / lrd


def fit_lof(X: np.ndarray, params: dict, rng) -> dict:
    k = int(params["k"])
    kdist, lrd, _ = lof_in_sample(X, k)
    return {"train": X.copy(), "k": k, "train_kdist": kdist, "train_lrd": lrd}


def score_lof(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    kdist_t, lrd_t = state["train_kdist"], state["train_lrd"]
    out = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0]):
        d = distances(Q[a:b], train)
        _, nn, nd, ties = _neighborhoods(d, k)
        del d  # one chunk's distances alive at a time
        out[a:b] = _mean_lrd(lrd_t, nn, nd, ties) / _lrd(kdist_t, nn, nd, ties)
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


def fit_iforest(X: np.ndarray, params: dict, rng) -> dict:
    """Trees as one set of pre-order node arrays; ``roots`` holds each
    tree's root and ``depth`` the walk length that reaches every leaf.
    An internal node's left child is the next node.  A leaf's threshold is
    -inf, so every row goes right, to the leaf itself; it carries depth +
    c(size).  Each tree grows from an explicit stack with the left child on
    top, so the draws come in the order a recursive grower makes them."""
    n = X.shape[0]
    trees = int(params["trees"])
    psi = min(int(params["subsample"]), n)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    avg_path = [_avg_path(m) for m in range(psi + 1)]  # c(size)
    roots, feature, threshold, right, leaf_path = [], [], [], [], []
    for _ in range(trees):
        roots.append(len(feature))
        # rows, depth, and the node whose right child they are
        stack = [(X[rng.choice(n, size=psi, replace=False)], 0, -1)]
        while stack:
            sub, depth, parent = stack.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            # a leaf unless split
            feature.append(0)
            threshold.append(-np.inf)
            right.append(node)
            leaf_path.append(depth + avg_path[len(sub)])
            if depth >= limit or len(sub) <= 1:
                continue
            lo, hi = np.minimum.reduce(sub), np.maximum.reduce(sub)
            varying = (hi > lo).nonzero()[0]
            if varying.size == 0:
                continue
            feat = int(varying[rng.integers(len(varying))])  # the draw rng.choice(varying) makes
            feature[node] = feat
            threshold[node] = float(rng.uniform(lo[feat], hi[feat]))
            leaf_path[node] = 0.0
            left_mask = sub[:, feat] < threshold[node]
            stack.append((sub[~left_mask], depth + 1, node))
            stack.append((sub[left_mask], depth + 1, -1))
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
    Z = row_matmul(X, W.T)
    lo, hi = Z.min(axis=0), Z.max(axis=0)
    masses = histogram_table(Z, lo, hi, bins) / X.shape[0]
    return {"W": W, "lo": lo, "hi": hi, "masses": masses}


def score_loda(state: dict, Q: np.ndarray) -> np.ndarray:
    Z = row_matmul(Q, state["W"].T)
    mass = histogram_lookup(Z, state["lo"], state["hi"], state["masses"])
    # projections summed left to right, as in score_hbos
    return (-np.log(mass + EPS)).cumsum(axis=1)[:, -1] / state["W"].shape[0]


# --------------------------------------------------------------------------
# INNE: hyperspheres around random subsamples; radius is the within-sample
# nearest-neighbor distance, score 1 when a query escapes every sphere.

# Query rows scored against all t members at once: the block's distances are
# an INNE_BLOCK_ROWS x t x psi array (800 KiB at 200 members of 8 centers).
INNE_BLOCK_ROWS = 64


def fit_inne(X: np.ndarray, params: dict, rng) -> dict:
    """t members of psi sampled centers each, stacked: centers (t, psi, d),
    and each center's radius and its nearest neighbour's radius (t, psi)."""
    n = X.shape[0]
    t = int(params["members"])
    psi = min(int(params["sample_size"]), n)
    centers = np.empty((t, psi, X.shape[1]))
    radii = np.empty((t, psi))
    nn_radii = np.empty((t, psi))
    for m in range(t):
        centers[m] = X[rng.choice(n, size=psi, replace=False)]
        d = distances(centers[m], centers[m])
        np.fill_diagonal(d, np.inf)
        nn = d.argmin(axis=1)
        radii[m] = d[np.arange(psi), nn]
        nn_radii[m] = radii[m, nn]
    return {"centers": centers, "radii": radii, "nn_radii": nn_radii}


def score_inne(state: dict, Q: np.ndarray) -> np.ndarray:
    """A block of query rows against every member at once, through one
    distance matrix to all t * psi centers."""
    centers, radii = state["centers"], state["radii"]
    t, psi = radii.shape
    flat = centers.reshape(t * psi, -1)
    # a query whose smallest covering center is j scores this
    covered_score = 1.0 - state["nn_radii"] / np.maximum(radii, DENSITY_EPS)
    out = np.empty(Q.shape[0])
    for a, b in iter_chunks(Q.shape[0], INNE_BLOCK_ROWS):
        d = distances(Q[a:b], flat).reshape(b - a, t, psi)
        # the smallest covering radius by a running comparison over the
        # centers; a tie keeps the first center, as argmin would
        best = np.full((b - a, t), np.inf)
        score = covered_score[:, 0]
        covered = False
        for j in range(psi):
            inside = d[:, :, j] <= radii[:, j]
            radius = np.where(inside, radii[:, j], np.inf)
            score = np.where(radius < best, covered_score[:, j], score)
            best = np.minimum(best, radius)
            covered = covered | inside
        # 1 where no sphere covers the query; members summed in order, as a
        # running total over members would
        out[a:b] = np.where(covered, score, 1.0).cumsum(axis=1)[:, -1] / t
    return out
