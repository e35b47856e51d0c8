"""Feature bagging: local-outlier-factor members on random feature subsets,
combined as the mean of z-normalized member scores."""

from __future__ import annotations

import math

import numpy as np

from .density import lof_in_sample, score_lof


def fit_feature_bagging(X: np.ndarray, params: dict, rng) -> dict:
    """The m members stacked one row each: ``features`` (m x d, a mask of
    the member's columns), ``train_kdist`` and ``train_lrd`` (m x n), and
    ``mean`` and ``sd`` (m); ``train`` and ``k`` serve them all."""
    m = int(params["bag_count"])
    k = int(params["k"])
    n, d = X.shape
    if params["subset_range"] is not None:
        lo, hi = params["subset_range"]  # 1 <= lo <= hi and lo <= d, checked in fit
        hi = min(d, hi)
    else:
        lo = math.ceil(d / 2)
        hi = max(lo, d - 1)
    features = np.zeros((m, d), dtype=bool)
    kdist, lrd = np.empty((m, n)), np.empty((m, n))
    mean, sd = np.empty(m), np.empty(m)
    for i in range(m):
        size = int(rng.integers(lo, hi + 1))
        feats = np.sort(rng.choice(d, size=size, replace=False))
        features[i, feats] = True
        # z-normalization uses the member's in-sample factor distribution
        kdist[i], lrd[i], factors = lof_in_sample(X[:, feats], k)
        mean[i], sd[i] = factors.mean(), max(factors.std(), 1e-12)
    return {"train": X.copy(), "k": k, "features": features, "train_kdist": kdist,
            "train_lrd": lrd, "mean": mean, "sd": sd}


def score_feature_bagging(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    total = np.zeros(Q.shape[0])
    for mask, kdist, lrd, mean, sd in zip(state["features"], state["train_kdist"],
                                          state["train_lrd"], state["mean"], state["sd"]):
        feats = np.flatnonzero(mask)
        # a member and its columns of the shared matrix make a LOF state
        lof = {"train": train[:, feats], "k": k, "train_kdist": kdist, "train_lrd": lrd}
        total += (score_lof(lof, Q[:, feats]) - mean) / sd
    return total / len(state["mean"])
