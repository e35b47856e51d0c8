"""Feature bagging: local-outlier-factor members on random feature subsets,
combined as the mean of z-normalized member scores."""

from __future__ import annotations

import math

import numpy as np

from .density import lof_in_sample, score_lof


def fit_feature_bagging(X: np.ndarray, params: dict, rng) -> dict:
    m = int(params["bag_count"])
    k = int(params["k"])
    d = X.shape[1]
    if params["subset_range"] is not None:
        lo, hi = params["subset_range"]  # 1 <= lo <= hi and lo <= d, checked in fit
        hi = min(d, hi)
    else:
        lo = math.ceil(d / 2)
        hi = max(lo, d - 1)
    members = []
    for _ in range(m):
        size = int(rng.integers(lo, hi + 1))
        feats = np.sort(rng.choice(d, size=size, replace=False))
        # z-normalization uses the member's in-sample factor distribution,
        # computed on the F-ordered X[:, feats] (scoring differs, see below)
        kdist, lrd, factors = lof_in_sample(X[:, feats], k)
        members.append(
            {
                "features": feats,
                "train_kdist": kdist,
                "train_lrd": lrd,
                "mean": float(factors.mean()),
                "sd": float(max(factors.std(), 1e-12)),
            }
        )
    return {"train": X.copy(), "k": k, "members": members}


def score_feature_bagging(state: dict, Q: np.ndarray) -> np.ndarray:
    train, k = state["train"], state["k"]
    total = np.zeros(Q.shape[0])
    for member in state["members"]:
        feats = member["features"]
        # a member and its columns of the shared matrix make a LOF state; C
        # order, because BLAS rounds the F-ordered train[:, feats] differently
        lof = {**member, "train": np.ascontiguousarray(train[:, feats]), "k": k}
        total += (score_lof(lof, Q[:, feats]) - member["mean"]) / member["sd"]
    return total / len(state["members"])
