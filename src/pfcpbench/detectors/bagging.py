"""Feature bagging: local-outlier-factor members on random feature subsets,
combined as the mean of z-normalized member scores."""

from __future__ import annotations

import math

import numpy as np

from .density import fit_lof, score_lof


def fit_feature_bagging(X: np.ndarray, params: dict, rng) -> dict:
    m = int(params["bag_count"])
    k = int(params["k"])
    d = X.shape[1]
    if params["subset_range"] is not None:
        lo, hi = (int(v) for v in params["subset_range"])
        lo, hi = max(1, lo), min(d, hi)
    else:
        lo = math.ceil(d / 2)
        hi = max(lo, d - 1)
    members = []
    for _ in range(m):
        size = int(rng.integers(lo, hi + 1))
        feats = np.sort(rng.choice(d, size=size, replace=False))
        lof_state = fit_lof(X[:, feats], {"k": k}, rng)
        # z-normalization uses the member's in-sample factor distribution
        train_scores = lof_state["train_lof"]
        members.append(
            {
                "features": feats,
                "lof": lof_state,
                "mean": float(train_scores.mean()),
                "sd": float(max(train_scores.std(), 1e-12)),
            }
        )
    return {"members": members}


def score_feature_bagging(state: dict, Q: np.ndarray) -> np.ndarray:
    total = np.zeros(Q.shape[0])
    for member in state["members"]:
        s = score_lof(member["lof"], Q[:, member["features"]])
        total += (s - member["mean"]) / member["sd"]
    return total / len(state["members"])
