"""Statistical detectors: feature-wise histograms and empirical CDF tails."""

from __future__ import annotations

import numpy as np

from .common import EPS, histogram_lookup, histogram_table, sample_skew_sign


def fit_hbos(X: np.ndarray, params: dict, rng) -> dict:
    """Per-feature static-width histograms over the training range, one
    (d x bins) table with each row normalized so its tallest bin is 1."""
    bins = int(params.get("bins", 10))
    lo, hi = X.min(axis=0), X.max(axis=0)
    counts = histogram_table(X, lo, hi, bins)
    return {"lo": lo, "hi": hi, "heights": counts / counts.max(axis=1, keepdims=True)}


def score_hbos(state: dict, Q: np.ndarray) -> np.ndarray:
    h = histogram_lookup(Q, state["lo"], state["hi"], state["heights"])
    # features summed left to right: a pairwise sum would change the last bits
    return (-np.log(h + EPS)).cumsum(axis=1)[:, -1]


def _ecdf_tails(sorted_cols: list[np.ndarray], Q: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right empirical tail probabilities per dimension."""
    n_train = len(sorted_cols[0])
    left = np.empty_like(Q)
    right = np.empty_like(Q)
    for j, col in enumerate(sorted_cols):
        left[:, j] = np.searchsorted(col, Q[:, j], side="right") / n_train
        right[:, j] = (n_train - np.searchsorted(col, Q[:, j], side="left")) / n_train
    return np.maximum(left, floor), np.maximum(right, floor)


def fit_copod(X: np.ndarray, params: dict, rng) -> dict:
    """Empirical per-dimension CDFs plus tail-side selection by skewness."""
    return {
        "sorted": [np.sort(X[:, j]) for j in range(X.shape[1])],
        "skew_sign": sample_skew_sign(X),
    }


def score_copod(state: dict, Q: np.ndarray) -> np.ndarray:
    left, right = _ecdf_tails(state["sorted"], Q, EPS)
    u_left = -np.log(left)
    u_right = -np.log(right)
    u_skew = np.where(state["skew_sign"] < 0, u_left, u_right)
    return np.maximum.reduce(
        [u_left.sum(axis=1), u_right.sum(axis=1), u_skew.sum(axis=1)]
    )


def fit_ecod(X: np.ndarray, params: dict, rng) -> dict:
    return {
        "n": X.shape[0],
        "sorted": [np.sort(X[:, j]) for j in range(X.shape[1])],
        "skew_sign": sample_skew_sign(X),
    }


def score_ecod(state: dict, Q: np.ndarray) -> np.ndarray:
    # Tail probabilities floored at 1/n: a query beyond every training
    # value contributes log(n) per dimension.
    left, right = _ecdf_tails(state["sorted"], Q, 1.0 / state["n"])
    o_left = -np.log(left)
    o_right = -np.log(right)
    o_auto = np.where(state["skew_sign"] < 0, o_left, o_right)
    return np.maximum.reduce(
        [o_left.sum(axis=1), o_right.sum(axis=1), o_auto.sum(axis=1)]
    )
