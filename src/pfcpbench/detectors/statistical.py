"""Statistical detectors: feature-wise histograms and empirical CDF tails."""

from __future__ import annotations

import numpy as np

from .common import EPS, histogram_lookup, histogram_table, sample_skew_sign


def fit_hbos(X: np.ndarray, params: dict, rng) -> dict:
    """Per-feature static-width histograms over the training range, one
    (d x bins) table with each row normalized so its tallest bin is 1."""
    bins = int(params["bins"])
    lo, hi = X.min(axis=0), X.max(axis=0)
    counts = histogram_table(X, lo, hi, bins)
    return {"lo": lo, "hi": hi, "heights": counts / counts.max(axis=1, keepdims=True)}


def score_hbos(state: dict, Q: np.ndarray) -> np.ndarray:
    h = histogram_lookup(Q, state["lo"], state["hi"], state["heights"])
    # features summed left to right: a pairwise sum would change the last bits
    return (-np.log(h + EPS)).cumsum(axis=1)[:, -1]


def fit_ecdf(X: np.ndarray, params: dict, rng) -> dict:
    """Empirical per-dimension CDFs, as one (d x n) table of sorted training
    columns, plus tail-side selection by skewness; COPOD and ECOD share it."""
    return {
        "sorted": np.sort(np.ascontiguousarray(X.T), axis=1),
        "skew_sign": sample_skew_sign(X),
    }


def _tail_scores(state: dict, Q: np.ndarray, floor: float) -> np.ndarray:
    """The largest of the left-tail, right-tail and skew-chosen-tail sums of
    -log empirical tail probabilities, each probability floored at ``floor``."""
    table = state["sorted"]
    n = table.shape[1]
    left = np.empty_like(Q)
    right = np.empty_like(Q)
    for j, col in enumerate(table):
        left[:, j] = np.searchsorted(col, Q[:, j], side="right") / n
        right[:, j] = (n - np.searchsorted(col, Q[:, j], side="left")) / n
    u_left = -np.log(np.maximum(left, floor))
    u_right = -np.log(np.maximum(right, floor))
    u_skew = np.where(state["skew_sign"] < 0, u_left, u_right)
    return np.maximum.reduce(
        [u_left.sum(axis=1), u_right.sum(axis=1), u_skew.sum(axis=1)]
    )


def score_copod(state: dict, Q: np.ndarray) -> np.ndarray:
    return _tail_scores(state, Q, EPS)


def score_ecod(state: dict, Q: np.ndarray) -> np.ndarray:
    # Tail probabilities floored at 1/n: a query beyond every training
    # value contributes log(n) per dimension.
    return _tail_scores(state, Q, 1.0 / state["sorted"].shape[1])
