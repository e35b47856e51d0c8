"""Shared numerics for the detector catalog."""

from __future__ import annotations

import numpy as np

# Probability / histogram floor: avoids -log 0 without materially
# shifting score rankings.
EPS = 1e-6
# Variance floor for angle-based scores.
ABOF_EPS = 1e-12
# Denominator floor for local-density ratios.
DENSITY_EPS = 1e-12

CHUNK_ROWS = 1024


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, |A| x |B|, clipped at zero."""
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    # in place: one (|A| x |B|) temporary fewer at the distance chunks' peak
    return np.maximum(sq, 0.0, out=sq)


def iter_chunks(n: int, chunk: int = CHUNK_ROWS):
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def kth_smallest(dists: np.ndarray, k: int) -> np.ndarray:
    """Per-row k-th smallest value (1-based k)."""
    return np.partition(dists, k - 1, axis=1)[:, k - 1]


def _histogram_cells(V: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """Flat index into a (d x bins) table of each cell of V (n x d).

    Static-width floor rule over each column's [lo, hi]; the top edge
    belongs to the last bin so the training maximum stays in range, and a
    constant column (hi <= lo) keeps its value in bin 0.
    """
    span = np.where(hi > lo, hi - lo, 1.0)
    # fmax/fmin send NaN to bin 0, where it stays a valid index
    idx = np.fmin(np.fmax(np.floor((V - lo) / span * bins), 0), bins - 1).astype(np.intp)
    return idx + np.arange(V.shape[1]) * bins


def histogram_table(V: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """Bin counts of V (n x d): one row of ``bins`` counts per column."""
    d = V.shape[1]
    counts = np.bincount(_histogram_cells(V, lo, hi, bins).ravel(), minlength=d * bins)
    return counts.reshape(d, bins).astype(float)


def histogram_lookup(
    Q: np.ndarray, lo: np.ndarray, hi: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Bin height of each cell of Q (n x d) in its column's row of
    ``table``; zero outside the column's training range."""
    heights = table.take(_histogram_cells(Q, lo, hi, table.shape[1]))
    return np.where((Q >= lo) & (Q <= hi), heights, 0.0)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def sample_skew_sign(X: np.ndarray) -> np.ndarray:
    """Sign of the per-column sample skewness (0 for symmetric/degenerate)."""
    mu = X.mean(axis=0)
    centered = X - mu
    sd = centered.std(axis=0)
    third = (centered**3).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(sd > 0, third / np.where(sd > 0, sd, 1.0) ** 3, 0.0)
    return np.sign(skew)
