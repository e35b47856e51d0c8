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
# Rows per pass of the elementwise steps inside one distance chunk: their
# temporaries stay a small slice of the chunk, while the BLAS product and
# each element's arithmetic stay those of the whole-chunk expressions.
BLOCK_ROWS = 32


def row_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for a 2-D ``A`` and a 1-D or 2-D ``B``, with the same bits
    for a row of ``A`` in any batch.

    numpy's stacked matmul makes one BLAS product per (1 x k) row of ``A``,
    the same call whichever rows share the batch, where one product over
    all of ``A`` rounds with the batch's shape.  Both operands are copied
    C-contiguous first, so the call does not depend on the caller's memory
    order either: BLAS multiplies by an F-ordered ``B``, such as ``W.T``,
    in another kernel, which rounds differently.
    """
    A = np.ascontiguousarray(A)
    return np.matmul(A[:, None, :], np.ascontiguousarray(B))[:, 0]


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, |A| x |B|, clipped at zero.

    The result is the array ``row_matmul(A, B.T)`` writes: each element
    becomes (|a|^2 + |b|^2) - 2 <a, b> in place, a block of rows at a time,
    so no second array of its size is made.  Norms are summed over
    C-contiguous copies: numpy sums a C-contiguous row pairwise, alone or in
    a batch, but an F-ordered batch (FeatureBagging's ``Q[:, feats]``)
    column by column, which from 8 columns on rounds differently.
    """
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    a2 = (A * A).sum(axis=1)
    b2 = (B * B).sum(axis=1)
    sq = row_matmul(A, B.T)
    for lo, hi in iter_chunks(len(sq), BLOCK_ROWS):
        block = sq[lo:hi]
        block *= 2.0
        np.subtract(a2[lo:hi, None] + b2, block, out=block)
        np.maximum(block, 0.0, out=block)
    return sq


def distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances in the one array ``sq_distances`` returns."""
    d = sq_distances(A, B)
    return np.sqrt(d, out=d)


def iter_chunks(n: int, chunk: int = CHUNK_ROWS):
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def nearest(d: np.ndarray, take: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the ``take`` smallest entries of each row of the
    distance chunk ``d``, ascending; equal values keep their selection order.
    Selection is per row, so a block of rows at a time picks the same columns."""
    idx = np.empty((len(d), take), dtype=np.intp)
    for lo, hi in iter_chunks(len(d), BLOCK_ROWS):
        idx[lo:hi] = np.argpartition(d[lo:hi], take - 1, axis=1)[:, :take]
    nd = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(nd, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(nd, order, axis=1)


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
    # methods, not np.* wrappers: the same sums, cheaper on GMM's one-row scores
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis=axis)


def sample_skew_sign(X: np.ndarray) -> np.ndarray:
    """Sign of the per-column sample skewness (0 for symmetric/degenerate)."""
    mu = X.mean(axis=0)
    centered = X - mu
    sd = centered.std(axis=0)
    third = (centered**3).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(sd > 0, third / np.where(sd > 0, sd, 1.0) ** 3, 0.0)
    return np.sign(skew)
