"""Geometric detectors: subspace reconstruction, angle variance, mixtures."""

from __future__ import annotations

import numpy as np

from ..errors import FitError
from .common import ABOF_EPS, iter_chunks, logsumexp, nearest, row_matmul, sq_distances

GMM_RIDGE = 1e-6
GMM_MAX_ITER = 200
GMM_TOL = 1e-7
LOG_2PI = np.log(2.0 * np.pi)


def fit_pca(X: np.ndarray, params: dict, rng) -> dict:
    """Keep the smallest component count explaining the requested variance
    fraction; anomalies are scored by squared reconstruction error."""
    vf = float(params["variance_fraction"])
    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    var = svals**2
    total = var.sum()
    if total <= 0:
        k = 0
    else:
        k = int(np.searchsorted(np.cumsum(var) / total, vf) + 1)
        k = min(k, Vt.shape[0])
    return {"mean": mean, "components": Vt[:k]}


def score_pca(state: dict, Q: np.ndarray) -> np.ndarray:
    centered = Q - state["mean"]
    V = state["components"]
    residual = centered - row_matmul(row_matmul(centered, V.T), V)
    return (residual**2).sum(axis=1)


def score_abod(state: dict, Q: np.ndarray) -> np.ndarray:
    """Fast angle-based variant over the k nearest training neighbors.

    ABOF is the plain variance over neighbor pairs (a, b) of
    <q-a, q-b> / (|q-a|^2 |q-b|^2); coincident neighbors are skipped so the
    quotient stays defined.  Rows with the same number m of usable
    neighbours are scored together: one batched Gram product, and the
    variance of each row of a C-contiguous pair matrix, which sums a row
    as the variance of one row's pairs alone does.
    """
    train, k = state["train"], state["k"]
    out = np.full(Q.shape[0], -np.log(ABOF_EPS))  # the floor: under 2 usable neighbours
    # a few spare neighbors so coincident points can be skipped
    spare = min(k + 8, train.shape[0])
    for a, b in iter_chunks(Q.shape[0], 256):
        near, near_d2 = nearest(sq_distances(Q[a:b], train), spare)
        apart = near_d2 > ABOF_EPS
        # the first k neighbours of each row that are apart from it
        usable = apart & (np.cumsum(apart, axis=1) <= k)
        counts = usable.sum(axis=1)
        for m in set(counts.tolist()) - {0, 1}:
            rows = np.flatnonzero(counts == m)
            keep = usable[rows]
            cols, norms2 = near[rows][keep].reshape(-1, m), near_d2[rows][keep].reshape(-1, m)
            diffs = train[cols] - Q[a + rows, None]
            quot = (diffs @ diffs.transpose(0, 2, 1)) / (norms2[:, :, None] * norms2[:, None, :])
            upper, col = np.triu_indices(m, k=1)
            pairs = quot.reshape(len(rows), m * m).take(upper * m + col, axis=1)
            out[a + rows] = -np.log(np.var(pairs, axis=1) + ABOF_EPS)
    return out


def _log_gaussians(Q: np.ndarray, means: np.ndarray, chols: list[np.ndarray]) -> np.ndarray:
    """Per-component multivariate normal log densities (|Q| x K), for EM in
    ``fit_gmm`` only: its solve rounds with the batch's shape, so
    ``score_gmm`` does not use it."""
    n, d = Q.shape
    K = means.shape[0]
    out = np.empty((n, K))
    for k in range(K):
        L = chols[k]
        diff = Q - means[k]
        y = np.linalg.solve(L, diff.T)
        maha = (y**2).sum(axis=0)
        logdet = 2.0 * np.log(L.diagonal()).sum()
        out[:, k] = -0.5 * (maha + logdet + d * LOG_2PI)
    return out


def _regularized_cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``cov`` plus the least of eight growing diagonal
    ridges that makes it positive definite; a ``FitError`` when none does."""
    ridge = GMM_RIDGE
    eye = np.eye(cov.shape[0])
    for _ in range(8):
        try:
            return np.linalg.cholesky(cov + ridge * eye)
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise FitError(
        f"GMM: covariance not positive definite even after a ridge of {ridge / 10.0:g}"
    )


def fit_gmm(X: np.ndarray, params: dict, rng) -> dict:
    """Full-covariance EM with a diagonal ridge; score is the negative
    log-likelihood under the fitted mixture."""
    K = int(params["components"])
    n, d = X.shape
    means = X[rng.choice(n, size=K, replace=False)].copy()
    base_cov = np.cov(X, rowvar=False).reshape(d, d)
    covs = [base_cov.copy() for _ in range(K)]
    weights = np.full(K, 1.0 / K)
    prev_ll = -np.inf
    for _ in range(GMM_MAX_ITER):
        chols = [_regularized_cholesky(c) for c in covs]
        log_prob = _log_gaussians(X, means, chols) + np.log(weights)
        norm = logsumexp(log_prob, axis=1)
        ll = float(norm.mean())
        resp = np.exp(log_prob - norm[:, None])
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for k in range(K):
            diff = X - means[k]
            covs[k] = (resp[:, k][:, None] * diff).T @ diff / nk[k]
        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll
    chols = np.array([_regularized_cholesky(c) for c in covs])  # K x d x d
    return {"means": means, "chols": chols, "log_weights": np.log(weights)}


def score_gmm(state: dict, Q: np.ndarray) -> np.ndarray:
    """Negative log-likelihood under the mixture, the same bits for a row in
    any batch: ``y = (Q - mu_k) L_k^-T`` is summed one column of
    ``Q - mu_k`` at a time, in a fixed order, with no BLAS product or
    solve, whose rounding follows the batch's shape."""
    chols, d = state["chols"], Q.shape[1]
    inv_cols = np.linalg.inv(chols).transpose(0, 2, 1)  # [k, j]: column j of L_k^-1
    diff = Q[:, None, :] - state["means"]  # |Q| x K x d
    y = diff[:, :, :1] * inv_cols[:, 0]
    for j in range(1, d):
        tail = y[:, :, j:]  # L_k^-1 is lower triangular
        tail += diff[:, :, j : j + 1] * inv_cols[:, j, j:]
    maha = (y * y).sum(axis=2)
    logdet = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    log_prob = -0.5 * (maha + logdet + d * LOG_2PI) + state["log_weights"]
    return -logsumexp(log_prob, axis=1)
