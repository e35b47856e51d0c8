"""Geometric detectors: subspace reconstruction, angle variance, mixtures."""

from __future__ import annotations

import numpy as np

from .common import ABOF_EPS, iter_chunks, logsumexp, sq_distances

GMM_RIDGE = 1e-6
GMM_MAX_ITER = 200
GMM_TOL = 1e-7


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
    if V.shape[0] == 0:
        return (centered**2).sum(axis=1)
    residual = centered - (centered @ V.T) @ V
    return (residual**2).sum(axis=1)


def fit_abod(X: np.ndarray, params: dict, rng) -> dict:
    return {"train": X.copy(), "k": int(params["k"])}


def score_abod(state: dict, Q: np.ndarray) -> np.ndarray:
    """Fast angle-based variant over the k nearest training neighbors.

    ABOF is the plain variance over neighbor pairs (a, b) of
    <q-a, q-b> / (|q-a|^2 |q-b|^2); coincident neighbors are skipped so the
    quotient stays defined.
    """
    train, k = state["train"], state["k"]
    out = np.empty(Q.shape[0])
    # a few spare neighbors so coincident points can be skipped
    spare = min(k + 8, train.shape[0])
    for a, b in iter_chunks(Q.shape[0], 256):
        d2 = sq_distances(Q[a:b], train)
        part = np.argpartition(d2, spare - 1, axis=1)[:, :spare]
        for i in range(a, b):
            cand = part[i - a]
            cand = cand[np.argsort(d2[i - a, cand], kind="stable")]
            usable = cand[d2[i - a, cand] > ABOF_EPS][:k]
            if len(usable) < 2:
                out[i] = -np.log(ABOF_EPS)
                continue
            diffs = train[usable] - Q[i]
            norms2 = d2[i - a, usable]
            dots = diffs @ diffs.T
            quot = dots / np.outer(norms2, norms2)
            iu = np.triu_indices(len(usable), k=1)
            out[i] = -np.log(np.var(quot[iu]) + ABOF_EPS)
    return out


def _log_gaussians(Q: np.ndarray, means: np.ndarray, chols: list[np.ndarray]) -> np.ndarray:
    """Per-component multivariate normal log densities (|Q| x K)."""
    n, d = Q.shape
    K = means.shape[0]
    out = np.empty((n, K))
    for k in range(K):
        L = chols[k]
        diff = Q - means[k]
        y = np.linalg.solve(L, diff.T)
        maha = (y**2).sum(axis=0)
        logdet = 2.0 * np.log(np.diag(L)).sum()
        out[:, k] = -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))
    return out


def _regularized_cholesky(cov: np.ndarray) -> np.ndarray:
    ridge = GMM_RIDGE
    eye = np.eye(cov.shape[0])
    for _ in range(8):
        try:
            return np.linalg.cholesky(cov + ridge * eye)
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise np.linalg.LinAlgError("covariance not positive definite even after ridging")


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
    chols = [_regularized_cholesky(c) for c in covs]
    return {"means": means, "chols": chols, "log_weights": np.log(weights)}


def score_gmm(state: dict, Q: np.ndarray) -> np.ndarray:
    log_prob = _log_gaussians(Q, state["means"], state["chols"]) + state["log_weights"]
    return -logsumexp(log_prob, axis=1)
