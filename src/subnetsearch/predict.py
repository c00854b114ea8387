"""Surrogate objective predictors: ridge regression and RBF epsilon-SVR.

Ridge solves the normal equations on centered data (intercept unpenalized).
The SVR solves the epsilon-insensitive dual by sequential optimization of
maximal-violating variable pairs under the box and equality constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SubnetSearchError
from .util import subseed


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RidgeModel:
    weights: np.ndarray
    bias: float


def ridge_system(X, lam: float):
    """(x_mean, Xc, A): the column means of X, X centered and the normal
    matrix Xc^T Xc + lam I, which every target fitted on X shares."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError("fit_ridge needs a non-empty 2-D feature matrix")
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    d = X.shape[1]
    if lam == 0 and np.linalg.matrix_rank(Xc) < d:
        raise ConfigError(
            "centered feature matrix is rank-deficient at lambda=0; use lambda>0"
        )
    return x_mean, Xc, Xc.T @ Xc + lam * np.eye(d)


def fit_ridge(X, y, lam: float, system=None) -> RidgeModel:
    """Regularized least squares with an unpenalized intercept; `system` is
    X's `ridge_system`, computed here unless given."""
    y = np.asarray(y, dtype=float).ravel()
    x_mean, Xc, A = ridge_system(X, lam) if system is None else system
    if Xc.shape[0] != y.shape[0]:
        raise SubnetSearchError(f"{Xc.shape[0]} rows vs {y.shape[0]} targets")
    y_mean = y.mean()
    yc = y - y_mean
    try:
        w = np.linalg.solve(A, Xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise SubnetSearchError(f"normal equations singular: {exc}") from exc
    return RidgeModel(weights=w, bias=float(y_mean - x_mean @ w))


# ---------------------------------------------------------------------------
# Epsilon-SVR
# ---------------------------------------------------------------------------


def _kernel(gamma: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The RBF kernel exp(-gamma |a - b|^2) of every row pair."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


@dataclass(frozen=True, eq=False)
class SvrModel:
    support_vectors: np.ndarray
    dual_coeffs: np.ndarray
    bias: float
    gamma: float
    C: float
    epsilon: float
    feature_dim: int
    support_indices: tuple[int, ...] = ()
    n_iter: int = 0
    converged: bool = True


def fit_svr(
    X,
    y,
    C: float = 1.0,
    epsilon: float = 0.01,
    tol: float = 1e-3,
    max_iter: int = 200_000,
) -> SvrModel:
    """Solve the epsilon-insensitive dual of the RBF kernel of gamma 1 / d
    to KKT tolerance `tol`. The model is the last iterate: `converged` is
    false when the pairwise optimizer hit `max_iter` (its `n_iter`) before
    the maximal KKT violation dropped below tol.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    if n < 2:
        raise ConfigError("fit_svr needs at least 2 samples")
    if X.shape[0] != y.shape[0]:
        raise SubnetSearchError(f"{n} rows vs {y.shape[0]} targets")
    if C <= 0:
        raise ConfigError("C must be > 0")
    if epsilon < 0:
        raise ConfigError("epsilon must be >= 0")
    gamma = 1.0 / d

    K = _kernel(gamma, X, X)
    # Dual variables z = [alpha; alpha*], signs q, linear term p.
    q = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    z = np.zeros(2 * n)
    G = p.copy()
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        score = -q * G
        up = ((q > 0) & (z < C)) | ((q < 0) & (z > 0))
        low = ((q > 0) & (z > 0)) | ((q < 0) & (z < C))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        gap = score[i] - score[j]
        if gap <= tol:
            converged = True
            break
        bi, bj = i % n, j % n
        a = K[bi, bi] + K[bj, bj] - 2.0 * K[bi, bj]
        if a <= 0:
            a = 1e-12
        qq = q[i] * q[j]
        delta = q[i] * gap / a
        # box limits for z_i and z_j along the feasible direction
        lo = -z[i]
        hi = C - z[i]
        if qq > 0:  # dz_j = -delta
            lo = max(lo, z[j] - C)
            hi = min(hi, z[j])
        else:  # dz_j = +delta
            lo = max(lo, -z[j])
            hi = min(hi, C - z[j])
        delta = min(max(delta, lo), hi)
        z[i] += delta
        z[j] -= qq * delta
        for t in (i, j):  # snap to the box to avoid numerical drift
            if z[t] < 1e-12:
                z[t] = 0.0
            elif z[t] > C - 1e-12:
                z[t] = C
        kcol_i = np.concatenate([K[:, bi], K[:, bi]])
        kcol_j = np.concatenate([K[:, bj], K[:, bj]])
        G += (q * kcol_i) * (q[i] * delta) + (q * kcol_j) * (q[j] * (-qq * delta))

    # bias from free variables, else midpoint of the KKT bounds
    score = -q * G
    free = (z > 0) & (z < C)
    if free.any():
        bias = float(score[free].mean())
    else:
        up = ((q > 0) & (z < C)) | ((q < 0) & (z > 0))
        low = ((q > 0) & (z > 0)) | ((q < 0) & (z < C))
        m_up = float(score[up].max()) if up.any() else 0.0
        m_low = float(score[low].min()) if low.any() else 0.0
        bias = 0.5 * (m_up + m_low)

    beta = z[:n] - z[n:]
    sv = np.abs(beta) > 1e-12
    return SvrModel(
        support_vectors=X[sv],
        dual_coeffs=beta[sv],
        bias=bias,
        gamma=gamma,
        C=float(C),
        epsilon=float(epsilon),
        feature_dim=d,
        support_indices=tuple(int(i) for i in np.nonzero(sv)[0]),
        n_iter=it,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Prediction and metrics
# ---------------------------------------------------------------------------


def predict(model: RidgeModel | SvrModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(model, RidgeModel):
        if X.shape[1] != model.weights.shape[0]:
            raise SubnetSearchError(
                f"model expects {model.weights.shape[0]} features, got {X.shape[1]}"
            )
        return X @ model.weights + model.bias
    if isinstance(model, SvrModel):
        if X.shape[1] != model.feature_dim:
            raise SubnetSearchError(
                f"model expects {model.feature_dim} features, got {X.shape[1]}"
            )
        if model.support_vectors.shape[0] == 0:
            return np.full(X.shape[0], model.bias)
        return _kernel(model.gamma, X, model.support_vectors) @ model.dual_coeffs + model.bias
    raise ConfigError(f"unknown model type {type(model).__name__}")


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, as a percentage."""
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if a.shape != p.shape:
        raise SubnetSearchError(f"lengths differ: {a.shape[0]} vs {p.shape[0]}")
    if np.any(a == 0):
        raise SubnetSearchError("MAPE undefined for zero actual values")
    return float(np.mean(np.abs(a - p) / np.abs(a)) * 100.0)


_TAU_BLOCK = 256  # rows of pairs that `kendall_tau` takes at a time


def kendall_tau(a, b) -> float:
    """Tie-corrected Kendall rank correlation (tau-b): the sum of the sign
    products sign(a_i - a_j) sign(b_i - b_j) over the pairs i < j, over the
    square roots of the counts of pairs untied in a and in b. Pairs are taken
    `_TAU_BLOCK` rows at a time, so memory stays O(n * _TAU_BLOCK)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise SubnetSearchError(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ConfigError("kendall_tau needs length >= 2")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise SubnetSearchError("tau undefined for an all-constant vector")
    both = untied_a = untied_b = 0
    for start in range(0, n - 1, _TAU_BLOCK):
        rows = min(_TAU_BLOCK, n - 1 - start)
        i, j = np.triu_indices(rows, 1, n - start)
        sa = np.sign(a[start + i] - a[start + j])
        sb = np.sign(b[start + i] - b[start + j])
        both += int(sa @ sb)
        untied_a += int(np.count_nonzero(sa))
        untied_b += int(np.count_nonzero(sb))
    return min(1.0, max(-1.0, both / math.sqrt(untied_a) / math.sqrt(untied_b)))


# ---------------------------------------------------------------------------
# Trial protocol for predictor quality analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    train_size: int
    trial: int
    mape: float
    kendall: float


def run_prediction_trials(
    X,
    y,
    fit_fn,
    train_sizes,
    test_size: int = 500,
    trials: int = 10,
    seed: int = 0,
) -> list[TrialResult]:
    """Repeated train/test analysis of a predictor.

    Per trial the pool is shuffled, a fixed test set of `test_size` rows is
    held out, and the predictor is retrained on nested subsets of the
    remaining rows at each requested training size.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    train_sizes = sorted(set(int(s) for s in train_sizes))
    needed = test_size + max(train_sizes)
    if X.shape[0] < needed:
        raise ConfigError(
            f"need at least {needed} pooled samples, have {X.shape[0]}"
        )
    results = []
    for trial in range(trials):
        rng = np.random.default_rng(subseed(seed, "predict-trial", trial))
        perm = rng.permutation(X.shape[0])
        test_idx = perm[:test_size]
        pool_idx = perm[test_size:]
        for size in train_sizes:
            train_idx = pool_idx[:size]
            model = fit_fn(X[train_idx], y[train_idx])
            preds = predict(model, X[test_idx])
            results.append(
                TrialResult(
                    train_size=size,
                    trial=trial,
                    mape=mape(y[test_idx], preds),
                    kendall=kendall_tau(y[test_idx], preds),
                )
            )
    return results
