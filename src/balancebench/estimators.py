"""Effect estimators on weighted samples: weighted average, augmented weighted
average, and weighted least squares with robust (HC0) sandwich intervals.

All sums run over kept observations only; trimmed rows (kept_mask False) are
excluded everywhere, including normalizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .weights import BalanceWeights

_Z95 = 1.959963984540054  # standard-normal 97.5% quantile


@dataclass
class ResponseSurfaces:
    """Predicted response probabilities under control and treatment."""

    mu0: np.ndarray
    mu1: np.ndarray


@dataclass
class EffectEstimate:
    value: float
    se: float | None
    ci95: tuple[float, float] | None
    valid: bool


def _finish(value: float, se: float | None = None) -> EffectEstimate:
    value = float(value)
    ci = None
    if se is not None:
        se = float(se)
        ci = (value - _Z95 * se, value + _Z95 * se)
    valid = bool(np.isfinite(value) and abs(value) <= 1.0)
    return EffectEstimate(value, se, ci, valid)


def _kept_arrays(Y, T, weights: BalanceWeights):
    Y = np.asarray(Y, dtype=float)
    T = np.asarray(T, dtype=float)
    kept = np.asarray(weights.kept_mask, dtype=bool)
    yk, tk, wk = Y[kept], T[kept], np.asarray(weights.values, dtype=float)[kept]
    if tk.size == 0 or tk.min() == 1.0 or tk.max() == 0.0:
        raise EstimationError("a treatment group was trimmed away entirely")
    return yk, tk, wk


def weighted_average(Y, T, weights: BalanceWeights) -> EffectEstimate:
    """ATE: sum(T W Y) - sum((1-T) W Y); ATT replaces the treated term with the
    plain treated mean."""
    yk, tk, wk = _kept_arrays(Y, T, weights)
    if weights.estimand == "ATE":
        value = float((tk * wk * yk).sum() - ((1.0 - tk) * wk * yk).sum())
    else:
        n1 = tk.sum()
        value = float((tk * yk).sum() / n1 - ((1.0 - tk) * wk * yk).sum())
    return _finish(value)


def augmented_weighted_average(Y, T, weights: BalanceWeights, surfaces: ResponseSurfaces) -> EffectEstimate:
    """Doubly robust estimator: plug-in surface difference plus weighted residuals."""
    Y = np.asarray(Y, dtype=float)
    if surfaces.mu0.shape[0] != Y.shape[0] or surfaces.mu1.shape[0] != Y.shape[0]:
        raise ValueError("response surfaces are not aligned with the dataset")
    yk, tk, wk = _kept_arrays(Y, T, weights)
    kept = np.asarray(weights.kept_mask, dtype=bool)
    mu0k = np.asarray(surfaces.mu0, dtype=float)[kept]
    mu1k = np.asarray(surfaces.mu1, dtype=float)[kept]
    if weights.estimand == "ATE":
        mu_own = tk * mu1k + (1.0 - tk) * mu0k
        value = float(np.mean(mu1k - mu0k) + ((2.0 * tk - 1.0) * wk * (yk - mu_own)).sum())
    else:
        n1 = tk.sum()
        value = float(
            (tk * (yk - mu0k)).sum() / n1 - ((1.0 - tk) * wk * (yk - mu0k)).sum()
        )
    return _finish(value)


def sandwich_variance(Y, T, W) -> tuple[float, tuple[float, float]]:
    """HC0 sandwich standard error and 95% interval for the treatment slope of a
    weighted least-squares fit of Y on [1, T]; weights treated as fixed constants."""
    Y = np.asarray(Y, dtype=float)
    T = np.asarray(T, dtype=float)
    W = np.asarray(W, dtype=float)
    Z = np.column_stack([np.ones(T.size), T])
    A = Z.T @ (W[:, None] * Z)
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular weighted design; sandwich variance undefined") from exc
    beta = A_inv @ (Z.T @ (W * Y))
    resid = Y - Z @ beta
    meat = Z.T @ ((W**2 * resid**2)[:, None] * Z)
    V = A_inv @ meat @ A_inv
    se = float(np.sqrt(max(V[1, 1], 0.0)))
    return se, (float(beta[1] - _Z95 * se), float(beta[1] + _Z95 * se))


def weighted_ols(Y, T, weights: BalanceWeights) -> EffectEstimate:
    """Treatment coefficient of weighted least squares, with sandwich interval."""
    yk, tk, wk = _kept_arrays(Y, T, weights)
    sw = wk.sum()
    if sw <= 0:
        raise EstimationError("kept weights sum to zero")
    tbar = float((wk * tk).sum() / sw)
    ybar = float((wk * yk).sum() / sw)
    denom = float((wk * (tk - tbar) ** 2).sum())
    if denom <= 0:
        raise EstimationError("degenerate treatment spread under these weights")
    beta = float((wk * (tk - tbar) * (yk - ybar)).sum() / denom)
    se, _ = sandwich_variance(yk, tk, wk)
    return _finish(beta, se)
