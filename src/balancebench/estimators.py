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

# The range of a usable estimate of a difference of probabilities.
ESTIMATE_RANGE = (-1.0, 1.0)


def in_range(value: float) -> bool:
    return bool(np.isfinite(value) and ESTIMATE_RANGE[0] <= value <= ESTIMATE_RANGE[1])


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
    return EffectEstimate(value, se, ci, in_range(value))


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


def weighted_ols(Y, T, weights: BalanceWeights) -> EffectEstimate:
    """Treatment coefficient of weighted least squares of Y on [1, T], with an
    HC0 sandwich interval; weights treated as fixed constants.

    With a binary T the slope is m1 - m0, the difference of the two groups'
    weighted means, and its HC0 variance is the sum over groups g of
    sum_{i in g} (w_i r_i)^2 / S_g^2, where r_i is row i's residual from its
    group's mean and S_g is the group's weight total.
    """
    yk, tk, wk = _kept_arrays(Y, T, weights)
    means, var = [], 0.0
    for group in (tk == 0.0, tk == 1.0):
        w, y = wk[group], yk[group]
        total = w.sum()
        if total <= 0:
            raise EstimationError("a treatment group's kept weights sum to zero")
        mean = (w * y).sum() / total
        var += ((w * (y - mean)) ** 2).sum() / total**2
        means.append(mean)
    return _finish(means[1] - means[0], np.sqrt(var))
