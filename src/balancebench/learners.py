"""Nuisance models: logistic regression by IRLS on a design matrix.

The well-specified design appends the interaction the generator actually uses
(x1*x2^2 for the propensity, x3*x4^2 for the outcome); the misspecified design
uses main effects only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .scenarios import _expit_from, expit

TARGETS = ("propensity", "outcome")

PROB_CLAMP = 1e-12
_RIDGE_START = 1e-4
_RIDGE_MAX = 1e6
_IRLS_MAX_ITER = 100  # Newton steps per attempt
_IRLS_TOL = 1e-9  # converged when max|gradient| < _IRLS_TOL * max(1, sqrt(rows))


def engineer_features(X: np.ndarray, target: str, well_specified: bool) -> np.ndarray:
    """Design matrix (without intercept) for `target`: the ten covariates, plus
    the generator's interaction when `well_specified`."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 10:
        raise ValueError(f"expected an n x 10 covariate matrix, got shape {X.shape}")
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if not well_specified:
        return X.copy()
    if target == "propensity":
        extra = X[:, 0] * X[:, 1] ** 2
    else:
        extra = X[:, 2] * X[:, 3] ** 2
    return np.column_stack([X, extra])


@dataclass
class LogisticModel:
    coefficients: np.ndarray  # intercept first
    ridge_used: float


def _log_likelihood(eta: np.ndarray, y: np.ndarray, e: np.ndarray) -> float:
    # sum y*eta - log(1 + exp(eta)), computed stably from e = exp(-|eta|)
    return float((y * eta - (np.maximum(eta, 0.0) + np.log1p(e))).sum())


def _irls(Z: np.ndarray, y: np.ndarray, ridge: float, gtol: float):
    """Newton's method with step halving for the log-likelihood less
    0.5 * ridge * |beta[1:]|^2. At ridge 0 the penalty terms would add exact
    zeros, so they are left out."""
    p = Z.shape[1]
    Zt = Z.T
    pen = None
    if ridge:
        pen = np.full(p, ridge)
        pen[0] = 0.0  # intercept unpenalized
        pen_diag = np.diag(pen)

    def objective(b, eta, e):
        obj = _log_likelihood(eta, y, e)
        return obj if pen is None else obj - 0.5 * float(pen @ b**2)

    def gradient(b, mu):
        grad = Zt @ (y - mu)
        return grad if pen is None else grad - pen * b

    beta = np.zeros(p)
    eta = Z @ beta
    e = np.exp(-np.abs(eta))  # one exp per iterate: the likelihood and mu share it
    obj = objective(beta, eta, e)
    for _ in range(_IRLS_MAX_ITER):
        mu = _expit_from(eta, e)
        grad = gradient(beta, mu)
        if np.abs(grad).max() < gtol:
            return beta, True
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess = Zt @ (w[:, None] * Z)
        if pen is not None:
            hess += pen_diag
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return beta, False
        # step halving keeps the penalized log-likelihood non-decreasing
        step = 1.0
        while step >= 1e-10:
            cand = beta + step * delta
            eta_c = Z @ cand
            e_c = np.exp(-np.abs(eta_c))
            obj_c = objective(cand, eta_c, e_c)
            if math.isfinite(obj_c) and obj_c >= obj - 1e-12:
                beta, eta, e, obj = cand, eta_c, e_c, obj_c
                break
            step *= 0.5
        else:
            return beta, False
        if not np.isfinite(beta).all() or np.abs(beta).max() > 1e3:
            return beta, False
    grad = gradient(beta, _expit_from(eta, e))
    return beta, bool(np.abs(grad).max() < gtol)


def fit_logistic(design: np.ndarray, labels: np.ndarray) -> LogisticModel:
    """Maximize the Bernoulli log-likelihood by IRLS with step halving.

    On separation or non-convergence the fit is retried with an escalating
    ridge penalty (1e-4, then x10 each retry) until it converges; the ridge
    actually used is recorded on the model.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if design.shape[0] != y.shape[0]:
        raise ValueError("design and labels disagree on the number of rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if y.min() == y.max():
        raise ValueError("labels contain a single class; the MLE does not exist")
    if not np.all(np.isfinite(design)):
        raise NumericError("design matrix contains non-finite values")

    Z = np.column_stack([np.ones(y.shape[0]), design])
    gtol = _IRLS_TOL * max(1.0, np.sqrt(y.shape[0]))
    ridge = 0.0
    while True:
        beta, converged = _irls(Z, y, ridge, gtol)
        # log-odds beyond +-30 mean numerically degenerate probabilities: separation
        if converged and np.max(np.abs(beta)) < 30.0:
            return LogisticModel(beta, ridge)
        ridge = _RIDGE_START if ridge == 0.0 else ridge * 10.0
        if ridge > _RIDGE_MAX:
            raise NumericError("logistic fit failed to converge even with heavy ridge")


def predict_proba(model: LogisticModel, design: np.ndarray) -> np.ndarray:
    """Predicted probabilities at the rows of `design`, clamped strictly inside (0, 1)."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    if design.shape[1] != model.coefficients.shape[0] - 1:
        raise ValueError(
            f"design has {design.shape[1]} columns, model expects {model.coefficients.shape[0] - 1}"
        )
    eta = model.coefficients[0] + design @ model.coefficients[1:]
    return np.clip(expit(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)
