"""Nuisance models: IRLS logistic regression and oracle learners.

The well-specified form appends the interaction the generator actually uses
(x1*x2^2 for the propensity, x3*x4^2 for the outcome); the misspecified form
uses main effects only. Oracle learners reproduce the generator's truths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .scenarios import ScenarioSpec, _expit_from, expit, propensity_scores, response_scores

TARGETS = ("propensity", "outcome")
FORMS = ("well_specified", "misspecified")
LEARNER_KINDS = ("oracle", "logistic_well", "logistic_mis")

PROB_CLAMP = 1e-12
_RIDGE_START = 1e-4
_RIDGE_MAX = 1e6
_IRLS_MAX_ITER = 100  # Newton steps per attempt
_IRLS_TOL = 1e-9  # converged when max|gradient| < _IRLS_TOL * max(1, sqrt(rows))


@dataclass(frozen=True)
class FeatureSpec:
    target: str
    form: str

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")


def engineer_features(X: np.ndarray, feature_spec: FeatureSpec) -> np.ndarray:
    """Design matrix (without intercept) for the requested model form."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 10:
        raise ValueError(f"expected an n x 10 covariate matrix, got shape {X.shape}")
    if feature_spec.form == "misspecified":
        return X.copy()
    if feature_spec.target == "propensity":
        extra = X[:, 0] * X[:, 1] ** 2
    else:
        extra = X[:, 2] * X[:, 3] ** 2
    return np.column_stack([X, extra])


@dataclass
class LogisticModel:
    coefficients: np.ndarray  # intercept first
    feature_spec: FeatureSpec | None
    converged: bool
    ridge_used: float

    def describe(self) -> str:
        lines = [f"intercept = {self.coefficients[0]!r}"]
        lines += [f"beta[{j}] = {b!r}" for j, b in enumerate(self.coefficients[1:], start=1)]
        lines.append(f"converged = {self.converged}, ridge_used = {self.ridge_used!r}")
        return "\n".join(lines)


def _log_likelihood(eta: np.ndarray, y: np.ndarray, e: np.ndarray) -> float:
    # sum y*eta - log(1 + exp(eta)), computed stably from e = exp(-|eta|)
    return float(np.sum(y * eta - (np.maximum(eta, 0.0) + np.log1p(e))))


def _irls(Z: np.ndarray, y: np.ndarray, ridge: float, gtol: float):
    n, p = Z.shape
    pen = np.full(p, ridge)
    pen[0] = 0.0  # intercept unpenalized
    pen_diag = np.diag(pen)
    beta = np.zeros(p)
    eta = Z @ beta
    e = np.exp(-np.abs(eta))  # one exp per iterate: the likelihood and mu share it
    obj = _log_likelihood(eta, y, e) - 0.5 * float(pen @ beta**2)
    for _ in range(_IRLS_MAX_ITER):
        mu = _expit_from(eta, e)
        grad = Z.T @ (y - mu) - pen * beta
        if np.max(np.abs(grad)) < gtol:
            return beta, True
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess = Z.T @ (w[:, None] * Z) + pen_diag
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
            obj_c = _log_likelihood(eta_c, y, e_c) - 0.5 * float(pen @ cand**2)
            if np.isfinite(obj_c) and obj_c >= obj - 1e-12:
                beta, eta, e, obj = cand, eta_c, e_c, obj_c
                break
            step *= 0.5
        else:
            return beta, False
        if not np.all(np.isfinite(beta)) or np.max(np.abs(beta)) > 1e3:
            return beta, False
    mu = _expit_from(eta, e)
    grad = Z.T @ (y - mu) - pen * beta
    return beta, bool(np.max(np.abs(grad)) < gtol)


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    feature_spec: FeatureSpec | None = None,
) -> LogisticModel:
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
            return LogisticModel(beta, feature_spec, True, ridge)
        ridge = _RIDGE_START if ridge == 0.0 else ridge * 10.0
        if ridge > _RIDGE_MAX:
            raise NumericError("logistic fit failed to converge even with heavy ridge")


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Predicted probabilities, clamped strictly inside (0, 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    design = engineer_features(X, model.feature_spec) if model.feature_spec is not None else X
    if design.shape[1] != model.coefficients.shape[0] - 1:
        raise ValueError(
            f"design has {design.shape[1]} columns, model expects {model.coefficients.shape[0] - 1}"
        )
    eta = model.coefficients[0] + design @ model.coefficients[1:]
    return np.clip(expit(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass
class Learner:
    """A fitted (or oracle) probability model over covariate rows."""

    kind: str
    target: str
    predict_all: Callable[[np.ndarray], np.ndarray]
    model: LogisticModel | None = None

    def predict(self, x_row: np.ndarray) -> float:
        return float(self.predict_all(np.asarray(x_row, dtype=float)[None, :])[0])


def make_learner(
    kind: str,
    *,
    scenario: ScenarioSpec | None = None,
    model: LogisticModel | None = None,
    target: str | None = None,
) -> Learner:
    """Build a Learner from a scenario (oracle) or a fitted logistic model."""
    if kind == "oracle":
        if scenario is None or target not in TARGETS:
            raise ValueError("oracle learners need a scenario and a target")
        truth = propensity_scores if target == "propensity" else response_scores
        spec = scenario
        return Learner(kind, target, lambda X: truth(spec, X))
    if kind in ("logistic_well", "logistic_mis"):
        if model is None:
            raise ValueError(f"{kind} learners need a fitted model")
        tgt = target or (model.feature_spec.target if model.feature_spec else None)
        if tgt not in TARGETS:
            raise ValueError("cannot infer the learner target")
        return Learner(kind, tgt, lambda X: predict_proba(model, X), model)
    raise ValueError(f"unknown learner kind {kind!r}")


def fit_learner(kind: str, X: np.ndarray, labels: np.ndarray, target: str) -> Learner:
    """Fit a logistic learner of the requested kind on (X, labels)."""
    form = "well_specified" if kind == "logistic_well" else "misspecified"
    spec = FeatureSpec(target, form)
    model = fit_logistic(engineer_features(X, spec), labels, feature_spec=spec)
    return make_learner(kind, model=model, target=target)
