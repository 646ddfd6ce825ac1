"""Scenario grid and synthetic-data generation with ground-truth oracles.

Datasets carry ten covariates (seven dichotomized, three continuous), a binary
treatment, binary potential outcomes drawn from a shared response surface (so the
true ATE and ATT are both zero), and the latent truths needed by oracle learners.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationError

RARITY_LEVELS = ("common", "rare", "very_rare")
CONFOUNDING_LEVELS = ("low", "moderate", "high")
GRID_SIZES = (250, 500, 1000, 2000)

# Outcome intercept and confounding gain per confounding level; treatment
# intercept per rarity level.
OUTCOME_CONSTANTS = {"low": (-1.5, 1.0), "moderate": (-2.22, 2.25), "high": (-4.1, 5.0)}
TREATMENT_INTERCEPTS = {"common": -1.84, "rare": -4.12, "very_rare": -6.5}

# The treatment intercepts above hit their target prevalences (35/15/5%) with the
# covariate score scaled by the moderate confounding gain; that scale is fixed, so
# prevalence depends on rarity alone while g moves only the outcome model.
TREATMENT_GAIN = 2.25

# Event-rate calibration: added to the outcome intercept so the marginal event
# rate stays constant (~23%) across confounding levels.
OUTCOME_SHIFTS = {"low": -0.2476, "moderate": -0.4120, "high": -0.7734}

OUTCOME_COEF = np.array([0.3, -0.36, -0.73, -0.2, 0.0, 0.0, 0.0, 0.71, -0.19, 0.26])
TREATMENT_COEF = np.array([0.8, -0.25, 0.6, -0.4, -0.8, -0.5, 0.7, 0.0, 0.0, 0.0])

# Zero-based columns that stay continuous (x2, x4, x7); the rest are thresholded at 0.
CONTINUOUS_COLS = (1, 3, 6)

MIN_SAMPLE_SIZE = 20
MAX_REDRAWS = 100

# Reserved replication-stream id for per-scenario hyperparameter selection.
HYPER_STREAM = 2**32


def expit(z):
    """Numerically stable logistic function."""
    z_arr = np.asarray(z, dtype=float)
    out = _expit_from(z_arr, np.exp(-np.abs(z_arr)))
    return float(out) if np.ndim(z) == 0 else out


def _expit_from(z, e):
    """expit(z) from e = exp(-|z|): 1/(1+e) where z >= 0, e/(1+e) below, which
    are the doubles of 1/(1+exp(-z)) and exp(z)/(1+exp(z)) respectively."""
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell, named by its sample size, labels and seed. Unknown
    labels, n below MIN_SAMPLE_SIZE, a negative seed and an n or seed that is
    not an integer raise ConfigError."""

    n: int
    rarity: str
    confounding: str
    seed: int = 0

    def __post_init__(self):
        if self.rarity not in RARITY_LEVELS:
            raise ConfigError(f"unknown treatment rarity {self.rarity!r}; expected one of {RARITY_LEVELS}")
        if self.confounding not in CONFOUNDING_LEVELS:
            raise ConfigError(
                f"unknown confounding level {self.confounding!r}; expected one of {CONFOUNDING_LEVELS}"
            )
        n, seed = as_integer(self.n, "sample size"), as_integer(self.seed, "seed")
        if n < MIN_SAMPLE_SIZE:
            raise ConfigError(f"sample size must be >= {MIN_SAMPLE_SIZE}, got {n}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)

    @property
    def label(self) -> str:
        return f"n={self.n},{self.rarity},{self.confounding}"


def build_scenario(rarity: str, confounding: str, n: int, seed: int = 0) -> ScenarioSpec:
    """The ScenarioSpec for (rarity, confounding, n, seed); ScenarioSpec checks it."""
    return ScenarioSpec(n, rarity, confounding, seed)


def as_integer(value, what: str) -> int:
    """operator.index(value); anything that is not an integer raises ConfigError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def grid_scenarios(seed: int = 0) -> list[ScenarioSpec]:
    """All 36 benchmark scenarios in canonical order."""
    return [
        build_scenario(r, c, n, seed)
        for n in GRID_SIZES
        for r in RARITY_LEVELS
        for c in CONFOUNDING_LEVELS
    ]


def _latent_covariance() -> np.ndarray:
    cov = np.eye(10)
    for i, j, rho in ((0, 4, 0.2), (2, 7, 0.2), (1, 5, 0.9), (3, 8, 0.9)):
        cov[i, j] = cov[j, i] = rho
    return cov


# Covariance of the latent Gaussian rows, and its Cholesky factor.
LATENT_COVARIANCE = _latent_covariance()
_LATENT_CHOLESKY = np.linalg.cholesky(LATENT_COVARIANCE)


def sample_latent(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the latent multivariate-Gaussian rows (before dichotomization)."""
    if n < 1:
        raise ValueError("need at least one row")
    z = rng.standard_normal((n, LATENT_COVARIANCE.shape[0]))
    return z @ _LATENT_CHOLESKY.T


def dichotomize(latent: np.ndarray) -> np.ndarray:
    """Threshold every non-continuous column at zero."""
    x = np.asarray(latent, dtype=float).copy()
    binary = [j for j in range(x.shape[1]) if j not in CONTINUOUS_COLS]
    x[:, binary] = (x[:, binary] > 0.0).astype(float)
    return x


def sample_covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    return dichotomize(sample_latent(n, rng))


def _clip_prob(p):
    # Keep probabilities strictly inside (0, 1) even when the linear score saturates.
    return np.clip(p, 1e-300, 1.0 - 1e-16)


def propensity_scores(spec: ScenarioSpec, X: np.ndarray) -> np.ndarray:
    """True treatment probabilities for every row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    score = TREATMENT_INTERCEPTS[spec.rarity] + TREATMENT_GAIN * (X @ TREATMENT_COEF + 0.5 * X[:, 0] * X[:, 1] ** 2)
    return _clip_prob(expit(score))


def response_scores(spec: ScenarioSpec, X: np.ndarray) -> np.ndarray:
    """True event probabilities (shared by both potential outcomes)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a0, g = OUTCOME_CONSTANTS[spec.confounding]
    score = (a0 + OUTCOME_SHIFTS[spec.confounding]) + g * (X @ OUTCOME_COEF + 0.5 * X[:, 2] * X[:, 3] ** 2)
    return _clip_prob(expit(score))


@dataclass(frozen=True)
class SimulatedDataset:
    """One generated sample plus the latent truths retained for oracle checks."""

    X: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    Y0: np.ndarray
    Y1: np.ndarray
    e_true: np.ndarray
    mu_true: np.ndarray
    redraws: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n1(self) -> int:
        return int(self.T.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1


def generate_dataset(spec: ScenarioSpec, rng: np.random.Generator) -> SimulatedDataset:
    """Generate a dataset per the scenario's mechanism.

    A draw with an empty treatment arm is rejected and the whole dataset is
    redrawn; more than MAX_REDRAWS consecutive rejections raise GenerationError.
    """
    redraws = 0
    while True:
        X = sample_covariates(spec.n, rng)
        e_true = propensity_scores(spec, X)
        mu_true = response_scores(spec, X)
        y0 = (rng.random(spec.n) < mu_true).astype(float)
        y1 = (rng.random(spec.n) < mu_true).astype(float)
        t = (rng.random(spec.n) < e_true).astype(float)
        n1 = int(t.sum())
        if 0 < n1 < spec.n:
            y = t * y1 + (1.0 - t) * y0
            for arr in (X, t, y, y0, y1, e_true, mu_true):
                arr.setflags(write=False)
            return SimulatedDataset(X, t, y, y0, y1, e_true, mu_true, redraws)
        redraws += 1
        if redraws > MAX_REDRAWS:
            raise GenerationError(
                f"{spec.label}: {redraws} consecutive draws left a treatment arm empty"
            )


def replication_rng(spec: ScenarioSpec, replication: int) -> np.random.Generator:
    """Per-replication RNG stream from the scenario's seed, order-independent and parallel-safe."""
    key = (
        int(spec.seed),
        int(spec.n),
        RARITY_LEVELS.index(spec.rarity),
        CONFOUNDING_LEVELS.index(spec.confounding),
        int(replication),
    )
    return np.random.default_rng(np.random.SeedSequence(key))


def crude_estimate(dataset: SimulatedDataset) -> float:
    """Difference of raw group means (the unadjusted effect estimate)."""
    T = np.asarray(dataset.T, dtype=float)
    Y = np.asarray(dataset.Y, dtype=float)
    n1 = T.sum()
    n0 = (1.0 - T).sum()
    if n1 < 1 or n0 < 1:
        raise ValueError("both treatment groups must be nonempty")
    return float((T * Y).sum() / n1 - ((1.0 - T) * Y).sum() / n0)

