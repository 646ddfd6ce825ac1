"""Covariate-balancing weights, treatment-effect estimators, and a Monte Carlo
benchmark harness for comparing them."""

from .errors import BalanceBenchError, ConfigError, EstimationError, GenerationError, NumericError
from .estimators import (
    EffectEstimate,
    ResponseSurfaces,
    augmented_weighted_average,
    weighted_average,
    weighted_ols,
)
from .harness import (
    MetricsSummary,
    ReplicationRecord,
    RunConfig,
    emit_results,
    run,
    summarize,
)
from .kernels import Geometry, KernelSpec, distance_matrix, gram_matrix, median_heuristic
from .learners import LogisticModel, engineer_features, fit_logistic, predict_proba
from .qpsolver import QPSolution, QuadraticProgram, solve_qp
from .scenarios import (
    ScenarioSpec,
    SimulatedDataset,
    build_scenario,
    crude_estimate,
    generate_dataset,
    grid_scenarios,
    replication_rng,
    sample_covariates,
)
from .weights import (
    BalanceWeights,
    effective_sample_size,
    energy_balance,
    iptw_weights,
    kom_weights,
    tlf_fit,
    tlf_weights,
)

__version__ = "0.1.0"
